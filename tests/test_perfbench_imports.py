"""The benchmark under perfbench/ looks mvtrack names up when it runs; each one
must resolve, so that moving or renaming one fails here rather than as a
failed benchmark run."""
import ast
import importlib
import inspect
from pathlib import Path

import mvtrack.engine
from mvtrack.engine import OracleDetector, track
from mvtrack.metrics import clear_mot
from mvtrack.model import TrackerConfig
from mvtrack.stream import (
    DetectorConfig,
    MotionScript,
    ObjectScript,
    Scenario,
    StreamHeader,
    generate_scenario,
    gt_to_rows,
    read_mot_table,
    read_motchallenge,
    rows_to_gt,
    write_motchallenge,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# run.py reads MOTA, IDS and IDF1 by wrapping these two names in mvtrack.cli
CAPTURED = {("run.py", "mvtrack.cli", "clear_mot"), ("run.py", "mvtrack.cli", "idf1")}
# Names the tracer hooks that the package no longer has. The tracer skips a
# missing name, so the metrics it feeds read 0 until the tracer is re-wired to
# the columnar engine; the set may only shrink.
UNHOOKED = {
    ("mvtrack.engine", "associate_two_step"),
    ("mvtrack.engine", "associate_one_step"),
    ("mvtrack.engine", "apply_matches"),
    ("mvtrack.engine", "manage_states"),
    ("mvtrack.engine", "predict_bbox"),
    ("mvtrack.engine", "encode_motion"),
    ("mvtrack.affinity", "affinity"),
    ("mvtrack.cli", "read_motchallenge"),
}


def mvtrack_names(tree):
    """(module, name) of each `from mvtrack.<module> import name`, each
    `import mvtrack.<module>` (name None) and each `mvtrack.<module>.<name>`
    attribute in a parsed source file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mvtrack":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "mvtrack")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            owner = node.value
            if isinstance(owner.value, ast.Name) and owner.value.id == "mvtrack":
                yield f"mvtrack.{owner.attr}", node.attr


def test_perfbench_mvtrack_names_resolve():
    used = {
        (path.name, module, name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for module, name in mvtrack_names(ast.parse(path.read_text()))
    }
    assert ("run.py", "mvtrack.engine", "OracleDetector") in used  # the scan sees the imports
    missing = []
    for file, module, name in sorted(used | CAPTURED, key=str):
        try:
            owner = importlib.import_module(module)
        except ImportError as exc:
            missing.append(f"{file}: {module} ({exc})")
            continue
        if name is not None and not hasattr(owner, name):
            missing.append(f"{file}: {module}.{name}")
    assert not missing, missing


def traced_names():
    """(owner path, name) of each entry of the tracer's `plan` list, the
    owner's local alias (`eng`, `assoc`, `cli`) spelled out."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    aliases, plan = {}, None
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                aliases.update((t.id, ast.unparse(v)) for t, v in zip(target.elts, node.value.elts))
            elif isinstance(target, ast.Name) and target.id == "plan":
                plan = node.value
    assert isinstance(plan, ast.List), "perfbench/tracing.py has no `plan = [...]` list"
    for entry in plan.elts:
        head, _, rest = ast.unparse(entry.elts[0]).partition(".")
        yield ".".join(filter(None, (aliases.get(head, head), rest))), entry.elts[1].value


def resolve(path: str):
    """The object a dotted path names: its longest importable module prefix,
    then attributes."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


def test_tracer_plan_names_resolve_except_the_unhooked():
    names = set(traced_names())
    assert ("mvtrack.engine", "FieldReadout") in names  # the scan sees the plan
    # the tracer looks a name up in the owner's own namespace, as here
    missing = {(path, name) for path, name in names if name not in vars(resolve(path))}
    assert missing - UNHOOKED == set(), "the tracer hooks names the package does not have"
    assert UNHOOKED - missing == set(), "an unhooked name resolves again: drop it from UNHOOKED"


def test_field_readout_stays_a_class_the_tracer_can_subclass():
    assert inspect.isclass(mvtrack.engine.FieldReadout)
    assert {"__init__", "velocities"} <= set(vars(mvtrack.engine.FieldReadout))


def test_benchmark_row_calls_score_as_evaluate_does(tmp_path):
    # the row calls of perfbench/prepare.py and perfbench/run.py, which the
    # benchmark's own tests make only under perfbench/, on a tiny scenario
    objs = (ObjectScript(id=1, enter=1, exit=24, x=60, y=60, w=40, h=32, vx=2),
            ObjectScript(id=2, enter=3, exit=24, x=180, y=120, w=48, h=48, vx=-1.5, occlusions=((9, 11),)))
    scenario = generate_scenario(MotionScript(frames=24, objects=objs), StreamHeader(width=256, height=192), seed=1)
    cfg = TrackerConfig(K=3, propagator="bboxavg", association_mode="onestep", alpha=1.0)
    detector = OracleDetector(scenario, DetectorConfig(noise_center=0.02, miss_rate=0.2, fp_rate=1.0, rng_seed=1))
    gt_path, out = tmp_path / "gt.txt", tmp_path / "out.txt"
    write_motchallenge(gt_to_rows(scenario.gt), gt_path)  # prepare
    rows, _ = track(scenario, detector, cfg)
    write_motchallenge([(f, i, b, 1.0) for f, i, b in rows], out)  # Session.track
    # the warm-up tracks the prefix of a Scenario rebuilt from its parts
    n = 12
    prefix = Scenario(scenario.header, scenario.frames[:n], [r for r in scenario.gt if r.frame <= n], scenario.feature_seeds)
    assert track(prefix, detector, cfg)[0] == [r for r in rows if r[0] <= n]
    # run() scores rows read back; `mvtrack evaluate` scores the tables
    gt = rows_to_gt(read_motchallenge(gt_path))
    assert gt == scenario.gt
    got = clear_mot(gt, [(f, i, b) for f, i, b, _ in read_motchallenge(out)])
    want = clear_mot(read_mot_table(gt_path), read_mot_table(out))
    assert rows and (got.mota, got.ids) == (want.mota, want.ids)
    assert got.fp + got.fn > 0  # the detector's misses and clutter reach the scores
