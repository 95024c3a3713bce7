"""mvtrack benchmark: one workload, one seed, one measuring process.

    python3 perfbench/run.py --workload clean-50 --seed 1 --seconds 25 --trace 0

A child process writes the workload's scenario, ground truth and models
from the seed. The measuring process is one closed-loop caller: each call
starts when the previous one returns. With --trace 0 it times, sharing
--seconds between them, `engine.track` at the workload's K and at K=1 on
the in-memory scenario, `read_scenario` + `read_models`, and the
`mvtrack track` and `mvtrack evaluate` paths through `mvtrack.cli.main`.
With --trace 1 it runs the same calls under the span tracer, next to
untraced track runs for the tracing overhead. Every output goes through
the correctness gate. The last line of standard output is the JSON
result; a fuller record goes to .perfbench/results/.
"""
from __future__ import annotations

import os

# one BLAS thread: set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from gate import check_motchallenge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# End-to-end metrics reported with --trace 0: name -> (unit, better).
END_TO_END = {
    "fps": ("frames/s", "higher"),
    "fps_k1": ("frames/s", "higher"),
    "e2e_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "evaluate_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "mota": ("ratio", "higher"),
    "idf1": ("ratio", "higher"),
    "pass_rate": ("ratio", "higher"),
}

# Untraced runs take at least this many samples of each timed call, and
# at least MIN_SECONDS of each.
MIN_SAMPLES = {"setup": 3, "track_k": 5, "track_k1": 3, "cli_track": 3, "cli_evaluate": 3}
MIN_SECONDS = 1.0

# `mvtrack track` in a child process that records its own peak memory.
CHILD = """import sys
from mvtrack.cli import main
code = main(sys.argv[2:])
with open("/proc/self/status") as fh, open(sys.argv[1], "w") as out:
    out.write(next(line for line in fh if line.startswith("VmHWM")).split()[1])
sys.exit(code)
"""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Session:
    """The inputs of one workload run, the calls that time it and the
    correctness gate around each call. Samples are durations in seconds."""

    def __init__(self, wl, seed: int, workdir: Path, tracer=None):
        from mvtrack.engine import OracleDetector
        from mvtrack.modelio import read_models
        from mvtrack.stream import read_scenario
        from workloads import K

        self.wl, self.seed, self.dir, self.tracer, self.k = wl, seed, workdir, tracer, K
        self.scn, self.gt, self.mdl = workdir / "scenario.scn", workdir / "gt.txt", workdir / "models.txt"
        self.scenario = read_scenario(self.scn)
        self.models = read_models(self.mdl)
        self.detector = OracleDetector(self.scenario, wl.detector_config(seed))
        self.samples = defaultdict(list)
        self.timings = defaultdict(list)
        self.digests = {}
        self.attempted = self.failed = 0
        self.problems = []
        self.accuracy = {}

    # -- bookkeeping -----------------------------------------------------

    def attempt(self, name: str, fn) -> None:
        """Run one timed call; an exception or a gate problem fails it."""
        self.attempted += 1
        try:
            problems = fn()
        except Exception as exc:  # noqa: BLE001 - a failing program is a measured outcome
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems[:5]]

    def check_output(self, key: str, path: Path) -> list:
        """Gate a MOTChallenge output; repeats must be byte-identical."""
        digest = sha256(path)
        if key in self.digests:
            return [] if digest == self.digests[key] else [f"output differs from the first repeat ({digest[:12]})"]
        self.digests[key] = digest
        h = self.scenario.header
        return check_motchallenge(path.read_text(), self.scenario.n_frames, h.width, h.height)

    # -- timed calls -----------------------------------------------------

    def setup(self) -> list:
        from mvtrack.modelio import read_models
        from mvtrack.stream import read_scenario

        t0 = time.perf_counter()
        read_scenario(self.scn)
        read_models(self.mdl)
        self.samples["setup"].append(time.perf_counter() - t0)
        return []

    def track(self, k: int, traced: bool) -> list:
        import mvtrack.engine
        from mvtrack.stream import write_motchallenge

        key = ("track_k" if k == self.k else "track_k1") + ("_traced" if traced else "")
        run = self.tracer.traced_track if traced else mvtrack.engine.track
        t0 = time.perf_counter()
        rows, timings = run(self.scenario, self.detector, self.wl.tracker_config(k), self.models)
        self.samples[key].append(time.perf_counter() - t0)
        self.timings[key].append(timings)
        out = self.dir / f"inproc_k{k}.txt"
        write_motchallenge([(f, i, b, 1.0) for f, i, b in rows], out)
        return self.check_output(f"k{k}", out)

    def cli_track(self) -> list:
        import mvtrack.cli

        out = self.dir / "cli_out.txt"
        argv = ["track", "--scenario", str(self.scn), "--models", str(self.mdl), "--out", str(out),
                *self.wl.track_flags(self.k, self.seed)]
        t0 = time.perf_counter()
        code, _, err = run_cli(mvtrack.cli.main, argv)
        self.samples["cli_track"].append(time.perf_counter() - t0)
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        # the CLI must reproduce the in-process rows byte for byte
        problems = self.check_output(f"k{self.k}", out)
        if "hyp_tracks" not in self.accuracy:
            self.accuracy["hyp_tracks"] = len({line.split(",")[1] for line in out.read_text().splitlines()})
        return problems

    def cli_evaluate(self) -> list:
        import mvtrack.cli

        argv = ["evaluate", "--gt", str(self.gt), "--results", str(self.dir / "cli_out.txt")]
        first = "mota" not in self.accuracy
        with capture(mvtrack.cli, ("clear_mot", "idf1")) if first else contextlib.nullcontext() as got:
            t0 = time.perf_counter()
            code, out, err = run_cli(mvtrack.cli.main, argv)
            self.samples["cli_evaluate"].append(time.perf_counter() - t0)
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        lines = out.splitlines()
        if len(lines) != 2 or len(lines[0].split("\t")) != len(lines[1].split("\t")):
            return [f"malformed evaluate output {out!r}"]
        if first:
            scores = got["clear_mot"]
            self.accuracy.update(mota=scores.mota, ids=scores.ids, idf1=got["idf1"])
        return []

    # -- scheduling ------------------------------------------------------

    def warm_up(self) -> None:
        """One untimed pass over the first two GOPs, so lazy imports and
        first-call costs stay out of the samples."""
        from mvtrack.engine import track
        from mvtrack.stream import Scenario

        n = min(self.scenario.n_frames, 2 * self.scenario.header.gop)
        prefix = Scenario(self.scenario.header, self.scenario.frames[:n],
                          [r for r in self.scenario.gt if r.frame <= n], self.scenario.feature_seeds)
        for k in (self.k, 1):
            track(prefix, self.detector, self.wl.tracker_config(k), self.models)

    def measure(self, seconds: float) -> None:
        """Untraced calls, time-shared: the call with the least time spent
        so far goes next, until every call has its MIN_SAMPLES and
        MIN_SECONDS and the time is up. The first pass runs them in order,
        so that evaluate follows a CLI track. Call order depends on timing,
        so memory is measured apart, in `peak_rss_mb`."""
        calls = {
            "setup": self.setup,
            "track_k": lambda: self.track(self.k, False),
            "track_k1": lambda: self.track(1, False),
            "cli_track": self.cli_track,
            "cli_evaluate": self.cli_evaluate,
        }
        order = list(calls)
        spent = dict.fromkeys(order, 0.0)
        deadline = time.perf_counter() + seconds
        while True:
            behind = [c for c in order if len(self.samples[c]) < MIN_SAMPLES[c] or spent[c] < MIN_SECONDS]
            if not behind and time.perf_counter() >= deadline:
                return
            name = min(behind or order, key=lambda c: (spent[c], order.index(c)))
            t0 = time.perf_counter()
            self.attempt(name, calls[name])
            spent[name] += time.perf_counter() - t0

    def peak_rss_mb(self) -> float:
        """Peak resident memory (VmHWM) of a `mvtrack track` process on this
        workload; its output goes through the same gate. The kernel carries
        a forking parent's peak into the child's rusage, so the child reads
        its own."""
        out, hwm = self.dir / "child_out.txt", self.dir / "child_hwm.txt"
        argv = ["track", "--scenario", str(self.scn), "--models", str(self.mdl), "--out", str(out),
                *self.wl.track_flags(self.k, self.seed)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", CHILD, str(hwm), *argv], env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=300)
        self.attempt("cli_process", lambda: self.check_output(f"k{self.k}", out) if proc.returncode == 0
                     else [f"exit code {proc.returncode}: {proc.stderr.strip()}"])
        return int(hwm.read_text()) / 1024 if proc.returncode == 0 else 0.0

    def measure_traced(self, seconds: float) -> None:
        """Rounds of untraced track runs, for the tracing overhead and the
        measured speedup, then the same calls under the tracer."""
        deadline = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            self.attempt("track_k", lambda: self.track(self.k, False))
            self.attempt("track_k1", lambda: self.track(1, False))
            with self.tracer.patched():
                for probe, fn in (("track_k", lambda: self.track(self.k, True)),
                                  ("track_k1", lambda: self.track(1, True)),
                                  ("cli_track", self.cli_track), ("cli_evaluate", self.cli_evaluate)):
                    with self.tracer.probing(probe):
                        self.attempt(probe, fn)
            if time.perf_counter() + (time.perf_counter() - t0) > deadline:
                return


@contextlib.contextmanager
def capture(module, names):
    """Record the return value of module-level functions while inside."""
    got = {}
    saved = {name: getattr(module, name) for name in names}

    def recorder(name, fn):
        def wrapper(*args, **kwargs):
            got[name] = fn(*args, **kwargs)
            return got[name]

        return wrapper

    for name, fn in saved.items():
        setattr(module, name, recorder(name, fn))
    try:
        yield got
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def run_cli(main, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
    }


def prepare_inputs(wl, seed: int, workdir: Path) -> None:
    """Build the inputs in a child process and wait for it."""
    workdir.mkdir(parents=True)
    subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), "--workload", json.dumps(dataclasses.asdict(wl)),
         "--seed", str(seed), "--dir", str(workdir)],
        check=True, timeout=300,
    )


def run(wl, seed: int, seconds: float, trace: int, workdir: Path, results: Path) -> dict:
    """Prepare, measure and gate one workload; returns the full record.
    A traced run writes its spans into `results`.

    A timing is the fastest sample of the run (setup_s: the median): on a
    shared machine, interference only ever slows a call down.
    """
    from mvtrack.metrics import clear_mot
    from mvtrack.stream import read_motchallenge, rows_to_gt
    from tracing import PER_LAYER, Tracer, layer_metrics

    prepare_inputs(wl, seed, workdir)
    tracer = Tracer() if trace else None
    session = Session(wl, seed, workdir, tracer)
    session.warm_up()
    if trace:
        session.measure_traced(seconds)
    else:
        session.measure(seconds)
        peak_rss_mb = session.peak_rss_mb()

    s = session.samples
    n = session.scenario.n_frames
    problems = list(session.problems)
    if trace:
        gt = rows_to_gt(read_motchallenge(session.gt))
        k1_rows = [(f, i, b) for f, i, b, _ in read_motchallenge(workdir / "inproc_k1.txt")]
        runs = {
            "scenario_mb": session.scn.stat().st_size / 1e6,
            "fps": n / min(s["track_k"]),
            "fps_k1": n / min(s["track_k1"]),
            "fps_traced": n / min(s["track_k_traced"]),
            "untraced_timings": session.timings["track_k"],
            "traced_timings": session.timings["track_k_traced"],
            "traced_timings_k1": session.timings["track_k1_traced"],
            "hyp_tracks": session.accuracy.get("hyp_tracks", 0),
            "ids": session.accuracy.get("ids", 0),
            "ids_k1": clear_mot(gt, k1_rows).ids,
        }
        metrics, span_problems = layer_metrics(tracer, session.k, n, runs)
        problems += span_problems
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        tracer.write(results / f"{wl.name}-seed{seed}.spans.jsonl.gz")
    else:
        metrics = {
            "fps": n / min(s["track_k"]),
            "fps_k1": n / min(s["track_k1"]),
            "e2e_s": min(s["cli_track"]),
            "setup_s": statistics.median(s["setup"]),
            "evaluate_s": min(s["cli_evaluate"]),
            "peak_rss_mb": peak_rss_mb,
            # output that evaluate cannot score scores 0 (and has failed the gate)
            "mota": float(session.accuracy.get("mota", 0.0)),
            "idf1": float(session.accuracy.get("idf1", 0.0)),
            "pass_rate": 1.0 - session.failed / session.attempted,
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    return {
        "workload": wl.name, "seed": seed, "trace": trace,
        "correct": not problems, "attempted": session.attempted, "failed": session.failed,
        "problems": problems,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "samples": dict(s),
        "output_sha256": session.digests,
        "accuracy": session.accuracy,
        "machine": machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mvtrack benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "mvtrack" / "__init__.py").is_file():
        print(f"error: mvtrack sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        record = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, workdir, results)
    except (KeyError, ValueError) as exc:
        # min() of no samples, or a missing accuracy value: every call of it failed
        print(f"error: no result, a measured call never succeeded ({exc!r})", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    for problem in record["problems"]:
        print(f"problem: {problem}")
    for name, m in record["metrics"].items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    print("samples " + ", ".join(f"{k} {len(v)}" for k, v in record["samples"].items()))
    print(f"output sha256 {record['output_sha256']}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
