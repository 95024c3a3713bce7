"""The benchmark under perfbench/ looks mvtrack names up when it runs; each one
must resolve, so that moving or renaming one fails here rather than as a
failed benchmark run."""
import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# run.py reads MOTA, IDS and IDF1 by wrapping these two names in mvtrack.cli
CAPTURED = {("run.py", "mvtrack.cli", "clear_mot"), ("run.py", "mvtrack.cli", "idf1")}


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
