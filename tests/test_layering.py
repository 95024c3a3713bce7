"""Ground truth reaches `mvtrack.motion` and `mvtrack.metrics` as rows or a
`MotTable`, so what a ground-truth row is stays a decision of `model` and
`stream`: neither module may import `mvtrack.stream`."""
import ast
from pathlib import Path

import pytest

import mvtrack

PACKAGE = Path(mvtrack.__file__).resolve().parent


def imported_modules(tree):
    """Each absolute module name an import in a package source file names:
    the module of `from X import a` and X.a, which may be a submodule."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["mvtrack" if node.level else "", node.module]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


@pytest.mark.parametrize("module", ["motion", "metrics"])
def test_module_does_not_import_stream(module):
    names = set(imported_modules(ast.parse((PACKAGE / f"{module}.py").read_text())))
    assert "mvtrack.model" in names  # the scan sees the package's relative imports
    assert not [name for name in names if name == "mvtrack.stream" or name.startswith("mvtrack.stream.")]
