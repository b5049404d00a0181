import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chaoslab"


def _unused_imports(path: Path):
    """Names a module imports but never reads; __all__ entries count as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted(imported - used)


def _imported_modules(path: Path):
    """Top-level packages a module imports, by import or from-import."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nfrom math import pi, tau\n__all__ = ['tau']\nprint(os.sep)\n")
    assert _unused_imports(module) == ["pi"]


def test_no_unused_imports_in_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = {path.name: names for path in modules if (names := _unused_imports(path))}
    assert unused == {}


def test_import_scan_sees_mpmath(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nfrom mpmath.libmp import finf\nfrom . import errors\n")
    assert _imported_modules(module) == {"os", "mpmath"}


def test_only_intervals_imports_mpmath():
    # the rational power's large-term branch is the one mpmath use left
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if "mpmath" in _imported_modules(path)]
    assert importers == ["intervals.py"]
