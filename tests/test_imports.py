import ast
import functools
import importlib
import types
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


def _unread_private_names(paths):
    """module:name for each module-level private name (_x, not __x) that
    the modules in paths define and none of them reads: as a loaded name,
    an attribute or a from-import."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    unread = []
    for path, tree in trees.items():
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        unread += [f"{path.stem}:{name}" for name in sorted(defined - read)
                   if name.startswith("_") and not name.startswith("__")]
    return unread


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


def test_scan_sees_an_unread_private_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("_KEPT, _LOST = 1, 2\n__version__ = '0'\n_cache: dict = {}\n"
                      "def _helper():\n    return _KEPT\n"
                      "class _Box:\n    pass\n"
                      "def public():\n    return _Box, m._cache\n")
    assert _unread_private_names([module]) == ["m:_LOST", "m:_helper"]


def test_every_private_name_in_the_package_is_read():
    assert _unread_private_names(sorted(PACKAGE.glob("*.py"))) == []


def _readers(paths, names):
    """{module: sorted names} for each module in paths that reads any of
    names: as a loaded name, an attribute or a from-import."""
    found = {}
    for path in paths:
        read = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
        if read & set(names):
            found[path.stem] = sorted(read & set(names))
    return found


def test_reader_scan_sees_each_way_of_reading(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from .coeffspace import _Pointwise\nimport coeffspace\n"
                      "def f(a):\n    _unrolled = 1\n    return coeffspace._unrolled(a)\n")
    other = tmp_path / "n.py"
    other.write_text("_Pointwise = None\n")
    assert _readers([module, other], ("_Pointwise", "_unrolled")) == {"m": ["_Pointwise", "_unrolled"]}


def test_only_coeffspace_reads_the_difference_layout():
    # a - b is read into kept terms by coeffspace.truncate alone, so the
    # index-by-index difference and the unrolled layout stay behind it
    readers = _readers(sorted(PACKAGE.glob("*.py")), ("_Pointwise", "_unrolled"))
    assert readers == {"coeffspace": ["_Pointwise", "_unrolled"]}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_scope(func):
    """The nodes of func's body outside every function, lambda and class
    nested in it (each of those nodes is yielded, not entered)."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _unread_locals(path: Path):
    """module.function:name for each local name a function binds (by an
    assignment, a loop, with, except, an import or a nested def or class)
    and never reads, in its own body or in a scope nested in it.  Names
    declared global or nonlocal, and _-prefixed names, are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound, declared = set(), set()
        for node in _own_scope(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        read = {n.id for n in ast.walk(func) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{path.stem}.{func.name}:{name}" for name in sorted(bound - read - declared)
                   if not name.startswith("_")]
    return unread


def test_scan_sees_an_unread_local(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def f(xs):\n    count = 0\n    lost, kept = xs\n    _, also = xs\n"
                      "    for x in xs:\n        count += x\n    try:\n        pass\n"
                      "    except ValueError as exc:\n        pass\n"
                      "    def inner():\n        return kept\n    return inner\n"
                      "def g():\n    global G\n    G = 1\n    total = 0\n"
                      "    return [total + y for y in range(3)]\n")
    assert _unread_locals(module) == ["m.f:also", "m.f:count", "m.f:exc", "m.f:lost"]


def test_no_unread_locals_in_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [name for path in modules for name in _unread_locals(path)] == []


def _cached_functions(tree):
    """The functions in tree decorated with lru_cache or cache, called or not,
    bare or through functools."""
    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    return [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(name(d) in ("lru_cache", "cache") for d in node.decorator_list)]


def _non_int_cache_params(path: Path):
    """function:parameter for each parameter of a cached function in path
    not annotated int: a cache keyed by Fractions hashes each one on every
    lookup, far slower than integers."""
    found = []
    for fn in _cached_functions(ast.parse(path.read_text(encoding="utf-8"))):
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        found += [f"{fn.name}:{p.arg}" for p in params
                  if not (isinstance(p.annotation, ast.Name) and p.annotation.id == "int")]
    return found


def test_cache_key_scan_sees_a_fraction_parameter(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import functools\nfrom functools import cache, lru_cache\n"
                      "@lru_cache(maxsize=8)\ndef kept(n: int, d: int) -> int:\n    return n\n"
                      "@functools.lru_cache(maxsize=8)\ndef slow(q: Fraction, k: int):\n    return q\n"
                      "@cache\ndef bare(x, *rest: int):\n    return x\n"
                      "def plain(q: Fraction):\n    return q\n")
    assert _non_int_cache_params(module) == ["slow:q", "bare:x"]


def test_every_cache_in_the_package_is_keyed_by_integers():
    cached = {path.stem: [fn.name for fn in _cached_functions(ast.parse(path.read_text(encoding="utf-8")))]
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {"_tail_sum", "_separation_scan", "_zeta_cut"} <= set(cached["tailmath"])
    assert {"_gamma_pow", "_frac_tables", "_bernstein", "_antiderivative",
            "_factorial_weight"} <= set(cached["metrics"])
    assert {path.name: names for path in sorted(PACKAGE.glob("*.py"))
            if (names := _non_int_cache_params(path))} == {}


def test_import_scan_sees_mpmath(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nfrom mpmath.libmp import finf\nfrom . import errors\n")
    assert _imported_modules(module) == {"os", "mpmath"}


def test_only_intervals_imports_mpmath():
    # the rational power's large-term branch is the one mpmath use left
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if "mpmath" in _imported_modules(path)]
    assert importers == ["intervals.py"]


def _caches(module):
    """{name: maxsize} for the module's lru_cache functions."""
    return {name: f.cache_parameters()["maxsize"] for name, f in vars(module).items()
            if hasattr(f, "cache_parameters")}


def test_cache_scan_sees_an_unbounded_cache():
    module = types.ModuleType("m")
    module.kept = functools.lru_cache(maxsize=8)(abs)
    module.grows = functools.lru_cache(maxsize=None)(abs)
    module.also_grows = functools.cache(abs)
    assert _caches(module) == {"kept": 8, "grows": None, "also_grows": None}


def test_every_cache_in_the_package_is_bounded():
    # a long-running caller (a sweep, a server) must not grow memory
    # without bound through a module-level cache
    caches = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "chaoslab" if path.stem == "__init__" else f"chaoslab.{path.stem}"
        module = importlib.import_module(name)
        caches.update({f"{path.stem}:{f}": size for f, size in _caches(module).items()})
    assert {"tailmath:_tail_sum", "tailmath:_separation_scan", "tailmath:_zeta_cut",
            "metrics:_gamma_pow", "metrics:_bernstein", "metrics:_antiderivative",
            "metrics:_factorial_weight"} <= set(caches)
    assert [name for name, size in caches.items() if size is None] == []
