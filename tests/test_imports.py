"""Static rules on how ldplab modules import: no private names across
modules, no unused imports, one JSON reader and writer, typed raises, one
rule for thread pool sizes, and no scipy.stats or scipy.interpolate at
import time."""

import ast
import subprocess
import sys
from pathlib import Path

import ldplab
from ldplab import errors

PACKAGE = Path(ldplab.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
MODULE_NAMES = {p.stem for p in MODULES}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_uses(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0 or (node.module or "").split(".")[0] == "ldplab":
                for alias in node.names:
                    if _private(alias.name):
                        yield f"{path.name}:{node.lineno} imports {alias.name}"
        elif (isinstance(node, ast.Attribute) and _private(node.attr)
              and isinstance(node.value, ast.Name) and node.value.id in MODULE_NAMES):
            # module.attribute access after `from . import module`
            yield f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}"


def test_no_module_imports_a_private_name():
    assert len(MODULES) >= 9
    assert [hit for path in MODULES for hit in _private_uses(path)] == []


# `perfbench/tracing.py` patches `ldplab.configurations.least_squares`, so the
# import stays until the benchmark drops that patch.
UNUSED_IMPORTS_ALLOWED = {"configurations.least_squares"}


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for name, lineno in bound.items():
        if name not in used and f"{path.stem}.{name}" not in UNUSED_IMPORTS_ALLOWED:
            yield f"{path.name}:{lineno} imports {name} but never uses it"


def test_every_import_is_used():
    assert [hit for path in MODULES for hit in _unused_imports(path)] == []


def _references(path: Path):
    """(enclosing function, referenced name) for every name or module
    attribute a module reads, e.g. ("_json", "json.dumps")."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name):
                found.append((owner, child.id))
            elif isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
                found.append((owner, f"{child.value.id}.{child.attr}"))
            elif isinstance(child, ast.ImportFrom) and child.module == "json":
                found.extend((owner, f"json.{alias.name}") for alias in child.names)
            visit(child, owner)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_one_json_rule():
    # every document is written by the CLI writer, and every float in it
    # passes through json_float inside json_doc, so a new report field or
    # command cannot bring back a hand-applied rule
    refs = [(path.stem, owner, name) for path in MODULES
            for owner, name in _references(path)]
    writers = {(m, owner) for m, owner, name in refs
               if name in ("json.dump", "json.dumps")}
    assert writers == {("cli", "_json")}
    floats = {(m, owner) for m, owner, name in refs
              if name.split(".")[-1] == "json_float"}
    assert floats == {("verify", "json_doc")}


def test_json_is_read_in_one_place():
    # every config, law file, sidecar and inline matrix is parsed by the one
    # reader, which turns malformed JSON and non-UTF-8 bytes into DomainError
    refs = [(path.stem, owner, name) for path in MODULES
            for owner, name in _references(path)]
    readers = {(m, owner) for m, owner, name in refs
               if name in ("json.load", "json.loads")}
    assert readers == {("cli", "_load_json")}


TYPED_ERRORS = {name for name, obj in vars(errors).items()
                if isinstance(obj, type) and issubclass(obj, errors.LdpLabError)}


def _untyped_raises(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Raise) or node.exc is None:  # a bare re-raise
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if not (isinstance(exc, ast.Name) and exc.id in TYPED_ERRORS):
            yield f"{path.name}:{node.lineno} raises {ast.unparse(node.exc)}"


def test_every_raise_is_typed():
    # main() maps LdpLabError and OSError to exit codes; anything else
    # propagates as a bug, so the package itself raises only its own types
    assert [hit for path in MODULES for hit in _untyped_raises(path)] == []


def _pool_sizes(path: Path):
    """(line, whether the size is ``max_workers=worker_count(...)`` alone)
    for every ``ThreadPoolExecutor(...)`` call in a module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        if getattr(node.func, "id", getattr(node.func, "attr", None)) != "ThreadPoolExecutor":
            continue
        kw = node.keywords
        yield node.lineno, (not node.args and len(kw) == 1 and kw[0].arg == "max_workers"
                            and isinstance(kw[0].value, ast.Call)
                            and getattr(kw[0].value.func, "id", None) == "worker_count")


def test_every_thread_pool_is_sized_by_worker_count():
    # one rule (a whole number >= 1, or the CPU count) sets every pool size
    pools = [(path.name, line, ok) for path in MODULES for line, ok in _pool_sizes(path)]
    assert len(pools) >= 2
    assert [(name, line) for name, line, ok in pools if not ok] == []


# scipy.stats (the KS checks) and scipy.interpolate (the p-Gaussian CF
# spline) are imported inside the functions that use them, so a short
# process pays for neither unless it runs one of those functions
LAZY_MODULES = ("scipy.stats", "scipy.interpolate")


def test_importing_ldplab_leaves_heavy_scipy_modules_unloaded():
    names = ", ".join(f"'ldplab.{path.stem}'" for path in MODULES if path.stem != "__init__")
    code = (f"import importlib, sys\n"
            f"for name in ({names}):\n"
            f"    importlib.import_module(name)\n"
            f"print(sorted(m for m in {LAZY_MODULES!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent)
    assert out.stdout.strip() == "[]"
