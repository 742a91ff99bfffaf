"""No ldplab module imports an underscore-prefixed name from another."""

import ast
from pathlib import Path

import ldplab

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
