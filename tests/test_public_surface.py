"""Every name the package exports is used by code that runs, and the
package's modules import one another in layers.

A public name that only tests read belongs in the tests (as the references
in ``conftest.py`` do), not in ``ccpirl/__init__.py``. A name counts as used
when an ``ast.Name`` or ``ast.Attribute`` of it appears in the package
(outside ``__init__.py``), in ``demos/`` or in ``irlbench/`` (outside its
tests); imports and definitions do not count.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "ccpirl" / "__init__.py"


def _exported_names():
    names = set()
    for node in ast.parse(INIT.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _runtime_sources():
    for directory in ("src/ccpirl", "demos", "irlbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path != INIT and "tests" not in path.relative_to(ROOT).parts:
                yield path


def _used_names():
    used = set()
    for path in _runtime_sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_exported_name_is_used_outside_the_tests():
    unused = sorted(_exported_names() - _used_names())
    assert not unused, f"exported but used only by tests, if at all: {unused}"


def _imports(path):
    """(module imported, the function it is imported in or None) of every
    import in ``path``; a relative module is named by its last part."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import) or (isinstance(
                    child, ast.ImportFrom) and child.module is None):
                # import x, from . import x
                found.extend((alias.name, function) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                found.append((child.module, function))
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_metrics_is_a_leaf_and_only_splu_is_imported_lazily():
    package = ROOT / "src" / "ccpirl"
    metrics = {module for module, _ in _imports(package / "metrics.py")}
    assert not metrics & {"envs", "engine", "cli"}, metrics
    lazy = [(path.stem, module, function)
            for path in sorted(package.glob("*.py"))
            for module, function in _imports(path) if function is not None]
    assert lazy == [("hotzmiller", "scipy.sparse.linalg", "factorize")]
