"""The package's modules import each other in one direction only:
grids -> rounding -> distributions -> {bounds | oracle} -> verify -> cli.
Oracles never see the bound engine they check."""

import ast
import pathlib

import roundmoments

PACKAGE = pathlib.Path(roundmoments.__file__).parent

# A module may import leaves and modules of a lower layer.  bounds and oracle
# share a layer, so neither may import the other.
LAYERS = {"grids": 0, "rounding": 1, "distributions": 2, "bounds": 3, "oracle": 3, "verify": 4, "cli": 5}
# Leaves may be imported from any layer and import only other leaves.
LEAVES = {"errors", "quadrature", "plotting"}
# The package entry points re-export the public names of every layer.
ENTRY_POINTS = {"__init__", "__main__"}


def _relative_imports(module: str):
    """(imported module, imported names) for each ``from .x import ...`` or
    ``from . import x`` in ``module``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1, f"{module} imports from outside the package"
            if node.module:
                yield node.module, [a.name for a in node.names]
            else:
                yield from ((a.name, []) for a in node.names)


def _modules():
    return sorted(p.stem for p in PACKAGE.glob("*.py"))


def test_every_module_has_a_place():
    placed = set(LAYERS) | LEAVES | ENTRY_POINTS
    assert set(_modules()) == placed


def test_layers_are_strictly_ordered():
    bad = []
    for module in _modules():
        if module in ENTRY_POINTS:
            continue
        for target, _ in _relative_imports(module):
            if target in LEAVES:
                ok = True
            elif module in LEAVES:
                ok = False
            else:
                ok = LAYERS[target] < LAYERS[module]
            if not ok:
                bad.append(f"{module} imports {target}")
    assert bad == []


def test_no_module_imports_another_modules_private_name():
    bad = [
        f"{module} imports {target}.{name}"
        for module in _modules()
        for target, names in _relative_imports(module)
        for name in names
        if name.startswith("_")
    ]
    assert bad == []
