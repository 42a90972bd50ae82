"""The package's modules import each other in one direction only:
grids -> rounding -> distributions -> {bounds | oracle} -> verify -> cli.
Oracles never see the bound engine they check, one bound rule reads a
scheme's error-integral constants, and no module-level object is written
after import."""

import ast
import importlib
import pathlib

import numpy as np

import roundmoments
from roundmoments import FloatSystem, RoundingScheme, UniformMesh, make_normal, make_semicircle
from roundmoments.oracle import centered_moment_of_rounded, mc_rounded_moments, simulated_sum
from roundmoments.verify import offset_sweep, run_suite

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


def _calls(node, where=""):
    """(qualified name of the enclosing def or class, call) for each call
    under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _calls(child, f"{where}.{child.name}" if where else child.name)
            continue
        if isinstance(child, ast.Call):
            yield where, child
        yield from _calls(child, where)


def test_only_the_cell_rule_reads_the_error_integral_constants():
    # a scheme's c(k) and d(k) are read in one place, the per-cell rule
    # behind every error-integral bound; d itself is c for deterministic schemes
    allowed = {("bounds", "_cell_rule"), ("rounding", "RoundingScheme.d")}
    bad = [
        f"{module}.{where or '<module>'} calls .{call.func.attr}()"
        for module in _modules()
        for where, call in _calls(ast.parse((PACKAGE / f"{module}.py").read_text()))
        if isinstance(call.func, ast.Attribute) and call.func.attr in ("c", "d") and (module, where) not in allowed
    ]
    assert bad == []


def _absolute_imports(module: str):
    """The top-level package of each absolute import in ``module``."""
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_no_module_calls_foreign_code():
    # no module reaches into the C library through ctypes, so neither
    # importing the package nor running its command line sets anything for
    # the whole process
    bad = [f"{module} imports ctypes" for module in _modules() if "ctypes" in _absolute_imports(module)]
    assert bad == []


def _module_state() -> dict:
    """Each module-level name of each package module: the identity of its
    object, and the contents of a list, dict or set and the bytes of an array.
    A functools.cache wrapper of a pure function keeps its identity however
    much it holds, and dunder names (a warning registry) are the interpreter's."""
    def contents(obj):
        if isinstance(obj, np.ndarray):
            return obj.tobytes()
        if isinstance(obj, list):
            return [id(x) for x in obj]
        if isinstance(obj, dict):
            return {key: id(value) for key, value in obj.items()}
        return set(obj) if isinstance(obj, (set, frozenset)) else None

    modules = [importlib.import_module(f"roundmoments.{m}") for m in _modules() if m != "__main__"]
    return {(module.__name__, name): (id(obj), contents(obj))
            for module in modules for name, obj in vars(module).items() if not name.startswith("__")}


def test_no_module_state_after_use():
    # every call holds what it reuses on objects its caller passes, so no
    # module-level object is written after import
    before = _module_state()
    assert len({r.kind for r in run_suite(30, seed=0)}) == 9
    offset_sweep(make_normal(0.3, 1.0), 0.1, 2, RoundingScheme.STOCHASTIC)
    offset_sweep(make_semicircle(1.0), 0.1, 2, RoundingScheme.NEAREST)
    model, mesh = make_normal(0.3, 0.8), UniformMesh(0.1, 0.013)
    centered_moment_of_rounded(model, mesh, RoundingScheme.NEAREST, 3)
    mc_rounded_moments(model, mesh, RoundingScheme.STOCHASTIC, 3, 1000, seed=0)
    simulated_sum([model] * 3, FloatSystem(7, -12, 6), RoundingScheme.STOCHASTIC, 1000, seed=0)
    assert _module_state() == before
