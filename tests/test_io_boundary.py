"""The command line is the package's one input/output boundary: no other
module prints, opens a file or names standard output or error, and within
``cli`` only ``_emit`` writes standard output."""

import ast
import pathlib

import roundmoments

PACKAGE = pathlib.Path(roundmoments.__file__).parent


def _io_uses(module: str):
    """(enclosing top-level definition or None, what) for each ``print``,
    ``open``, ``sys.stdout`` and ``sys.stderr`` in ``module``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for top in tree.body:
        where = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("print", "open"):
                to = next((ast.unparse(k.value) for k in node.keywords if k.arg == "file"), "sys.stdout")
                yield where, "open" if node.func.id == "open" else f"print to {to}"
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "sys" and node.attr in ("stdout", "stderr")):
                yield where, f"sys.{node.attr}"


def test_only_cli_reads_or_writes():
    bad = [
        f"{module}: {what} in {where}"
        for module in sorted(p.stem for p in PACKAGE.glob("*.py")) if module != "cli"
        for where, what in _io_uses(module)
    ]
    assert bad == []


def test_only_emit_writes_standard_output():
    uses = list(_io_uses("cli"))
    bad = [f"{what} in {where}" for where, what in uses if "stdout" in what and where != "_emit"]
    assert bad == []
    assert ("_emit", "sys.stdout") in uses
