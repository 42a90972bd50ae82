"""Every failure of the package is a malformed configuration (ConfigError,
exit 2) or a violated theorem hypothesis (PreconditionError, exit 3).  The
command line maps exactly these, so no other class may be defined or raised;
a dominance violation is a result, which the command line turns into exit 1."""

import ast
import builtins
import pathlib

import roundmoments

PACKAGE = pathlib.Path(roundmoments.__file__).parent

CLASSES = {"RoundMomentsError", "ConfigError", "PreconditionError"}
RAISED = {"ConfigError", "PreconditionError"}


def _nodes(kind):
    """(module, node) for each AST node of type ``kind`` in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, kind):
                yield path.stem, node


def _name(node) -> str:
    return node.id if isinstance(node, ast.Name) else ast.unparse(node)


def test_only_the_mapped_exception_classes_are_defined():
    bases = {node.name: {_name(b) for b in node.bases} for _, node in _nodes(ast.ClassDef)}
    exceptions = {n for n in dir(builtins) if isinstance(getattr(builtins, n), type)
                  and issubclass(getattr(builtins, n), BaseException)}
    # a class is an exception if one of its bases is, here or in builtins
    defined: set[str] = set()
    while True:
        more = {name for name, bs in bases.items() if bs & (exceptions | defined)} - defined
        if not more:
            break
        defined |= more
    assert defined == CLASSES


def test_every_raise_names_a_mapped_error():
    bad = []
    for module, node in _nodes(ast.Raise):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if exc is None or _name(exc) not in RAISED:
            bad.append(f"{module}:{node.lineno} raises {ast.unparse(node.exc) if node.exc else 'again'}")
    assert bad == []
