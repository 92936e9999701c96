"""The exception taxonomy stays in use: every error class in
pafix.errors, apart from the three family roots, is raised somewhere in
the package, so no class promises a check that nothing makes."""

import ast
import pathlib

import pafix
from pafix import errors

ROOTS = {"PafixError", "InputError", "InternalCheckError"}
SRC = pathlib.Path(pafix.__file__).parent


def _raised_names():
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    tree = ast.parse(pathlib.Path(errors.__file__).read_text())
    classes = {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
    assert classes - ROOTS, "errors.py defines no leaf classes"
    assert sorted(classes - ROOTS - _raised_names()) == []
