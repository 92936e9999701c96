"""Every name a pafix module imports is read there or exported."""

import ast
import pathlib

import pafix

# fixcount imports veering.apply_to_edge without calling it, as a
# re-export: bench/tests/test_bench_harness.py reads fixcount.apply_to_edge.
EXEMPT = {("fixcount", "apply_to_edge")}


def _unread_imports(path: pathlib.Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    # an attribute chain a.b.c reads its root a as a Name
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - read - exported


def test_no_module_imports_a_name_it_never_reads():
    src = pathlib.Path(pafix.__file__).parent
    unread = {(path.stem, name)
              for path in sorted(src.glob("*.py"))
              for name in _unread_imports(path)}
    assert unread == EXEMPT
