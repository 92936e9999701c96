"""Every name a pafix module imports is read there or exported, and every
private (underscore) function, class, method or module-level constant
that pafix defines is read somewhere in pafix; no module but exactnum
reads the quadratic constants or imports the quadratic closed forms; no
function but geom.float_box and saddle._floor_ratio reads
FieldElement.float_bounds; and every crossing goes through the one
crossing memo, EdgeCache.motions."""

import ast
import importlib
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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def test_no_private_helper_is_orphaned():
    # a private function, class, method or module-level constant
    # (_NAME = ...) counts as read wherever pafix loads it: as a plain
    # name, or as an attribute (self._helper, module._helper); assigning
    # a name is not reading it
    src = pathlib.Path(pafix.__file__).parent
    defined = set()
    read = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and _private(name.id):
                            defined.add((path.stem, name.id))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if _private(node.name):
                    defined.add((path.stem, node.name))
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted((m, n) for m, n in defined if n not in read) == []


def test_only_exactnum_chooses_arithmetic_by_degree():
    # the field's degree picks its numerator primitives once, in exactnum;
    # a module that read the quadratic constants or called the quadratic
    # closed forms itself would split a predicate into two bodies again
    src = pathlib.Path(pafix.__file__).parent
    leaks = set()
    for path in sorted(src.glob("*.py")):
        if path.stem == "exactnum":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_quad":
                leaks.add((path.stem, "_quad"))
            elif isinstance(node, ast.ImportFrom):
                leaks |= {(path.stem, alias.name) for alias in node.names
                          if alias.name in ("quad_sign", "quad_quotient")}
    assert leaks == set()


def test_only_the_box_prefilter_and_the_floor_seed_read_float_bounds():
    # every exact path decides by exact signs; a float prune that read the
    # cached float bounds again would bring back a second arithmetic, so
    # only geom.float_box and saddle._floor_ratio's seed may read them
    src = pathlib.Path(pafix.__file__).parent
    readers = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # the innermost function around each node: ast.walk reaches an
        # outer function before the functions nested in it
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        readers |= {(path.stem, owner.get(id(node)))
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and node.attr == "float_bounds"}
    assert readers == {("geom", "float_box"), ("saddle", "_floor_ratio")}


def test_every_crossing_goes_through_the_crossing_memo():
    # each unordered pair of geodesics is crossed once per surface only
    # if nothing in pafix crosses a pair beside the memo: EdgeCache.motions
    # alone calls saddle.crossing_motions, and intersection_number, which
    # calls it too, is called by nothing
    src = pathlib.Path(pafix.__file__).parent
    calls = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, owner):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                owner = owner + (node.name,)
            elif isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute)
                        else None)
                if name in ("crossing_motions", "intersection_number"):
                    calls.add((path.stem, ".".join(owner), name))
            for child in ast.iter_child_nodes(node):
                visit(child, owner)
        visit(tree, ())
    assert calls == {("veering", "EdgeCache.motions", "crossing_motions"),
                     ("saddle", "intersection_number", "crossing_motions")}


# every search budget whose overflow raises, by the module whose search
# reads it
BUDGETS = [
    ("affine", "_IMAGE_COVER_NODES"),
    ("saddle", "_VISIBILITY_NODES"),
    ("saddle", "_RECT_UNFOLD_NODES"),
    ("saddle", "_TRACE_CROSSINGS"),
    ("veering", "_SWEEP_CAP"),
    ("veering", "_BOX_DOUBLINGS"),
    ("exactnum", "_MAX_ROUNDS"),
]


def test_every_budget_overflow_names_its_budget():
    # an overflow error says which constant to raise: the module names the
    # budget in a string literal other than a docstring
    src = pathlib.Path(pafix.__file__).parent
    unnamed = []
    for module, budget in BUDGETS:
        tree = ast.parse((src / (module + ".py")).read_text(encoding="utf-8"))
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef,
                                           ast.FunctionDef))
                      and ast.get_docstring(node) is not None}
        assert isinstance(getattr(importlib.import_module("pafix." + module),
                                  budget), int)
        if not any(isinstance(node, ast.Constant)
                   and isinstance(node.value, str) and budget in node.value
                   and id(node) not in docstrings
                   for node in ast.walk(tree)):
            unnamed.append((module, budget))
    assert unnamed == []
