"""Exact fixed point counts on the eigen-coordinate torus of [[2,1],[1,1]]:
the rectangle counter against the clip-everything oracle, Lefschetz numbers
against 2 - tr(M^n), sandwich inequalities, and the Markov bound."""

import gc
import inspect
import os
import subprocess
import sys
import textwrap
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pafix import fixcount, linalg, saddle, veering
from pafix.affine import torus_from_matrix
from pafix.errors import (
    HorizontalOrVertical,
    InternalCheckError,
    LambdaNotExpanding,
    NotFixed,
    NotVeering,
)
from pafix.fixcount import (
    FixedPoint,
    _comb,
    _crossing_data,
    _edge_chain,
    count_fixed_points,
    fixed_point_index,
    fixed_points_in_rectangle,
    lefschetz_number,
    markov_upper_bound,
    max_edge,
    oracle_count_fixed_points,
)
from pafix.saddle import (
    SaddleConnection,
    _corner_for_ray,
    enumerate_saddles,
    intersection_number,
    is_veering_edge,
)
from pafix.veering import (
    annular_avoiding_f_section,
    apply_to_edge,
    edge_cache,
    f_section,
)

from surfbuild import octagon_surface, pillowcase, square_torus

# 2 - tr(M^n) for M = [[2,1],[1,1]]; all traces exceed 2 so the fixed
# point total is tr(M^n) - 2.
TRACES = {1: 3, 2: 7, 3: 18, 4: 47}


@pytest.fixture(scope="module")
def torus():
    surface, f = torus_from_matrix([[2, 1], [1, 1]])
    return surface, f, edge_cache(surface)


def _edge_from_lattice(surface, a, b):
    poly = surface.polygons[0]
    w1 = poly.vertices[1] - poly.vertices[0]
    w2 = poly.vertices[3] - poly.vertices[0]
    hol = w1.scale(a) + w2.scale(b)
    corner, _ = _corner_for_ray(surface, 0, 0, hol)
    return SaddleConnection.walk(surface, corner, hol)


def test_count_summaries_small_powers(torus):
    surface, f, cache = torus
    for n in (1, 2, 3):
        g = f if n == 1 else f.power(n)
        rep = count_fixed_points(g)
        total = TRACES[n] - 2
        assert rep.total == total
        assert rep.singular_count == 1
        assert rep.regular_count == total - 1
        assert rep.lefschetz == 2 - TRACES[n]
        assert rep.index_sum == rep.lefschetz
        assert rep.method == "fundamental"


def test_marked_point_is_the_only_fix_at_n1(torus):
    surface, f, cache = torus
    rep = count_fixed_points(f)
    (p,) = rep.points
    assert p.kind == "marked"
    assert p.index == -1
    rec = rep.records()[0]
    assert rec[0] == "marked" and rec[4] == -1
    assert fixed_point_index(p, f) == -1


def test_lefschetz_direct(torus):
    surface, f, cache = torus
    assert lefschetz_number(f) == -1
    assert lefschetz_number(f.power(2)) == -5


def _boundary(surface, chain):
    """The 0-chain of vertex classes bounding a 1-chain of polygon edges."""
    out = Counter()
    for (p, k), coeff in chain.items():
        n = len(surface.polygons[p])
        out[surface.corner_class[(p, (k + 1) % n)]] += coeff
        out[surface.corner_class[(p, k)]] -= coeff
    return out


@pytest.mark.parametrize("build, box, want", [
    (square_torus, 3, 32),
    (octagon_surface, 3, 64),
    (pillowcase, 2, 96),
    (lambda: torus_from_matrix([[2, 1], [1, 1]])[0], 3, 52),
], ids=["square_torus", "octagon", "pillowcase", "cat_torus"])
def test_comb_is_a_chain_from_start_to_end(build, box, want):
    # the comb runs from the start class to the end class, and a
    # connection and its reverse comb the two ways round polygons, so
    # their sum is a sum of polygon boundaries
    surface = build()
    cells = sorted(e for e, tr in surface.transitions.items()
                   if e < tr.target)
    boundaries = [
        [_edge_chain(surface, [(p, k) for k in range(len(poly))]).get(c, 0)
         for c in cells]
        for p, poly in enumerate(surface.polygons)]
    rank = len(linalg.rref(boundaries)[1])
    saddles = enumerate_saddles(surface, box, box)
    assert len(saddles) == want
    for sc in saddles:
        chain = _comb(sc)
        ends = _boundary(surface, chain)
        ends[surface.corner_class[sc.end_corner]] -= 1
        ends[sc.start_class] += 1
        assert not any(ends.values())
        back = _comb(sc.reverse())
        loop = [chain.get(c, 0) + back.get(c, 0) for c in cells]
        assert len(linalg.rref(boundaries + [loop])[1]) == rank


def test_oracle_agrees_on_exact_point_sets(torus):
    surface, f, cache = torus
    for n in (1, 2, 3):
        g = f if n == 1 else f.power(n)
        rep = count_fixed_points(g)
        oracle = oracle_count_fixed_points(g, f_section(g))
        assert oracle.method == "oracle"
        assert oracle.point_keys() == rep.point_keys()
        assert oracle.summary()[:4] == rep.summary()[:4]


def test_disjoint_image_gives_empty_rectangle_count(torus):
    surface, f, cache = torus
    section = annular_avoiding_f_section(f)
    for e in section.edges:
        image = apply_to_edge(f, e)
        assert intersection_number(e, image) == 0
        assert fixed_points_in_rectangle(f, e) == []


def test_rectangle_union_at_n2(torus):
    surface, f, cache = torus
    g = f.power(2)
    section = annular_avoiding_f_section(g)
    keys = set()
    for e in section.edges:
        pts = fixed_points_in_rectangle(g, e)
        i = intersection_number(e, apply_to_edge(g, e))
        assert len(pts) <= i
        for p in pts:
            assert p.kind == "regular" and p.index == -1
            keys.add(repr(p.key))
    assert len(keys) == 4


def test_sandwich_inequalities_in_holonomy_box(torus):
    surface, f, cache = torus
    g = f.power(2)
    checked = 0
    for sc in enumerate_saddles(surface, 3, 3):
        try:
            rect = is_veering_edge(sc)
        except HorizontalOrVertical:
            continue
        if rect is None:
            continue
        image = apply_to_edge(g, sc)
        i = intersection_number(sc, image)
        n = len(fixed_points_in_rectangle(g, sc))
        assert n <= i
        assert n * rect.degree >= i
        checked += 1
    assert checked == 14


def test_max_edge_tie_breaks_to_first(torus):
    surface, f, cache = torus
    g = f.power(2)
    section = annular_avoiding_f_section(g)
    e = max_edge(section, g)
    assert e == section.edges[0]
    assert intersection_number(e, apply_to_edge(g, e)) == 2


def test_crossing_data_matches_intersection_number(torus):
    surface, f, cache = torus
    g = f.power(2)
    section = annular_avoiding_f_section(g)
    for e in section.edges:
        image = apply_to_edge(g, e)
        assert len(_crossing_data(e, image)) == intersection_number(e, image)


def test_non_veering_edge_rejected(torus):
    surface, f, cache = torus
    sc = _edge_from_lattice(surface, 3, 1)
    assert is_veering_edge(sc) is None
    with pytest.raises(NotVeering):
        fixed_points_in_rectangle(f, sc)


def test_inverse_map_rejected_up_front(torus):
    # the inverse expands vertically; sections only track horizontal
    # expansion, so the count must refuse instead of sweeping forever
    surface, f, cache = torus
    with pytest.raises(LambdaNotExpanding):
        count_fixed_points(f.inverse())


def test_moving_point_has_no_index(torus):
    surface, f, cache = torus
    poly = surface.polygons[0]
    w1 = poly.vertices[1] - poly.vertices[0]
    w2 = poly.vertices[3] - poly.vertices[0]
    third = surface.field.rational(Fraction(1, 3))
    seventh = surface.field.rational(Fraction(1, 7))
    pos = w1.scale(third) + w2.scale(seventh)
    fake = FixedPoint(0, pos, "regular", -1, ("interior", "nowhere"))
    with pytest.raises(NotFixed):
        fixed_point_index(fake, f)


def _mat_power(m, n):
    (a, b), (c, d) = m
    p = ((1, 0), (0, 1))
    for _ in range(n):
        p = ((p[0][0] * a + p[0][1] * c, p[0][0] * b + p[0][1] * d),
             (p[1][0] * a + p[1][1] * c, p[1][0] * b + p[1][1] * d))
    return p


# hyperbolic SL(2, Z) matrices with entries in [-3, 3], both trace signs
_SMALL_HYPERBOLIC = [
    ((a, b), (c, d))
    for a in range(-3, 4) for b in range(-3, 4)
    for c in range(-3, 4) for d in range(-3, 4)
    if a * d - b * c == 1 and abs(a + d) > 2]


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.sampled_from(_SMALL_HYPERBOLIC), st.integers(1, 3))
def test_independent_checks_agree_for_both_trace_signs(m, n):
    # |det(M^n - I)| counts Fix(f^n) on the torus; Lefschetz is
    # det(I - M^n), and every index, +1 for a regular point under -D and
    # -1 under +D, must add up to it on both counters
    (p, q), (r, s) = _mat_power(m, n)
    want = abs((p - 1) * (s - 1) - q * r)
    surface, f = torus_from_matrix([list(row) for row in m])
    g = f if n == 1 else f.power(n)
    rep = count_fixed_points(g)
    oracle = oracle_count_fixed_points(g, annular_avoiding_f_section(g))
    assert rep.total == oracle.total == want == abs(rep.lefschetz)
    assert rep.lefschetz == (1 - p) * (1 - s) - q * r
    assert rep.index_sum == oracle.index_sum == rep.lefschetz
    assert oracle.point_keys() == rep.point_keys()
    for pt in rep.points:
        assert fixed_point_index(pt, g) == pt.index


def test_fixed_point_identity_and_order(torus):
    surface, f, cache = torus
    rep = count_fixed_points(f.power(2))
    pts = rep.points
    assert len(set(pts)) == len(pts)
    assert list(pts) == sorted(pts, key=lambda p: p.sort_key())
    again = count_fixed_points(f.power(2))
    assert again.point_keys() == rep.point_keys()


def test_markov_bound_dominates_total(torus):
    surface, f, cache = torus
    mb = markov_upper_bound(f)
    rep = count_fixed_points(f)
    assert mb.method == "rectangle"
    assert int(mb) == 55
    assert mb >= rep.total
    assert len(mb.matrix) == 3
    assert sum(mb.matrix[i][i] for i in range(3)) == 6
    assert all(v >= 0 for row in mb.matrix for v in row)


def test_markov_interval_clears_the_stretch_factor(torus):
    # the spanning rectangles overlap, so the crossing matrix counts some
    # orbits twice and its Perron root sits above lambda; the interval
    # must still be consistent and lie above lambda = (3 + sqrt 5)/2
    surface, f, cache = torus
    mb = markov_upper_bound(f)
    lo, hi = mb.perron_interval
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
    assert lo <= hi
    shifted = 2 * hi - 3
    assert shifted >= 0 and shifted * shifted >= 5


@pytest.mark.parametrize("rows, bound", [
    (((2, 1), (1, 1)), 10),
    (((3, 1), (2, 1)), 37),
])
def test_markov_crossing_trace_fallback_dominates_total(monkeypatch, rows,
                                                        bound):
    # with no pair budget the bound falls back to the crossing numbers of
    # each section edge with its image: 9 * chi * (sum + 1) + singularities
    monkeypatch.setattr(fixcount, "_PAIR_BUDGET", 0)
    surface, f = torus_from_matrix([list(r) for r in rows])
    mb = markov_upper_bound(f)
    assert mb.method == "crossing-trace"
    assert (mb.matrix, mb.perron_interval) == (None, None)
    assert int(mb) == bound
    assert mb >= count_fixed_points(f).total


@pytest.mark.parametrize("module, budget", [
    (saddle, "_RECT_UNFOLD_NODES"),
    (fixcount, "_COVER_CAP"),
    (fixcount, "_GERM_PROBES"),
])
def test_unfolding_overflow_names_its_budget(monkeypatch, module, budget):
    # the rectangle budget trips while the section is built, the cover
    # budget in the oracle's triangle covers; with no probe at all the
    # marked point's prong images stay unknown
    limit = 0 if budget == "_GERM_PROBES" else 1
    monkeypatch.setattr(module, budget, limit)
    surface, f = torus_from_matrix([[2, 1], [1, 1]])
    with pytest.raises(InternalCheckError, match="%s = %d " % (budget, limit)):
        oracle_count_fixed_points(f, annular_avoiding_f_section(f))


def test_count_oracle_and_bound_build_each_map_geometry_once(monkeypatch):
    built = []
    images = Counter()
    crossed = Counter()
    traced = []
    real_complete = veering.complete_to_section
    real_apply = veering.apply_to_edge
    real_meetings = veering._meetings
    real_trace = linalg.quotient_trace

    def complete(*args, **kwargs):
        built.append(args[0])
        return real_complete(*args, **kwargs)

    def apply(f, sc):
        images[(f, sc)] += 1
        return real_apply(f, sc)

    def meetings(a, b):
        cache = edge_cache(a.surface)
        crossed[frozenset((cache.canonical(a), cache.canonical(b)))] += 1
        return real_meetings(a, b)

    def quotient_trace(*args):
        traced.append(args)
        return real_trace(*args)

    monkeypatch.setattr(veering, "complete_to_section", complete)
    monkeypatch.setattr(veering, "apply_to_edge", apply)
    monkeypatch.setattr(veering, "_meetings", meetings)
    monkeypatch.setattr(linalg, "quotient_trace", quotient_trace)
    surface, f = torus_from_matrix([[2, 1], [1, 1]])
    maps = (f, f.power(2))
    for g in maps:
        rep = count_fixed_points(g)
        section = annular_avoiding_f_section(g)
        oracle = oracle_count_fixed_points(g, section)
        bound = markov_upper_bound(g)
        assert oracle.point_keys() == rep.point_keys()
        assert oracle.lefschetz == rep.lefschetz == g._lefschetz
        assert bound >= rep.total
        oriented = {sc for face in section.triangles for sc in face}
        assert oriented <= {sc for (h, sc) in images if h is g}
    assert len(built) == len(maps)
    assert set(images.values()) == {1}
    # one surface: each unordered pair of connections is crossed once,
    # whichever map, counter or orientation asks; the Lefschetz trace is
    # taken once per map, and the oracle reuses its L
    assert crossed and set(crossed.values()) == {1}
    assert len(traced) == len(maps)


def test_quadratic_fields_never_import_sympy():
    # sympy is needed only to test irreducibility in degree 4 and up;
    # loading, counting, the oracle and the bound on a quadratic field
    # must not import it
    code = textwrap.dedent("""
        import sys
        from pafix import fileio
        from pafix.affine import torus_from_matrix
        from pafix.fixcount import (count_fixed_points, markov_upper_bound,
                                    oracle_count_fixed_points)
        from pafix.veering import annular_avoiding_f_section

        surface, f = torus_from_matrix([[2, 1], [1, 1]])
        text = fileio.dumps(surface, f.power(2))
        maps = [f.power(2), fileio.loads(text)[1],
                torus_from_matrix([[-3, -1], [-2, -1]])[1]]
        for g in maps:
            count_fixed_points(g)
            oracle_count_fixed_points(g, annular_avoiding_f_section(g))
            markov_upper_bound(g)
        assert "sympy" not in sys.modules, "sympy was imported"
    """)
    src = os.path.dirname(os.path.dirname(fixcount.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_counted_map_is_collected():
    surface, f = torus_from_matrix([[2, 1], [1, 1]])
    count_fixed_points(f)
    oracle_count_fixed_points(f, annular_avoiding_f_section(f))
    markov_upper_bound(f)
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


def test_power_map_is_collected_while_its_surface_is_held():
    # the surface's edge cache outlives every map on it, so it must not
    # hold a map, its images or its section
    surface, f = torus_from_matrix([[2, 1], [1, 1]])
    g = f.power(2)
    count_fixed_points(g)
    oracle_count_fixed_points(g, annular_avoiding_f_section(g))
    markov_upper_bound(g)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
    assert edge_cache(surface).rects


def test_solved_maps_leave_no_reference_cycle():
    # the surface points at its edge cache weakly, so reference counting
    # alone frees a map's geometry when the map goes
    def solve():
        for m in ([[3, 1], [2, 1]], [[-2, -1], [-1, -1]]):
            _, f = torus_from_matrix(m)
            count_fixed_points(f)
            oracle_count_fixed_points(f, annular_avoiding_f_section(f))
            markov_upper_bound(f)

    solve()  # first use of every code path outside the measurement
    gc.collect()
    gc.disable()
    try:
        solve()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("module", [veering, fixcount])
def test_no_public_callable_takes_a_cache(module):
    # the surface owns its edge cache and the map its section, so no
    # caller passes either in
    for name in module.__all__:
        obj = getattr(module, name)
        if callable(obj):
            params = set(inspect.signature(obj).parameters)
            assert not params & {"cache", "threshold"}, name


# records(), total, Lefschetz number and index sum, pinned as produced by
# the tuple-of-Fractions field arithmetic; a change of representation must
# neither reorder the points (sorted by repr of their keys) nor reformat
# their coordinates
GOLDEN_RECORDS = {
    ((2, 1), (1, 1), 1): (1, -1, [
        ('marked', 0, '0', '0', -1),
    ]),
    ((2, 1), (1, 1), 2): (5, -5, [
        ('marked', 0, '0', '0', -1),
        ('regular', 0, '1/5*g - 1/5', '1/5*g - 2/5', -1),
        ('regular', 0, '2/5*g - 1/5', '2/5*g - 1', -1),
        ('regular', 0, '2/5*g - 2/5', '2/5*g - 4/5', -1),
        ('regular', 0, '1/5*g', '1/5*g - 3/5', -1),
    ]),
    ((2, 1), (1, 1), 3): (16, -16, [
        ('marked', 0, '0', '0', -1),
        ('regular', 0, '1/10*g + 1/10', '1/10*g - 2/5', -1),
        ('regular', 0, '1/20*g + 1/20', '1/20*g - 1/5', -1),
        ('regular', 0, '3/20*g + 3/20', '3/20*g - 3/5', -1),
        ('regular', 0, '2/5*g - 1/10', '2/5*g - 11/10', -1),
        ('regular', 0, '1/2*g - 1/4', '1/2*g - 5/4', -1),
        ('regular', 0, '3/10*g + 1/20', '3/10*g - 19/20', -1),
        ('regular', 0, '3/20*g - 1/10', '3/20*g - 7/20', -1),
        ('regular', 0, '1/5*g - 1/20', '1/5*g - 11/20', -1),
        ('regular', 0, '1/4*g - 1/4', '1/4*g - 1/2', -1),
        ('regular', 0, '3/10*g - 1/5', '3/10*g - 7/10', -1),
        ('regular', 0, '7/20*g - 2/5', '7/20*g - 13/20', -1),
        ('regular', 0, '9/20*g - 3/10', '9/20*g - 21/20', -1),
        ('regular', 0, '7/20*g - 3/20', '7/20*g - 9/10', -1),
        ('regular', 0, '2/5*g - 7/20', '2/5*g - 17/20', -1),
        ('regular', 0, '1/4*g', '1/4*g - 3/4', -1),
    ]),
    ((3, 1), (2, 1), 1): (2, -2, [
        ('marked', 0, '0', '0', -1),
        ('regular', 0, '1/12*g + 1/12', '1/12*g - 5/12', -1),
    ]),
}


@pytest.mark.parametrize("row0, row1, n", sorted(GOLDEN_RECORDS))
def test_golden_records(torus, row0, row1, n):
    if (row0, row1) == ((2, 1), (1, 1)):
        surface, f, cache = torus
    else:
        surface, f = torus_from_matrix([list(row0), list(row1)])
    g = f if n == 1 else f.power(n)
    rep = count_fixed_points(g)
    total, lefschetz, records = GOLDEN_RECORDS[(row0, row1, n)]
    assert repr(rep.records()) == repr(records)
    assert (rep.total, rep.lefschetz, rep.index_sum) == (total, lefschetz, lefschetz)
