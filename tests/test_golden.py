"""Pipeline outputs pinned byte for byte: for each map the count's
summary and records(), the oracle's records(), the Markov bound with its
crossing matrix and Perron interval, the section's records() and, per
section edge, the spanning rectangle's degree, placements, translation
and bounds.  A refactor that keeps behaviour must reproduce every string.

The negative-trace map [[-3,-1],[-2,-1]] has derivative -D, so its
regular fixed points have index +1: both counters find all 6 points,
|det(M - I)|, and the index sum equals L = 6.  The branches of two of
them come only from a meeting of a section edge and its image at the
marked point, so this entry also pins the rectangle solver's
vertex-meeting branches."""

import pytest

from pafix import fileio
from pafix.affine import torus_from_matrix
from pafix.fixcount import (
    count_fixed_points,
    markov_upper_bound,
    oracle_count_fixed_points,
)
from pafix.saddle import enumerate_saddles, is_veering_edge
from pafix.veering import annular_avoiding_f_section

# (row 0, row 1, power) -> reprs of the outputs
GOLDEN = {
    ((2, 1), (1, 1), 1): {
        "summary": (1, -1, -1),
        "records": "[('marked', 0, '0', '0', -1)]",
        "oracle": "[('marked', 0, '0', '0', -1)]",
        "bound": '(55, [[2, 0, 1], [1, 2, 0], [4, 1, 2]], (Fraction(125725990, 30575943), Fraction(265739637, 64574104)))',
        "section": "((0, '-1/5*g - 1/5', '-1/5*g + 4/5', ()), (0, '-2/5*g + 3/5', '-2/5*g + 3/5', ()), (0, '1/5*g - 4/5', '1/5*g + 1/5', ()))",
        "rects": [
            '(1, [(0, 1, (0, 0)), (0, 1, (2/5*g - 3/5, 2/5*g - 3/5))], None, (2/5*g - 3/5, 3/5*g - 2/5, 3/5*g - 7/5, 2/5*g - 3/5))',
            '(1, [(0, 1, (0, 0)), (0, 1, (-1/5*g - 1/5, -1/5*g + 4/5))], None, (0, 2/5*g - 3/5, 0, 2/5*g - 3/5))',
            '(1, [(0, 1, (0, 0)), (0, 1, (-2/5*g + 3/5, -2/5*g + 3/5)), (0, 1, (2/5*g - 3/5, 2/5*g - 3/5))], None, (2/5*g - 3/5, 1/5*g + 1/5, 1/5*g - 4/5, 2/5*g - 3/5))',
        ],
    },
    ((2, 1), (1, 1), 2): {
        "summary": (5, -5, -5),
        "records": "[('marked', 0, '0', '0', -1), ('regular', 0, '1/5*g - 1/5', '1/5*g - 2/5', -1), ('regular', 0, '2/5*g - 1/5', '2/5*g - 1', -1), ('regular', 0, '2/5*g - 2/5', '2/5*g - 4/5', -1), ('regular', 0, '1/5*g', '1/5*g - 3/5', -1)]",
        "oracle": "[('marked', 0, '0', '0', -1), ('regular', 0, '1/5*g - 1/5', '1/5*g - 2/5', -1), ('regular', 0, '2/5*g - 1/5', '2/5*g - 1', -1), ('regular', 0, '2/5*g - 2/5', '2/5*g - 4/5', -1), ('regular', 0, '1/5*g', '1/5*g - 3/5', -1)]",
        "bound": '(109, [[4, 1, 2], [4, 4, 1], [9, 4, 4]], (Fraction(9700421278816, 994371534535), Fraction(8822665065539, 904394187587)))',
        "section": "((0, '-1/5*g - 1/5', '-1/5*g + 4/5', ()), (0, '-2/5*g + 3/5', '-2/5*g + 3/5', ()), (0, '1/5*g - 4/5', '1/5*g + 1/5', ()))",
        "rects": [
            '(1, [(0, 1, (0, 0)), (0, 1, (2/5*g - 3/5, 2/5*g - 3/5))], None, (2/5*g - 3/5, 3/5*g - 2/5, 3/5*g - 7/5, 2/5*g - 3/5))',
            '(1, [(0, 1, (0, 0)), (0, 1, (-1/5*g - 1/5, -1/5*g + 4/5))], None, (0, 2/5*g - 3/5, 0, 2/5*g - 3/5))',
            '(1, [(0, 1, (0, 0)), (0, 1, (-2/5*g + 3/5, -2/5*g + 3/5)), (0, 1, (2/5*g - 3/5, 2/5*g - 3/5))], None, (2/5*g - 3/5, 1/5*g + 1/5, 1/5*g - 4/5, 2/5*g - 3/5))',
        ],
    },
    ((2, 1), (1, 1), 3): {
        "summary": (16, -16, -16),
        "records": "[('marked', 0, '0', '0', -1), ('regular', 0, '1/10*g + 1/10', '1/10*g - 2/5', -1), ('regular', 0, '1/20*g + 1/20', '1/20*g - 1/5', -1), ('regular', 0, '3/20*g + 3/20', '3/20*g - 3/5', -1), ('regular', 0, '2/5*g - 1/10', '2/5*g - 11/10', -1), ('regular', 0, '1/2*g - 1/4', '1/2*g - 5/4', -1), ('regular', 0, '3/10*g + 1/20', '3/10*g - 19/20', -1), ('regular', 0, '3/20*g - 1/10', '3/20*g - 7/20', -1), ('regular', 0, '1/5*g - 1/20', '1/5*g - 11/20', -1), ('regular', 0, '1/4*g - 1/4', '1/4*g - 1/2', -1), ('regular', 0, '3/10*g - 1/5', '3/10*g - 7/10', -1), ('regular', 0, '7/20*g - 2/5', '7/20*g - 13/20', -1), ('regular', 0, '9/20*g - 3/10', '9/20*g - 21/20', -1), ('regular', 0, '7/20*g - 3/20', '7/20*g - 9/10', -1), ('regular', 0, '2/5*g - 7/20', '2/5*g - 17/20', -1), ('regular', 0, '1/4*g', '1/4*g - 3/4', -1)]",
        "oracle": "[('marked', 0, '0', '0', -1), ('regular', 0, '1/10*g + 1/10', '1/10*g - 2/5', -1), ('regular', 0, '1/20*g + 1/20', '1/20*g - 1/5', -1), ('regular', 0, '3/20*g + 3/20', '3/20*g - 3/5', -1), ('regular', 0, '2/5*g - 1/10', '2/5*g - 11/10', -1), ('regular', 0, '1/2*g - 1/4', '1/2*g - 5/4', -1), ('regular', 0, '3/10*g + 1/20', '3/10*g - 19/20', -1), ('regular', 0, '3/20*g - 1/10', '3/20*g - 7/20', -1), ('regular', 0, '1/5*g - 1/20', '1/5*g - 11/20', -1), ('regular', 0, '1/4*g - 1/4', '1/4*g - 1/2', -1), ('regular', 0, '3/10*g - 1/5', '3/10*g - 7/10', -1), ('regular', 0, '7/20*g - 2/5', '7/20*g - 13/20', -1), ('regular', 0, '9/20*g - 3/10', '9/20*g - 21/20', -1), ('regular', 0, '7/20*g - 3/20', '7/20*g - 9/10', -1), ('regular', 0, '2/5*g - 7/20', '2/5*g - 17/20', -1), ('regular', 0, '1/4*g', '1/4*g - 3/4', -1)]",
        "bound": '(244, [[9, 4, 4], [12, 9, 4], [22, 12, 9]], (Fraction(472100419692337, 19188240947193), Fraction(335277723587209, 13627163789721)))',
        "section": "((0, '-1/5*g - 1/5', '-1/5*g + 4/5', ()), (0, '-2/5*g + 3/5', '-2/5*g + 3/5', ()), (0, '1/5*g - 4/5', '1/5*g + 1/5', ()))",
        "rects": [
            '(1, [(0, 1, (0, 0)), (0, 1, (2/5*g - 3/5, 2/5*g - 3/5))], None, (2/5*g - 3/5, 3/5*g - 2/5, 3/5*g - 7/5, 2/5*g - 3/5))',
            '(1, [(0, 1, (0, 0)), (0, 1, (-1/5*g - 1/5, -1/5*g + 4/5))], None, (0, 2/5*g - 3/5, 0, 2/5*g - 3/5))',
            '(1, [(0, 1, (0, 0)), (0, 1, (-2/5*g + 3/5, -2/5*g + 3/5)), (0, 1, (2/5*g - 3/5, 2/5*g - 3/5))], None, (2/5*g - 3/5, 1/5*g + 1/5, 1/5*g - 4/5, 2/5*g - 3/5))',
        ],
    },
    ((3, 1), (2, 1), 1): {
        "summary": (2, -2, -2),
        "records": "[('marked', 0, '0', '0', -1), ('regular', 0, '1/12*g + 1/12', '1/12*g - 5/12', -1)]",
        "oracle": "[('marked', 0, '0', '0', -1), ('regular', 0, '1/12*g + 1/12', '1/12*g - 5/12', -1)]",
        "bound": '(82, [[3, 2, 0], [6, 4, 1], [2, 1, 2]], (Fraction(2014189265, 279043993), Fraction(1278920951, 177180328)))',
        "section": "((0, '-1/6*g - 1/6', '-1/6*g + 5/6', ()), (0, '-1/2', '1/2', ()), (0, '-1/6*g + 1/3', '-1/6*g + 1/3', ()))",
        "rects": [
            '(1, [(0, 1, (0, 0)), (0, 1, (1/6*g - 1/3, 1/6*g - 1/3))], None, (1/6*g - 1/3, 1/3*g - 1/6, 1/3*g - 7/6, 1/6*g - 1/3))',
            '(2, [(0, 1, (0, 0)), (0, 1, (-1/6*g + 1/3, -1/6*g + 1/3)), (0, 1, (1/6*g - 1/3, 1/6*g - 1/3))], (-1/6*g + 1/3, -1/6*g + 1/3), (1/6*g - 1/3, 1/6*g + 1/6, 1/6*g - 5/6, 1/6*g - 1/3))',
            '(1, [(0, 1, (0, 0)), (0, 1, (-1/6*g - 1/6, -1/6*g + 5/6))], None, (0, 1/6*g - 1/3, 0, 1/6*g - 1/3))',
        ],
    },
    ((-3, -1), (-2, -1), 1): {
        "summary": (6, 6, 6),
        "records": "[('marked', 0, '0', '0', 1), ('regular', 0, '1/12*g + 1/12', '1/12*g - 5/12', 1), ('regular', 0, '1/12*g - 1/12', '1/12*g - 1/4', 1), ('regular', 0, '1/4*g - 1/12', '1/4*g - 11/12', 1), ('regular', 0, '1/6*g - 1/6', '1/6*g - 1/2', 1), ('regular', 0, '1/6*g', '1/6*g - 2/3', 1)]",
        "oracle": "[('marked', 0, '0', '0', 1), ('regular', 0, '1/12*g + 1/12', '1/12*g - 5/12', 1), ('regular', 0, '1/12*g - 1/12', '1/12*g - 1/4', 1), ('regular', 0, '1/4*g - 1/12', '1/4*g - 11/12', 1), ('regular', 0, '1/6*g - 1/6', '1/6*g - 1/2', 1), ('regular', 0, '1/6*g', '1/6*g - 2/3', 1)]",
        "bound": '(82, [[3, 2, 0], [6, 4, 1], [2, 1, 2]], (Fraction(2014189265, 279043993), Fraction(1278920951, 177180328)))',
        "section": "((0, '-1/6*g - 1/6', '-1/6*g + 5/6', ()), (0, '-1/2', '1/2', ()), (0, '-1/6*g + 1/3', '-1/6*g + 1/3', ()))",
        "rects": [
            '(1, [(0, 1, (0, 0)), (0, 1, (1/6*g - 1/3, 1/6*g - 1/3))], None, (1/6*g - 1/3, 1/3*g - 1/6, 1/3*g - 7/6, 1/6*g - 1/3))',
            '(2, [(0, 1, (0, 0)), (0, 1, (-1/6*g + 1/3, -1/6*g + 1/3)), (0, 1, (1/6*g - 1/3, 1/6*g - 1/3))], (-1/6*g + 1/3, -1/6*g + 1/3), (1/6*g - 1/3, 1/6*g + 1/6, 1/6*g - 5/6, 1/6*g - 1/3))',
            '(1, [(0, 1, (0, 0)), (0, 1, (-1/6*g - 1/6, -1/6*g + 5/6))], None, (0, 1/6*g - 1/3, 0, 1/6*g - 1/3))',
        ],
    },
}

# Squares of maps other than cat, pinned while each power still swept its
# own section: a power now counts on its base's section, and these check
# it byte for byte.
GOLDEN_POWERS = {
    ((3, 1), (2, 1), 2): {
        "summary": (12, -12, -12),
        "records": "[('marked', 0, '0', '0', -1), ('regular', 0, '1/12*g + 1/12', '1/12*g - 5/12', -1), ('regular', 0, '1/4*g', '1/4*g - 1', -1), ('regular', 0, '1/12*g - 1/12', '1/12*g - 1/4', -1), ('regular', 0, '1/4*g - 1/12', '1/4*g - 11/12', -1), ('regular', 0, '1/6*g - 1/12', '1/6*g - 7/12', -1), ('regular', 0, '1/6*g - 1/4', '1/6*g - 5/12', -1), ('regular', 0, '1/4*g - 1/6', '1/4*g - 5/6', -1), ('regular', 0, '1/6*g - 1/6', '1/6*g - 1/2', -1), ('regular', 0, '1/12*g', '1/12*g - 1/3', -1), ('regular', 0, '1/6*g', '1/6*g - 2/3', -1), ('regular', 0, '1/6*g + 1/12', '1/6*g - 3/4', -1)]",
        "oracle": "[('marked', 0, '0', '0', -1), ('regular', 0, '1/12*g + 1/12', '1/12*g - 5/12', -1), ('regular', 0, '1/4*g', '1/4*g - 1', -1), ('regular', 0, '1/12*g - 1/12', '1/12*g - 1/4', -1), ('regular', 0, '1/4*g - 1/12', '1/4*g - 11/12', -1), ('regular', 0, '1/6*g - 1/12', '1/6*g - 7/12', -1), ('regular', 0, '1/6*g - 1/4', '1/6*g - 5/12', -1), ('regular', 0, '1/4*g - 1/6', '1/4*g - 5/6', -1), ('regular', 0, '1/6*g - 1/6', '1/6*g - 1/2', -1), ('regular', 0, '1/12*g', '1/12*g - 1/3', -1), ('regular', 0, '1/6*g', '1/6*g - 2/3', -1), ('regular', 0, '1/6*g + 1/12', '1/6*g - 3/4', -1)]",
        "bound": '(244, [[9, 6, 2], [20, 13, 6], [10, 6, 5]], (Fraction(464828782657929, 18624300246109), Fraction(393201473887889, 15754408031713)))',
        "section": "((0, '-1/6*g - 1/6', '-1/6*g + 5/6', ()), (0, '-1/2', '1/2', ()), (0, '-1/6*g + 1/3', '-1/6*g + 1/3', ()))",
        "rects": [
            '(1, [(0, 1, (0, 0)), (0, 1, (1/6*g - 1/3, 1/6*g - 1/3))], None, (1/6*g - 1/3, 1/3*g - 1/6, 1/3*g - 7/6, 1/6*g - 1/3))',
            '(2, [(0, 1, (0, 0)), (0, 1, (-1/6*g + 1/3, -1/6*g + 1/3)), (0, 1, (1/6*g - 1/3, 1/6*g - 1/3))], (-1/6*g + 1/3, -1/6*g + 1/3), (1/6*g - 1/3, 1/6*g + 1/6, 1/6*g - 5/6, 1/6*g - 1/3))',
            '(1, [(0, 1, (0, 0)), (0, 1, (-1/6*g - 1/6, -1/6*g + 5/6))], None, (0, 1/6*g - 1/3, 0, 1/6*g - 1/3))',
        ],
    },
    ((-3, -1), (-2, -1), 2): {
        "summary": (12, -12, -12),
        "records": "[('marked', 0, '0', '0', -1), ('regular', 0, '1/12*g + 1/12', '1/12*g - 5/12', -1), ('regular', 0, '1/4*g', '1/4*g - 1', -1), ('regular', 0, '1/12*g - 1/12', '1/12*g - 1/4', -1), ('regular', 0, '1/4*g - 1/12', '1/4*g - 11/12', -1), ('regular', 0, '1/6*g - 1/12', '1/6*g - 7/12', -1), ('regular', 0, '1/6*g - 1/4', '1/6*g - 5/12', -1), ('regular', 0, '1/4*g - 1/6', '1/4*g - 5/6', -1), ('regular', 0, '1/6*g - 1/6', '1/6*g - 1/2', -1), ('regular', 0, '1/12*g', '1/12*g - 1/3', -1), ('regular', 0, '1/6*g', '1/6*g - 2/3', -1), ('regular', 0, '1/6*g + 1/12', '1/6*g - 3/4', -1)]",
        "oracle": "[('marked', 0, '0', '0', -1), ('regular', 0, '1/12*g + 1/12', '1/12*g - 5/12', -1), ('regular', 0, '1/4*g', '1/4*g - 1', -1), ('regular', 0, '1/12*g - 1/12', '1/12*g - 1/4', -1), ('regular', 0, '1/4*g - 1/12', '1/4*g - 11/12', -1), ('regular', 0, '1/6*g - 1/12', '1/6*g - 7/12', -1), ('regular', 0, '1/6*g - 1/4', '1/6*g - 5/12', -1), ('regular', 0, '1/4*g - 1/6', '1/4*g - 5/6', -1), ('regular', 0, '1/6*g - 1/6', '1/6*g - 1/2', -1), ('regular', 0, '1/12*g', '1/12*g - 1/3', -1), ('regular', 0, '1/6*g', '1/6*g - 2/3', -1), ('regular', 0, '1/6*g + 1/12', '1/6*g - 3/4', -1)]",
        "bound": '(244, [[9, 6, 2], [20, 13, 6], [10, 6, 5]], (Fraction(464828782657929, 18624300246109), Fraction(393201473887889, 15754408031713)))',
        "section": "((0, '-1/6*g - 1/6', '-1/6*g + 5/6', ()), (0, '-1/2', '1/2', ()), (0, '-1/6*g + 1/3', '-1/6*g + 1/3', ()))",
        "rects": [
            '(1, [(0, 1, (0, 0)), (0, 1, (1/6*g - 1/3, 1/6*g - 1/3))], None, (1/6*g - 1/3, 1/3*g - 1/6, 1/3*g - 7/6, 1/6*g - 1/3))',
            '(2, [(0, 1, (0, 0)), (0, 1, (-1/6*g + 1/3, -1/6*g + 1/3)), (0, 1, (1/6*g - 1/3, 1/6*g - 1/3))], (-1/6*g + 1/3, -1/6*g + 1/3), (1/6*g - 1/3, 1/6*g + 1/6, 1/6*g - 5/6, 1/6*g - 1/3))',
            '(1, [(0, 1, (0, 0)), (0, 1, (-1/6*g - 1/6, -1/6*g + 5/6))], None, (0, 1/6*g - 1/3, 0, 1/6*g - 1/3))',
        ],
    },
}


@pytest.mark.parametrize("row0, row1, n",
                         sorted(GOLDEN) + sorted(GOLDEN_POWERS))
def test_pipeline_outputs_are_pinned(row0, row1, n):
    surface, f = torus_from_matrix([list(row0), list(row1)])
    g = f if n == 1 else f.power(n)
    rep = count_fixed_points(g)
    section = annular_avoiding_f_section(g)
    oracle = oracle_count_fixed_points(g, section)
    bound = markov_upper_bound(g)
    want = {**GOLDEN, **GOLDEN_POWERS}[(row0, row1, n)]
    assert (rep.total, rep.lefschetz, rep.index_sum) == want["summary"]
    assert repr(rep.records()) == want["records"]
    assert repr(oracle.records()) == want["oracle"]
    assert repr((bound.bound, bound.matrix, bound.perron_interval)) \
        == want["bound"]
    assert repr(section.records()) == want["section"]
    rects = [section.cache.rect(e) for e in section.edges]
    assert [repr((r.degree, r.placements, r.translation, r.bounds))
            for r in rects] == want["rects"]


def _reversed_pieces(text):
    """The fileio text with its piece entries (a ``piece`` line and the
    ``derivative`` line that may follow it) in reverse order."""
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("piece "))
    entries = []
    for line in lines[first:]:
        if line.startswith("piece "):
            entries.append([line])
        else:
            entries[-1].append(line)
    return "\n".join(lines[:first] + [l for e in reversed(entries) for l in e]) + "\n"


def test_loaded_map_outputs_are_pinned():
    """Cat f² read back from file text is a materialised 16-piece map; it
    counts as the lazy power, which iterates its base, does."""
    surface, f = torus_from_matrix([[2, 1], [1, 1]])
    lazy = f.power(2)
    _, loaded = fileio.loads(_reversed_pieces(fileio.dumps(surface, lazy)))
    assert len(loaded.pieces) == 16
    rep = count_fixed_points(loaded)
    want = GOLDEN[((2, 1), (1, 1), 2)]
    assert (rep.total, rep.lefschetz, rep.index_sum) == want["summary"]
    assert repr(rep.records()) == want["records"]
    lazy_rep = count_fixed_points(lazy)
    assert (lazy_rep.total, lazy_rep.lefschetz, lazy_rep.index_sum) \
        == (rep.total, rep.lefschetz, rep.index_sum)
    assert repr(lazy_rep.records()) == repr(rep.records())


# Spanning rectangles of the veering edges of the cat torus with
# |holonomy| <= 4 whose unfolding reaches six or more placements, keyed by
# the edge's record(): the placements list keeps the search's
# first-reached order, which a breadth-first search would change.
GOLDEN_RECTS = {
    (0, '-7/5*g + 3/5', '-7/5*g + 18/5', ((0, 1), (0, 2), (0, 1))):
        '(1, [(0, 1, (0, 0)), (0, 1, (-1/5*g - 1/5, -1/5*g + 4/5)), (0, 1, (-3/5*g + 2/5, -3/5*g + 7/5)), (0, 1, (-4/5*g + 1/5, -4/5*g + 11/5)), (0, 1, (-g, -g + 3)), (0, 1, (1/5*g + 1/5, 1/5*g - 4/5))], None, (-4/5*g + 1/5, 3/5*g - 2/5, -4/5*g + 11/5, 3/5*g - 7/5))',
    (0, '4/5*g - 11/5', '4/5*g - 1/5', ((0, 0), (0, 1), (0, 0))):
        '(1, [(0, 1, (0, 0)), (0, 1, (2/5*g - 3/5, 2/5*g - 3/5)), (0, 1, (1/5*g - 4/5, 1/5*g + 1/5)), (0, 1, (3/5*g - 7/5, 3/5*g - 2/5)), (0, 1, (g - 2, g - 1)), (0, 1, (-2/5*g + 3/5, -2/5*g + 3/5))], None, (g - 2, 1/5*g + 1/5, 1/5*g - 4/5, g - 1))',
    (0, '-7/5*g + 18/5', '-7/5*g + 3/5', ((0, 2), (0, 3), (0, 2), (0, 2), (0, 3), (0, 2))):
        '(1, [(0, 1, (0, 0)), (0, 1, (-2/5*g + 3/5, -2/5*g + 3/5)), (0, 1, (-1/5*g + 4/5, -1/5*g - 1/5)), (0, 1, (-3/5*g + 7/5, -3/5*g + 2/5)), (0, 1, (-g + 2, -g + 1)), (0, 1, (-4/5*g + 11/5, -4/5*g + 1/5)), (0, 1, (-6/5*g + 14/5, -6/5*g + 4/5)), (0, 1, (-g + 3, -g)), (0, 1, (-1/5*g - 1/5, -1/5*g + 4/5))], None, (-g + 3, 2/5*g - 3/5, -g, 2/5*g - 3/5))',
    (0, '7/5*g - 18/5', '7/5*g - 3/5', ((0, 0), (0, 1), (0, 0), (0, 0), (0, 1), (0, 0))):
        '(1, [(0, 1, (0, 0)), (0, 1, (2/5*g - 3/5, 2/5*g - 3/5)), (0, 1, (1/5*g - 4/5, 1/5*g + 1/5)), (0, 1, (3/5*g - 7/5, 3/5*g - 2/5)), (0, 1, (g - 2, g - 1)), (0, 1, (4/5*g - 11/5, 4/5*g - 1/5)), (0, 1, (6/5*g - 14/5, 6/5*g - 4/5)), (0, 1, (g - 3, g)), (0, 1, (1/5*g + 1/5, 1/5*g - 4/5))], None, (1/5*g + 1/5, 8/5*g - 17/5, 1/5*g - 4/5, 8/5*g - 7/5))',
    (0, '-4/5*g + 11/5', '-4/5*g + 1/5', ((0, 2), (0, 3), (0, 2))):
        '(1, [(0, 1, (0, 0)), (0, 1, (-2/5*g + 3/5, -2/5*g + 3/5)), (0, 1, (-1/5*g + 4/5, -1/5*g - 1/5)), (0, 1, (-3/5*g + 7/5, -3/5*g + 2/5)), (0, 1, (-g + 2, -g + 1)), (0, 1, (2/5*g - 3/5, 2/5*g - 3/5))], None, (2/5*g - 3/5, -2/5*g + 8/5, -2/5*g - 2/5, 2/5*g - 3/5))',
    (0, '7/5*g - 3/5', '7/5*g - 18/5', ((0, 3), (0, 0), (0, 3))):
        '(1, [(0, 1, (0, 0)), (0, 1, (1/5*g + 1/5, 1/5*g - 4/5)), (0, 1, (3/5*g - 2/5, 3/5*g - 7/5)), (0, 1, (4/5*g - 1/5, 4/5*g - 11/5)), (0, 1, (g, g - 3)), (0, 1, (-1/5*g - 1/5, -1/5*g + 4/5))], None, (0, 7/5*g - 3/5, 0, 7/5*g - 18/5))',
}


def test_large_rectangle_placements_are_pinned():
    surface, f = torus_from_matrix([[2, 1], [1, 1]])
    got = {}
    for sc in enumerate_saddles(surface, 4, 4):
        if sc.record() in GOLDEN_RECTS:
            r = is_veering_edge(sc)
            got[sc.record()] = repr(
                (r.degree, r.placements, r.translation, r.bounds))
    assert got == GOLDEN_RECTS
