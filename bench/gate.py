"""Correctness gate: the checks every solved map must pass."""


def check_map(expected, report, oracle=None, bound=None):
    """Problems with one map's answers, as messages; empty when correct.

    ``expected`` is |det(M^n - I)|.  ``report`` and ``oracle`` need
    ``total``, ``lefschetz`` and ``index_sum`` as on FixReport; ``bound``
    is anything ``int()`` accepts, such as a MarkovBound."""
    problems = []
    if report.total != expected:
        problems.append("total %d != |det(M^n - I)| %d" % (report.total, expected))
    if report.total != abs(report.lefschetz):
        problems.append("total %d != |L| %d" % (report.total, abs(report.lefschetz)))
    if report.index_sum != report.lefschetz:
        problems.append("index sum %d != L %d" % (report.index_sum, report.lefschetz))
    if oracle is not None and oracle.total != report.total:
        problems.append("oracle total %d != total %d" % (oracle.total, report.total))
    if bound is not None and int(bound) < report.total:
        problems.append("Markov bound %d < total %d" % (int(bound), report.total))
    return problems
