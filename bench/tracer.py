"""Per-layer tracing by wrapping pafix functions from outside the package.

A Tracer replaces chosen functions and methods of the pafix modules with
wrappers while it is active and puts the originals back when it exits.
Every wrapper counts calls and raised exceptions.  Coarse calls are also
timed as spans: a span's inclusive time goes to its own name, and its
self time (inclusive time minus the time of timed calls nested inside it)
goes to its layer.  The hot arithmetic (field mul, inverse and sign,
orient, point location) is counted only, so that the wrappers' own cost
stays small next to the work they measure; the time of such calls stays
in the self time of the enclosing span.

Functions imported with ``from .x import y`` live on in the importing
module under the same object, so a function is patched in every loaded
pafix module that holds it, and a method under every class attribute
that aliases it (``__rmul__ = __mul__``).
"""

import functools
import sys
import time
from collections import Counter

# (module, attribute path, metric stem, timed).  The layer is the first
# part of the stem, named after the pafix module.
WRAPPED = (
    ("exactnum", "FieldElement.__mul__", "exactnum.mul", False),
    ("exactnum", "FieldElement.inverse", "exactnum.inverse", False),
    ("exactnum", "FieldElement.sign", "exactnum.sign", False),
    ("exactnum", "RealNumberField.create", "exactnum.field", True),
    ("geom", "orient", "geom.orient", False),
    ("geom", "ConvexPolygon.contains", "geom.contains", False),
    ("geom", "segment_intersection", "geom.segment_intersection", False),
    ("geom", "ConvexPolygon.intersect", "geom.intersect", True),
    ("flatsurf", "FlatSurface.__init__", "flatsurf.surface", True),
    ("flatsurf", "FlatSurface.same_point", "flatsurf.same_point", False),
    ("flatsurf", "FlatSurface.canonical_point", "flatsurf.canonical_point", False),
    ("affine", "torus_from_matrix", "affine.torus_from_matrix", True),
    ("affine", "PiecewiseAffineMap.__init__", "affine.validate", True),
    ("affine", "PiecewiseAffineMap.compose_with", "affine.compose", True),
    ("affine", "PiecewiseAffineMap.piece_at", "affine.piece_at", False),
    ("saddle", "trace", "saddle.trace", False),
    ("saddle", "enumerate_saddles", "saddle.enumerate_saddles", True),
    ("saddle", "is_veering_edge", "saddle.is_veering_edge", True),
    ("saddle", "intersection_number", "saddle.intersection_number", True),
    ("veering", "EdgeCache.crossings", "veering.edgecache.crossings", False),
    ("veering", "complete_to_section", "veering.complete_to_section", True),
    ("veering", "f_section", "veering.f_section", True),
    ("veering", "annular_avoiding_f_section", "veering.section", True),
    ("veering", "apply_to_edge", "veering.apply_to_edge", False),
    # flip_up and flip_down wrap _flip, and the section sweeps call _flip
    # directly, so flips are counted there: a call that returns has built
    # a flip, a call that raises NotFlippable has not.
    ("veering", "_flip", "veering.flip", False),
    ("fixcount", "count_fixed_points", "fixcount.count", True),
    ("fixcount", "fixed_points_in_rectangle", "fixcount.rect", True),
    ("fixcount", "lefschetz_number", "fixcount.lefschetz", True),
    ("fixcount", "oracle_count_fixed_points", "fixcount.oracle", True),
    ("fixcount", "markov_upper_bound", "fixcount.bound", True),
    ("fileio", "loads", "fileio.loads", True),
    ("fileio", "dumps", "fileio.dumps", True),
)

LAYERS = ("exactnum", "geom", "flatsurf", "affine", "saddle", "veering",
          "fixcount", "fileio")


class Tracer:
    """Context manager that wraps the functions in WRAPPED.

    ``calls`` and ``raised`` count per stem, ``seconds`` holds inclusive
    span time per stem and ``self_seconds`` self time per layer.  The
    harness adds its own tallies (bytes read, pieces counted) to
    ``notes``."""

    def __init__(self):
        self.calls = Counter()
        self.raised = Counter()
        self.seconds = Counter()
        self.self_seconds = Counter()
        self.notes = Counter()
        self._stack = []
        self._active = Counter()
        self._patches = []

    def __enter__(self):
        for module, path, stem, timed in WRAPPED:
            self._wrap(module, path, stem, timed)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, module, path, stem, timed):
        mod = sys.modules["pafix." + module]
        layer = stem.split(".", 1)[0]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            func = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = self._make(func, stem, layer, timed)
            if isinstance(raw, classmethod):
                wrapper = classmethod(wrapper)
            for name, value in list(cls.__dict__.items()):
                if value is raw:
                    self._patches.append((cls, name, value))
                    setattr(cls, name, wrapper)
            return
        func = getattr(mod, path)
        wrapper = self._make(func, stem, layer, timed)
        for name, loaded in list(sys.modules.items()):
            if name != "pafix" and not name.startswith("pafix."):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is func:
                    self._patches.append((loaded, attr, value))
                    setattr(loaded, attr, wrapper)

    def _make(self, func, stem, layer, timed):
        calls, raised = self.calls, self.raised
        if not timed:
            @functools.wraps(func)
            def counted(*args, **kwargs):
                calls[stem] += 1
                try:
                    return func(*args, **kwargs)
                except BaseException:
                    raised[stem] += 1
                    raise
            return counted

        stack, active = self._stack, self._active
        seconds, self_seconds = self.seconds, self.self_seconds
        clock = time.perf_counter

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            calls[stem] += 1
            frame = [0.0]  # time of timed calls nested in this one
            stack.append(frame)
            active[stem] += 1
            start = clock()
            try:
                return func(*args, **kwargs)
            except BaseException:
                raised[stem] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                active[stem] -= 1
                if not active[stem]:  # recursion: count the outer call once
                    seconds[stem] += elapsed
                self_seconds[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
        return spanned


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass, by name."""
    c, s = tracer.calls, tracer.seconds
    crossings = c["veering.edgecache.crossings"]
    metrics = {
        "exactnum.mul.calls": c["exactnum.mul"],
        "exactnum.inverse.calls": c["exactnum.inverse"],
        "exactnum.sign.calls": c["exactnum.sign"],
        "geom.orient.calls": c["geom.orient"],
        "geom.contains.calls": c["geom.contains"],
        "geom.segment_intersection.calls": c["geom.segment_intersection"],
        "geom.intersect.calls": c["geom.intersect"],
        "flatsurf.same_point.calls": c["flatsurf.same_point"],
        "flatsurf.canonical_point.calls": c["flatsurf.canonical_point"],
        "affine.validate_s": s["affine.validate"],
        "affine.piece_at.calls": c["affine.piece_at"],
        "affine.pieces": tracer.notes["affine.pieces"],
        "saddle.trace.calls": c["saddle.trace"],
        "saddle.enumerate_saddles_s": s["saddle.enumerate_saddles"],
        "saddle.is_veering_edge.calls": c["saddle.is_veering_edge"],
        "saddle.intersection_number.calls": c["saddle.intersection_number"],
        "veering.complete_to_section.calls": c["veering.complete_to_section"],
        "veering.section.calls": c["veering.section"],
        "veering.section_s": s["veering.section"],
        "veering.apply_to_edge.calls": c["veering.apply_to_edge"],
        "veering.flips": c["veering.flip"] - tracer.raised["veering.flip"],
        "veering.edgecache.cross_hit_ratio":
            1 - c["saddle.intersection_number"] / crossings if crossings else 0.0,
        "fixcount.rect_s": s["fixcount.rect"],
        "fixcount.lefschetz_s": s["fixcount.lefschetz"],
        "fileio.loads.calls": c["fileio.loads"],
        "fileio.loads_s": s["fileio.loads"],
        "fileio.dumps_s": s["fileio.dumps"],
        "fileio.bytes": tracer.notes["fileio.bytes"],
    }
    for layer in LAYERS:
        metrics[layer + ".self_s"] = tracer.self_seconds[layer]
    return metrics
