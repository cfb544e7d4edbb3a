"""Per-layer tracing of kvertex from outside the package.

`install()` replaces selected public functions and methods of the kvertex
modules with wrappers that time each call while tracing is switched on.
Spans are aggregated in memory as they close (calls, total and self time
per span name); self time is a span's duration minus the time covered by
the spans it caused.  Nothing under src/ is modified: wrapping is done on
the imported module objects, and every kvertex.* module attribute that is
bound to a wrapped object (names imported with `from .x import y`, class
aliases such as `__rmul__ = __mul__`) is rebound to the same wrapper.

LaurentPoly *methods* are wrapped, never the private term kernels, so the
layer numbers keep their meaning when the kernel implementation changes.
Spans are timed with the wall clock (`perf_counter`, a fraction of the cost
of a thread CPU-time read, which matters at a million spans per run).
"""
from __future__ import annotations

import functools
import sys
import time

# (module, qualified name, span name).  A qualified name "Cls.meth" wraps
# the method on the class and every alias of it in the class namespace.
TARGETS = [
    ("scalars", "generalized_binomial", "scalars.binomial"),
    ("scalars", "Cyclo.make", "scalars.cyclo"),
    ("scalars", "Cyclo.lift", "scalars.cyclo"),
    ("scalars", "Cyclo.__add__", "scalars.cyclo"),
    ("scalars", "Cyclo.__sub__", "scalars.cyclo"),
    ("scalars", "Cyclo.__rsub__", "scalars.cyclo"),
    ("scalars", "Cyclo.__neg__", "scalars.cyclo"),
    ("scalars", "Cyclo.__mul__", "scalars.cyclo"),
    ("scalars", "Cyclo.inverse", "scalars.cyclo"),
    ("scalars", "Cyclo.__truediv__", "scalars.cyclo"),
    ("scalars", "Cyclo.__rtruediv__", "scalars.cyclo"),
    ("scalars", "Cyclo.__pow__", "scalars.cyclo"),
    ("laurent", "LaurentPoly.__mul__", "laurent.mul"),
    ("laurent", "LaurentPoly.__add__", "laurent.add"),
    ("laurent", "LaurentPoly.__sub__", "laurent.add"),
    ("laurent", "LaurentPoly.__rsub__", "laurent.add"),
    ("laurent", "LaurentPoly.__neg__", "laurent.add"),
    ("laurent", "LaurentPoly.rename", "laurent.other"),
    ("laurent", "LaurentPoly.subs_mono", "laurent.other"),
    ("laurent", "LaurentPoly.attach_degree", "laurent.other"),
    ("laurent", "LaurentPoly.split_var", "laurent.other"),
    ("laurent", "LaurentPoly.__eq__", "laurent.other"),
    ("laurent", "laurent_exact_div", "laurent.div"),
    ("laurent", "symmetrize", "laurent.symmetrize"),
    ("laurent", "PolyFraction.__add__", "laurent.frac"),
    ("laurent", "PolyFraction.__sub__", "laurent.frac"),
    ("laurent", "PolyFraction.__mul__", "laurent.frac"),
    ("laurent", "PolyFraction.__truediv__", "laurent.frac"),
    ("laurent", "PolyFraction.__eq__", "laurent.frac"),
    ("laurent", "PolyFraction.as_poly", "laurent.frac"),
    ("series", "expand_at", "series.expand"),
    ("series", "partial_fractions", "series.pfrac"),
    ("series", "split_poles", "series.other"),
    ("series", "RationalFunction.__add__", "series.other"),
    ("series", "RationalFunction.__mul__", "series.other"),
    ("series", "PartialFractions.coefficient_sum", "series.other"),
    ("residues", "residue_k", "residues.residue_k"),
    ("residues", "residue_k_oracle", "residues.oracle"),
    ("residues", "local_residue_at_root", "residues.local"),
    ("residues", "diagonal_w_side_residue", "residues.diagonal"),
    ("residues", "diagonal_z_side_residues", "residues.diagonal"),
    ("residues", "residue_naive", "residues.other"),
    ("residues", "residue_coh", "residues.other"),
    ("residues", "residue", "residues.other"),
    ("residues", "iadic_valuation_at_least", "residues.other"),
    ("quiver", "vertex_kernel", "quiver.vertex"),
    ("quiver", "vertex_shuffle", "quiver.vertex"),
    ("quiver", "lie_bracket", "quiver.bracket"),
    ("quiver", "conner_floyd", "quiver.chern"),
    ("quiver", "wedge_minus_one", "quiver.chern"),
    ("quiver", "symmetrized_wedge", "quiver.chern"),
    ("quiver", "axiom_check", "quiver.axiom"),
    ("hopf", "star", "hopf"),
    ("hopf", "coproduct", "hopf"),
    ("hopf", "phi_pair", "hopf"),
    ("hopf", "pair_tensor", "hopf"),
    ("hopf", "chern_character", "hopf"),
    ("hopf", "to_numerical", "hopf"),
    ("hopf", "from_numerical", "hopf"),
    ("hopf", "translation_pairing", "hopf"),
    ("freelie", "LieElement.bracket", "freelie.bracket"),
    ("freelie", "LieElement.__add__", "freelie.other"),
    ("freelie", "LieElement.__sub__", "freelie.other"),
    ("freelie", "LieElement.__mul__", "freelie.other"),
    ("freelie", "LieElement.to_assoc", "freelie.other"),
    ("freelie", "bracket_basis", "freelie.other"),
    ("freelie", "bracket_word", "freelie.other"),
    ("wallcross", "forward_transform", "wallcross"),
    ("wallcross", "invert_transform", "wallcross"),
    ("wallcross", "master_identity_residual", "wallcross"),
    ("wallcross", "ordered_partitions", "wallcross"),
    ("wallcross", "parse_lie_text", "wallcross"),
    ("wallcross", "lie_to_text", "wallcross"),
    ("wallcross", "QuiverState.bracket", "wallcross"),
    ("exprparse", "parse_rational", "exprparse"),
    ("exprparse", "parse_laurent", "exprparse"),
    ("cli", "main", "cli"),
]


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Holds the aggregated spans and exact counters of one traced run."""

    def __init__(self):
        self.active = False
        self.stats: dict[str, SpanStats] = {}
        self.counts = {"laurent.mul_term_pairs": 0, "laurent.mul_terms_out": 0,
                       "laurent.max_terms": 0, "exprparse.chars": 0}
        self._stack: list[list[float]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, fn, span: str, counter=None):
        stats = self.stats.setdefault(span, SpanStats())
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stats.calls += 1
                stats.total_s += dur
                stats.self_s += dur - child[0]
                if stack:
                    stack[-1][0] += dur
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every target; returns self.  Call once per process, right
        after `import kvertex` and before anything binds kvertex names."""
        import kvertex.cli  # noqa: F401  (loads every submodule)
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "kvertex" or name.startswith("kvertex."))}
        for modname, qual, span in TARGETS:
            mod = modules[f"kvertex.{modname}"]
            counter = _COUNTERS.get(qual)
            if "." in qual:
                self._wrap_method(getattr(mod, qual.split(".")[0]), qual.split(".")[1],
                                  span, counter)
            else:
                original = getattr(mod, qual)
                wrapper = self.wrap(original, span, counter)
                for other in modules.values():
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, attr, wrapper)
        return self

    def _wrap_method(self, cls, name, span, counter):
        raw = cls.__dict__[name]
        is_static = isinstance(raw, staticmethod)
        func = raw.__func__ if is_static else raw
        wrapper = self.wrap(func, span, counter)
        for attr, value in list(vars(cls).items()):
            inner = value.__func__ if isinstance(value, staticmethod) else value
            if inner is func:
                setattr(cls, attr, staticmethod(wrapper) if is_static else wrapper)


def _count_mul(counts, args, result):
    if not hasattr(result, "terms"):
        return  # NotImplemented: the other operand's method does the product
    a, b = args
    counts["laurent.mul_term_pairs"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)
    n = len(result.terms)
    counts["laurent.mul_terms_out"] += n
    if n > counts["laurent.max_terms"]:
        counts["laurent.max_terms"] = n


def _count_add(counts, args, result):
    if hasattr(result, "terms"):
        n = len(result.terms)
        if n > counts["laurent.max_terms"]:
            counts["laurent.max_terms"] = n


def _count_parse(counts, args, result):
    counts["exprparse.chars"] += len(args[0])


_COUNTERS = {
    "LaurentPoly.__mul__": _count_mul,
    "LaurentPoly.__add__": _count_add,
    "LaurentPoly.__sub__": _count_add,
    "parse_rational": _count_parse,
    "parse_laurent": _count_parse,
}
