"""Outside-in tracer: timing wrappers around public ``ahmass`` functions.

Only a traced pass imports this module's :class:`Tracer` and installs
it; an untraced pass installs nothing, so tracing off costs nothing.

``install`` replaces every binding of each wrapped function: the
defining module's attribute, every ``from .x import f`` copy in the other
``ahmass`` modules and in the benchmark's own modules, and the class
attributes listed in :data:`TARGETS`.  Each wrapped call records a span
(name, start, end, parent) in flat arrays that are written out when the
pass ends.  A span's self time is its duration minus the time its child
spans cover; the time the tracer spends in its own counting hooks is
taken out of the enclosing span's self time as well.
"""

from __future__ import annotations

import sys
import time
from array import array
from fractions import Fraction

MARK = "__perfbench_wrapped__"

# (module, attribute, span name).  A span name of None marks a hot
# constructor that is only counted, not timed.
TARGETS = [
    ("poly", "ExactPoly.__mul__", "poly.mul"),
    ("poly", "ExactPoly.__rmul__", "poly.mul"),
    ("poly", "vanishes_on_sphere", "poly.vanishes_on_sphere"),
    ("poly", "sphere_restrict", "poly.sphere_restrict"),
    ("poly", "sphere_integral", "poly.sphere_integral"),
    ("gaussian", "GaussianRational.__init__", None),
    ("linalg", "Echelon.__init__", "linalg.echelon"),
    ("linalg", "signature_of_form", "linalg.signature_of_form"),
    ("linalg", "SpanSolver.__init__", "linalg.span_solver"),
    ("linalg", "SpanSolver.coordinates", "linalg.span_solver"),
    ("linalg", "SpanSolver.contains", "linalg.span_solver"),
    ("lorentz", "algebra_act_on_poly", "lorentz.algebra_act_on_poly"),
    ("lorentz", "act_on_poly", "lorentz.act_on_poly"),
    ("harmonic", "build_Hp", "harmonic.build_Hp"),
    ("harmonic", "signature_Hp", "harmonic.signature_Hp"),
    ("weyl", "algebra_action_sym2", "weyl.algebra_action_sym2"),
    ("weyl", "hw_vectors_sym2", "weyl.hw_vectors_sym2"),
    ("weyl", "linearized_riemann", "weyl.linearized_riemann"),
    ("weyl", "build_Wp", "weyl.build_Wp"),
    ("weyl", "signature_Wp", "weyl.signature_Wp"),
    ("weyl", "algebra_action_tensor4", "weyl.algebra_action_tensor4"),
    ("massaspect", "boost_action", "massaspect.boost_action"),
    ("massaspect", "rotation_action", "massaspect.rotation_action"),
    ("massaspect", "sphere_covariant_derivative", "massaspect.sphere_covariant_derivative"),
    ("massaspect", "SphereTensor.is_transverse", "massaspect.is_transverse"),
    ("massaspect", "SphereTensor.trace_sigma", "massaspect.trace_sigma"),
    ("massaspect", "transversalize", "massaspect.transversalize"),
    ("massaspect", "group_action_numeric", "massaspect.group_action_numeric"),
    ("quadrature", "sphere_nodes", "quadrature.sphere_nodes"),
    ("invariants", "conformal_mass", "invariants.conformal_mass"),
    ("invariants", "weyl_mass", "invariants.weyl_mass"),
    ("invariants", "weyl_mass_chiral", "invariants.weyl_mass_chiral"),
    ("invariants", "intertwining_density_residual", "invariants.intertwining_density_residual"),
    ("invariants", "check_equivariance_finite", "invariants.check_equivariance_finite"),
]

MASS_LAYERS = ("invariants.conformal_mass", "invariants.weyl_mass", "invariants.weyl_mass_chiral")

# The layers each workload is predicted to spend most of its time in.
DOMINANT = {
    "highest-weight": ("weyl.algebra_action_sym2", "linalg.echelon", "weyl.hw_vectors_sym2"),
    "aspect-calculus": ("poly.vanishes_on_sphere",),
    "mass-equivariance": MASS_LAYERS,
}


def coef_bits(c) -> int:
    """Largest bit length of a coefficient's numerator or denominator."""
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    if isinstance(c, int):
        return c.bit_length()
    return max(coef_bits(c.re), coef_bits(c.im))  # GaussianRational


def ahmass_modules():
    return [m for name, m in sys.modules.items() if name == "ahmass" or name.startswith("ahmass.")]


def bindings(modules):
    """(qualified name, object) for every module global and class attribute."""
    for mod in modules:
        for key, val in vars(mod).items():
            yield f"{mod.__name__}.{key}", val
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for attr, member in vars(val).items():
                    yield f"{mod.__name__}.{key}.{attr}", member


def wrapped_bindings(modules) -> list[str]:
    """Names in ``modules`` (and their classes) bound to a tracer wrapper."""
    return [name for name, val in bindings(modules) if getattr(val, MARK, False)]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []  # outermost calls only
        self._depth: list[int] = []
        # one entry per span
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.gaussian_new = [0]
        self.stats = {
            "mul_term_pairs": 0,
            "mul_coef_bits": 0,
            "vanish_true": 0,
            "ech_rows": 0,
            "ech_nnz_in": 0,
            "ech_rank": 0,
            "ech_nnz_pivot": 0,
            "ech_cols": 0,
            "ech_coef_bits": 0,
        }

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, fn, name: str, hook=None):
        """Return ``fn`` recording a span per call; ``hook(args, result)`` counts."""
        nid = self._id(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, self_s, incl_s, depth = self.calls, self.self_s, self.incl_s, self._depth
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            depth[nid] += 1
            ends.append(0.0)
            t0 = perf()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                ends[idx] = t1
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                depth[nid] -= 1
                if not depth[nid]:
                    incl_s[nid] += dur
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                h0 = perf()
                hook(args, result)
                if stack:
                    stack[-1][1] += perf() - h0
            return result

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn):
        cell = self.gaussian_new

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- counting hooks --------------------------------------------------

    def _mul_hook(self, args, result):
        a, b = args
        other = len(b.terms) if hasattr(b, "terms") else 1
        st = self.stats
        st["mul_term_pairs"] += len(a.terms) * other
        if result.terms:
            bits = max(coef_bits(c) for c in result.terms.values())
            if bits > st["mul_coef_bits"]:
                st["mul_coef_bits"] = bits

    def _vanish_hook(self, args, result):
        self.stats["vanish_true"] += bool(result)

    def _echelon_hook(self, args, result):
        ech, rows = args[0], args[1]
        st = self.stats
        nonempty = [r for r in rows if r]
        st["ech_rows"] += len(nonempty)
        st["ech_nnz_in"] += sum(len(r) for r in nonempty)
        st["ech_rank"] += len(ech.pivots)
        st["ech_nnz_pivot"] += sum(len(r) for _, r in ech.pivots)
        st["ech_cols"] += ech.ncols
        for _, r in ech.pivots:
            for c in r.values():
                b = coef_bits(c)
                if b > st["ech_coef_bits"]:
                    st["ech_coef_bits"] = b

    # -- installation ----------------------------------------------------

    def install(self, extra_modules=()) -> list[str]:
        """Wrap every target; return the bindings still holding an original."""
        hooks = {
            "poly.mul": self._mul_hook,
            "poly.vanishes_on_sphere": self._vanish_hook,
            "linalg.echelon": self._echelon_hook,
        }
        modules = ahmass_modules() + list(extra_modules)
        originals = []
        for mod_name, attr, span in TARGETS:
            mod = sys.modules[f"ahmass.{mod_name}"]
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            orig = vars(owner)[member]
            new = self._count(orig) if span is None else self.wrap(orig, span, hooks.get(span))
            originals.append(orig)
            setattr(owner, member, new)
            if not owner_name:
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, new)
        ids = {id(o) for o in originals}
        return [name for name, val in bindings(modules) if id(val) in ids]

    # -- results ---------------------------------------------------------

    def layer(self, name: str) -> tuple[int, float]:
        i = self._ids.get(name)
        return (0, 0.0) if i is None else (self.calls[i], self.self_s[i])

    def metrics(self, workload: str, wall_s: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        st = self.stats
        out = {}

        def span(name, calls=False, self_time=True):
            c, s = self.layer(name)
            if calls:
                out[f"{name}.calls"] = (c, "count")
            if self_time:
                out[f"{name}.self_s"] = (s, "s")

        span("poly.mul", calls=True)
        out["poly.mul.term_pairs"] = (st["mul_term_pairs"], "count")
        out["poly.mul.coef_bits_max"] = (st["mul_coef_bits"], "bits")
        span("poly.vanishes_on_sphere", calls=True)
        vc = self.layer("poly.vanishes_on_sphere")[0]
        out["poly.vanishes_on_sphere.true_frac"] = (st["vanish_true"] / vc if vc else 0.0, "ratio")
        span("poly.sphere_restrict", calls=True)
        span("poly.sphere_integral", calls=True)
        out["gaussian.new.calls"] = (self.gaussian_new[0], "count")
        span("linalg.echelon", calls=True)
        out["linalg.echelon.cols"] = (st["ech_cols"], "count")
        out["linalg.echelon.rank_ratio"] = (
            st["ech_rank"] / st["ech_rows"] if st["ech_rows"] else 0.0, "ratio")
        out["linalg.echelon.fill_ratio"] = (
            st["ech_nnz_pivot"] / st["ech_nnz_in"] if st["ech_nnz_in"] else 0.0, "ratio")
        out["linalg.coef_bits_max"] = (st["ech_coef_bits"], "bits")
        span("linalg.signature_of_form")
        span("linalg.span_solver")
        span("weyl.algebra_action_sym2", calls=True)
        for name in ("hw_vectors_sym2", "linearized_riemann", "build_Wp", "signature_Wp"):
            span(f"weyl.{name}")
        span("weyl.algebra_action_tensor4", calls=True)
        span("lorentz.algebra_act_on_poly", calls=True)
        span("lorentz.act_on_poly")
        span("harmonic.build_Hp")
        span("harmonic.signature_Hp")
        span("massaspect.boost_action", calls=True)
        span("massaspect.rotation_action")
        span("massaspect.sphere_covariant_derivative")
        span("massaspect.is_transverse", calls=True, self_time=False)
        span("massaspect.trace_sigma", calls=True)
        for name in ("massaspect.transversalize", "massaspect.group_action_numeric",
                     "quadrature.sphere_nodes"):
            span(name)
        for name in MASS_LAYERS:
            span(name, calls=True)
        span("invariants.intertwining_density_residual")
        span("invariants.check_equivariance_finite")
        group = DOMINANT[workload]
        out["trace.dominant_share"] = (self.inside(group) / wall_s, "ratio")
        out["trace.dominant_self_share"] = (sum(self.layer(n)[1] for n in group) / wall_s, "ratio")
        return out

    def inside(self, group) -> float:
        """Time spent inside any span of the named layers, nesting counted once."""
        ids = {self._ids[n] for n in group if n in self._ids}
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        within = bytearray(len(starts))
        total = 0.0
        for i in range(len(starts)):
            p = parents[i]
            if p >= 0 and within[p]:
                within[i] = 1
            elif names[i] in ids:
                within[i] = 1
                total += ends[i] - starts[i]
        return total

    def shares(self, wall_s: float, top: int = 14) -> list[tuple]:
        """(layer, calls, self_s, self share, inclusive share of wall_s), by self time."""
        rows = [(n, self.calls[i], self.self_s[i], self.self_s[i] / wall_s, self.incl_s[i] / wall_s)
                for i, n in enumerate(self.names)]
        rows.sort(key=lambda r: -r[2])
        return rows[:top]

    def dump(self, path: str):
        """Write every span as flat arrays (numpy .npz)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
