"""Hand-written expected answers for every benchmark check.

Nothing here is captured from a run of ``ahmass``.  Dimensions and
signatures are the paper's closed forms evaluated by hand:

* dim H_p = binom(p+n-2, p) (2p+n-1)/(n-1), signature
  (binom(p+n-1, n-1), binom(p+n-2, n-1));
* dim W_p = (n+1) binom(p+n, p+3) (p+1)(p+n+2)(2p+n+3) / (2(n-1)(p+n)),
  signature (n^2+(n+1)p+3, np+4n+p) * c/2 with
  c = (p+1)(p+n+2) binom(p+n, p+3) / ((n-1)(p+n)), larger count first.

Residuals are exact: zero at the family's weight, nonzero one weight off.
"""

from __future__ import annotations

from fractions import Fraction


class Zero:
    """An exact zero (or a tuple of exact zeros)."""

    def __call__(self, v):
        items = v if isinstance(v, tuple) else (v,)
        return all(isinstance(x, (int, Fraction)) and x == 0 for x in items)

    def __repr__(self):
        return "exactly 0"


class Nonzero:
    def __call__(self, v):
        return isinstance(v, (int, Fraction)) and v != 0

    def __repr__(self):
        return "nonzero"


class Below:
    def __init__(self, tol: float):
        self.tol = tol

    def __call__(self, v):
        return isinstance(v, float) and 0.0 <= v < self.tol

    def __repr__(self):
        return f"below {self.tol:g}"


ZERO, NONZERO = Zero(), Nonzero()

DIM_HP = {(3, 0): 1, (3, 1): 4, (4, 0): 1, (4, 1): 5}
SIGNATURE_HP = {(3, 0): (1, 0), (3, 1): (3, 1), (4, 0): (1, 0), (4, 1): (4, 1)}
DIM_WP = {(3, 0): 10, (3, 1): 24, (4, 0): 35, (4, 1): 105}
SIGNATURE_WP = {(3, 0): (5, 5), (3, 1): (12, 12), (4, 0): (19, 16), (4, 1): (56, 49)}

# Highest-weight labels: (p+4)w1, (p+2)w1+w2 for the two gauge families,
# p w1+2w2 (n >= 4) or the chiral pair p w1+(p+4)w2, (p+4)w1+p w2 (n = 3).
HW_LABELS = {
    (3, 0): ("(4)w1", "(2)w1+w2", "0w1+(4)w2", "(4)w1+0w2"),
    (3, 1): ("(5)w1", "(3)w1+w2", "1w1+(5)w2", "(5)w1+1w2"),
    (4, 0): ("(4)w1", "(2)w1+w2", "0w1+2w2"),
}


def _hw_reports(n: int, p: int) -> dict:
    labels = HW_LABELS[(n, p)]
    out = {"reports": len(labels)}
    roles = ["gauge1", "gauge2", "chiral+" if n == 3 else "weyl_type", "chiral-"]
    for role, label in zip(roles, labels):
        out[f"{role}.label"] = label
        out[f"{role}.dim"] = 1
        if role.startswith("gauge"):
            # pure gauge: in the kernel of the linearized Riemann tensor
            out[f"{role}.in_riemann_kernel"] = True
            out[f"{role}.lie_identity"] = True
            continue
        out[f"{role}.in_riemann_kernel"] = False
        out[f"{role}.transverse"] = True
        out[f"{role}.catalog_weyl_type_proportional"] = True
        if n == 3:
            # the printed chiral closed form repeats Z^{-2}; the corrected
            # bracket-squared candidate is proportional to the vector
            out[f"{role}.catalog_match"] = "mismatch"
            out[f"{role}.corrected_flag"] = True
    return out


GENERATORS_3 = ("a_1", "a_2", "a_3", "r_12", "r_13", "r_23")


def _at_weight(names) -> dict:
    return {f"residual[{name}]": ZERO for name in names}


def _off_weight(names) -> dict:
    return {f"residual[{name}]": NONZERO for name in names}


EXPECTED: dict = {}
for _n, _p in DIM_HP:
    EXPECTED[f"build_Hp({_n},{_p})"] = {"dim": DIM_HP[(_n, _p)]}
    EXPECTED[f"signature_Hp({_n},{_p})"] = {"signature": SIGNATURE_HP[(_n, _p)]}
    EXPECTED[f"build_Wp({_n},{_p})"] = {"dim": DIM_WP[(_n, _p)]}
    EXPECTED[f"signature_Wp({_n},{_p})"] = {"signature": SIGNATURE_WP[(_n, _p)]}
for _n, _p in HW_LABELS:
    EXPECTED[f"hw_vectors_weyl({_n},{_p})"] = _hw_reports(_n, _p)
for _p in (0, 1):
    EXPECTED[f"chiral_hw_vector({_p},+-1)"] = {
        "conjugate_pair": True,
        "transverse": True,
        "trace_free": True,
        "in_riemann_kernel": False,
    }
    EXPECTED[f"weyl_type_hw_vector(4,{_p})"] = {
        "catalog_weyl_type_proportional": True,
        "in_riemann_kernel": False,
    }

EXPECTED.update(
    {
        "aspects_transverse": {"transverse": True},
        "bracket(r_12)": {"equal_on_sphere": True},
        "bracket(r_23)": {"equal_on_sphere": True},
        "bracket(r_12).sign_flipped": {"equal_on_sphere": False},
        "trace_compat(a_1)": {"vanishes_on_sphere": True},
        "trace_compat(a_2)": {"vanishes_on_sphere": True},
        "trace_compat(a_3)": {"vanishes_on_sphere": True},
    }
)

EXPECTED.update(
    {
        "conformal(3,0)": _at_weight(GENERATORS_3),
        "conformal(3,1)": _at_weight(GENERATORS_3),
        "conformal(4,1)": _at_weight(["a_1"]),
        "weyl(4,0)": _at_weight(["a_1", "r_12"]),
        "weyl_plus(3,0)": _at_weight(GENERATORS_3),
        "weyl_minus(3,0)": _at_weight(GENERATORS_3),
        "conformal(3,0).off_weight": {
            "max_residual": NONZERO,
            "max_first_moment_sq": NONZERO,
            # the boost residual is (k-n+1)^2 (int x^i tr m)^2 for n1 = 0
            "residual_is_moment_sq": True,
        },
        "weyl(4,0).off_weight": _off_weight(["a_1"]),
        "weyl_plus(3,0).off_weight": _off_weight(["a_1"]),
        "weyl_minus(3,0).off_weight": _off_weight(["a_1"]),
        "density(3,0)": {"at_weight": ZERO, "off_weight_boost": NONZERO},
        "density(3,1)": {"at_weight": ZERO, "off_weight_boost": NONZERO},
        "density(3,2)": {"at_weight": ZERO, "off_weight_boost": NONZERO},
        # order-24 product quadrature integrates the degree-limited
        # integrands to rounding error
        "finite(conformal,3,1)": {"max_abs_error": Below(1e-9)},
    }
)


def matches(expected, observed) -> bool:
    if callable(expected):
        return bool(expected(observed))
    return type(observed) is type(expected) and observed == expected
