"""Seeded inputs and the cases of the three benchmark workloads.

Each workload is a list of cases.  A case calls public ``ahmass``
functions and returns its observations as ``{check: value}``; the
expected value of every check is in :mod:`expected`, written by hand.

Workloads (why each exists is recorded in BENCHMARK.json):

* ``highest-weight`` -- H_p and W_p with their signatures, and the
  highest-weight vectors: operator assembly and exact elimination.
* ``aspect-calculus`` -- bracket and trace identities of the weighted
  action on one seeded aspect: the on-sphere zero test.
* ``mass-equivariance`` -- exact equivariance of every mass family at
  its weight, off-weight negatives, intertwining densities and one
  finite (quadrature) check: mass evaluation.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from typing import Callable, NamedTuple

from ahmass.harmonic import build_Hp, signature_Hp
from ahmass.invariants import (
    check_equivariance_finite,
    check_equivariance_infinitesimal,
    density_null_power,
    intertwining_density_residual,
    symmetric_power_action,
)
from ahmass.lorentz import all_generators, boost_from_parameter
from ahmass.massaspect import (
    SphereTensor,
    boost_action,
    boost_field,
    rotation_action,
    transversalize,
)
from ahmass.poly import ExactPoly, monomials_of_degree, sphere_integral, vanishes_on_sphere
from ahmass.weyl import (
    build_Wp,
    catalog_weyl_type,
    chiral_hw_vector,
    hw_vectors_weyl,
    linearized_riemann,
    proportionality,
    signature_Wp,
    weyl_type_hw_vector,
)

GRID = ((3, 0), (3, 1), (4, 0), (4, 1))

# Degrees of the monomials in each raw component of a seeded aspect,
# before transversalization.  Every monomial of these degrees appears, so
# every seed gives the same support and about the same work; the seed
# draws only the nonzero coefficients.
BRACKET_DEGREES = (1,)
TRACE_DEGREES = (0, 1)
MASS_DEGREES = (0, 1)


def seeded_aspect(rng: random.Random, n: int, k: int, degrees) -> SphereTensor:
    """Transverse aspect with random coefficients on every monomial of ``degrees``."""
    comp = {}
    for i in range(n):
        for j in range(i, n):
            terms = {
                e: F(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3))
                for d in degrees
                for e in monomials_of_degree(n, d)
            }
            comp[(i, j)] = ExactPoly(n, terms)
    return transversalize(SphereTensor(n, k, comp), k)


class Case(NamedTuple):
    name: str
    run: Callable[[], dict]  # returns {check: observed value}
    smoke: bool = False  # part of the small smoke run


# ---------------------------------------------------------------------------
# highest-weight
# ---------------------------------------------------------------------------


def _hw_report_case(n: int, p: int):
    def run():
        reports = hw_vectors_weyl(n, p)
        out = {"reports": len(reports)}
        roles = ["gauge1", "gauge2", "chiral+" if n == 3 else "weyl_type", "chiral-"]
        for role, rep in zip(roles, reports):
            out[f"{role}.label"] = rep.label
            out[f"{role}.dim"] = rep.dim
            out[f"{role}.in_riemann_kernel"] = rep.in_riemann_kernel
            if role.startswith("gauge"):
                out[f"{role}.lie_identity"] = any(
                    "Lie-derivative identity holds" in f for f in rep.flags
                )
                continue
            out[f"{role}.transverse"] = rep.transverse
            conj = role == "chiral-"
            out[f"{role}.catalog_weyl_type_proportional"] = (
                rep.vector is not None
                and proportionality(rep.vector, catalog_weyl_type(n, p, conj=conj)) is not None
            )
            if n == 3:
                out[f"{role}.catalog_match"] = rep.catalog_match
                out[f"{role}.corrected_flag"] = any("replaced by Z^{-1}" in f for f in rep.flags)
        return out

    return run


def _chiral_case(p: int):
    def run():
        plus = chiral_hw_vector(p, +1)
        minus = chiral_hw_vector(p, -1)
        return {
            "conjugate_pair": proportionality(minus, plus.conjugate()) is not None,
            "transverse": all(
                r.is_zero() for h in (plus, minus) for r in h.radial_contraction()
            ),
            "trace_free": plus.eta_trace().is_zero() and minus.eta_trace().is_zero(),
            "in_riemann_kernel": linearized_riemann(plus).is_zero(),
        }

    return run


def _weyl_type_case(n: int, p: int):
    def run():
        h = weyl_type_hw_vector(n, p)
        return {
            "catalog_weyl_type_proportional": proportionality(h, catalog_weyl_type(n, p)) is not None,
            "in_riemann_kernel": linearized_riemann(h).is_zero(),
        }

    return run


def highest_weight(seed: int):
    """No seeded inputs: the grid is the input, so every seed runs the same work."""
    del seed
    cases = []
    for n, p in GRID:
        smoke = (n, p) == (3, 0)
        cases += [
            Case(f"build_Hp({n},{p})", lambda n=n, p=p: {"dim": build_Hp(n, p).dim}, smoke),
            Case(f"signature_Hp({n},{p})", lambda n=n, p=p: {"signature": signature_Hp(n, p)}, smoke),
            Case(f"build_Wp({n},{p})", lambda n=n, p=p: {"dim": build_Wp(n, p).dim}, smoke),
            Case(f"signature_Wp({n},{p})", lambda n=n, p=p: {"signature": signature_Wp(n, p)}, smoke),
        ]
    for n, p in ((3, 0), (3, 1), (4, 0)):
        cases.append(Case(f"hw_vectors_weyl({n},{p})", _hw_report_case(n, p), (n, p) == (3, 0)))
    for p in (0, 1):
        cases.append(Case(f"chiral_hw_vector({p},+-1)", _chiral_case(p)))
    for p in (0, 1):
        cases.append(Case(f"weyl_type_hw_vector(4,{p})", _weyl_type_case(4, p)))
    return cases


# ---------------------------------------------------------------------------
# aspect-calculus
# ---------------------------------------------------------------------------


def aspect_calculus(seed: int):
    rng = random.Random(seed)
    n = 3
    m_bracket = seeded_aspect(rng, n, 4, BRACKET_DEGREES)
    m_trace = seeded_aspect(rng, n, 5, TRACE_DEGREES)
    kept = {}

    def bracket(i, j):
        def run():
            lhs = rotation_action(i, j, m_bracket)
            ab = boost_action(i, boost_action(j, m_bracket))
            ba = boost_action(j, boost_action(i, m_bracket))
            rhs = (ab - ba).scale(F(-1))
            kept[(i, j)] = (lhs, rhs)
            return {"equal_on_sphere": lhs.equal_on_sphere(rhs)}

        return run

    def sign_flipped():
        lhs, rhs = kept[(1, 2)]
        return {"equal_on_sphere": lhs.equal_on_sphere(rhs.scale(F(-1)))}

    def trace_compat(i):
        def run():
            k = m_trace.k
            lhs = boost_action(i, m_trace).trace_sigma()
            tr = m_trace.trace_sigma()
            rhs = -boost_field(n, i).derive(tr) + k * ExactPoly.variable(n, i - 1) * tr
            return {"vanishes_on_sphere": vanishes_on_sphere(lhs - rhs)}

        return run

    cases = [
        Case(
            "aspects_transverse",
            lambda: {"transverse": m_bracket.is_transverse() and m_trace.is_transverse()},
            True,
        )
    ]
    cases += [Case(f"bracket(r_{i}{j})", bracket(i, j)) for i, j in ((1, 2), (2, 3))]
    cases.append(Case("bracket(r_12).sign_flipped", sign_flipped))
    cases += [Case(f"trace_compat(a_{i})", trace_compat(i), i == 1) for i in (1, 2, 3)]
    return cases


# ---------------------------------------------------------------------------
# mass-equivariance
# ---------------------------------------------------------------------------


def mass_equivariance(seed: int):
    rng = random.Random(seed)
    aspect = {}  # (n, k) -> seeded transverse aspect of that decay order
    for n, k in ((3, 2), (3, 3), (4, 4), (4, 5), (3, 4), (4, 6), (3, 5)):
        aspect[(n, k)] = seeded_aspect(rng, n, k, MASS_DEGREES)

    def equivariance(family, n, n1, k, names):
        def run():
            gens = dict(all_generators(n))
            if family == "conformal":
                dual = build_Hp(n, n1).basis
            else:
                dual = build_Wp(n, n1).basis
            m = aspect[(n, k)]
            return {
                f"residual[{name}]": check_equivariance_infinitesimal(family, m, name, gens[name], dual)
                for name in (names or list(gens))
            }

        return run

    def conformal_off_weight():
        # For n1 = 0 the residual of boost a_i is (k-n+1)^2 (int x^i tr m)^2,
        # so a zero moment makes that negative vacuous.  A single moment can
        # vanish for some seeds; all three boosts are checked, and the
        # largest residual and moment must be nonzero.
        n, k = 3, 3
        gens = dict(all_generators(n))
        dual = build_Hp(n, 0).basis
        m = aspect[(n, k)]
        tr = m.trace_sigma()
        boosts = [f"a_{i}" for i in range(1, n + 1)]
        residual = [check_equivariance_infinitesimal("conformal", m, a, gens[a], dual) for a in boosts]
        moment = [sphere_integral(ExactPoly.variable(n, i) * tr) for i in range(n)]
        return {
            "max_residual": max(residual),
            "max_first_moment_sq": max(v * v for v in moment),
            "residual_is_moment_sq": all(r == (k - n + 1) ** 2 * v * v for r, v in zip(residual, moment)),
        }

    def density(n1):
        def run():
            n = 3
            k = n - 1 + n1
            gens = dict(all_generators(n))

            def rows(name):
                return symmetric_power_action(gens[name], n + 1, n1)

            at = intertwining_density_residual(density_null_power(n, n1, k), rows, k)
            off = intertwining_density_residual(density_null_power(n, n1, k + 1), rows, k + 1)
            return {"at_weight": at, "off_weight_boost": off[0]}

        return run

    def finite():
        a = boost_from_parameter(3, 1, F(1, 3))
        return {"max_abs_error": check_equivariance_finite(aspect[(3, 3)], a, 1, order=24)}

    return [
        Case("conformal(3,0)", equivariance("conformal", 3, 0, 2, None), True),
        Case("conformal(3,1)", equivariance("conformal", 3, 1, 3, None)),
        Case("conformal(4,1)", equivariance("conformal", 4, 1, 4, ["a_1"])),
        Case("weyl(4,0)", equivariance("weyl", 4, 0, 5, ["a_1", "r_12"])),
        Case("weyl_plus(3,0)", equivariance("weyl_plus", 3, 0, 4, None)),
        Case("weyl_minus(3,0)", equivariance("weyl_minus", 3, 0, 4, None)),
        Case("conformal(3,0).off_weight", conformal_off_weight, True),
        Case("weyl(4,0).off_weight", equivariance("weyl", 4, 0, 6, ["a_1"])),
        Case("weyl_plus(3,0).off_weight", equivariance("weyl_plus", 3, 0, 5, ["a_1"])),
        Case("weyl_minus(3,0).off_weight", equivariance("weyl_minus", 3, 0, 5, ["a_1"])),
        Case("density(3,0)", density(0), True),
        Case("density(3,1)", density(1)),
        Case("density(3,2)", density(2)),
        Case("finite(conformal,3,1)", finite),
    ]


WORKLOADS = {
    "highest-weight": highest_weight,
    "aspect-calculus": aspect_calculus,
    "mass-equivariance": mass_equivariance,
}
