import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahmass.gaussian import GaussianRational, I
from ahmass.linalg import (
    Echelon,
    SpanSolver,
    dense_to_rows,
    _image_rows,
    joint_kernel,
    joint_solve,
    matvec,
    nullspace,
    rank,
    signature_of_form,
    solve_min_support,
)
from ahmass.poly import ExactPoly, coordinates, monomials_of_degree, wave_operator
from linalg_oracles import FractionEchelon, on_oracle
from space_oracles import kron_rows, operator_rows


def test_kron_rows_rejects_terms_of_different_shapes():
    with pytest.raises(ValueError, match="different shapes"):
        kron_rows([([{0: 1}], [{0: 1}]), ([{0: 1}, {1: 1}], [{0: 1}])], 2)


def test_nullspace_identity():
    rows = dense_to_rows([[1, 0], [0, 1]])
    assert nullspace(rows, 2) == []


def test_nullspace_zero_matrix():
    basis = nullspace([{}, {}], 2)
    assert len(basis) == 2


def test_nullspace_single_row():
    basis = nullspace(dense_to_rows([[1, 1]]), 2)
    assert len(basis) == 1
    v = basis[0]
    assert v[1] == 1 and v[0] == -1


def random_rows(rng, nrows, ncols, density=0.5):
    rows = []
    for _ in range(nrows):
        r = {}
        for c in range(ncols):
            if rng.random() < density:
                v = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                if v:
                    r[c] = v
        rows.append(r)
    return rows


def test_nullspace_rank_property():
    rng = random.Random(7)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = random_rows(rng, nrows, ncols)
        basis = nullspace(rows, ncols)
        assert rank(rows, ncols) + len(basis) == ncols
        for v in basis:
            assert matvec(rows, v) == {}


def test_nullspace_gaussian_entries():
    i = GaussianRational.i()
    rows = [{0: Fraction(1), 1: i}]
    basis = nullspace(rows, 2)
    assert len(basis) == 1
    assert matvec(rows, basis[0]) == {}


def test_solve_min_support():
    rows = dense_to_rows([[1, 1, 0], [0, 1, 1]])
    x = solve_min_support(rows, 3, [Fraction(2), Fraction(1)])
    assert matvec(rows, x) == {0: 2, 1: 1}
    # free variable (column 2) pinned to zero
    assert 2 not in x


def test_solve_inconsistent():
    rows = dense_to_rows([[1, 0], [1, 0]])
    with pytest.raises(ValueError):
        solve_min_support(rows, 2, [Fraction(1), Fraction(2)])


def test_span_solver_roundtrip():
    rng = random.Random(3)
    vecs = [
        {0: Fraction(1), 2: Fraction(2)},
        {1: Fraction(1)},
        {0: Fraction(1), 3: Fraction(-1)},
    ]
    solver = SpanSolver(vecs)
    coeffs = [Fraction(5), Fraction(-2), Fraction(1, 3)]
    target = {}
    for c, v in zip(coeffs, vecs):
        for k, val in v.items():
            target[k] = target.get(k, Fraction(0)) + c * val
    target = {k: v for k, v in target.items() if v}
    got = solver.coordinates(target)
    assert got == {i: c for i, c in enumerate(coeffs) if c}
    assert not solver.contains({4: Fraction(1)})


def random_sparse(rng, nrows, ncols, gaussian, density=0.3):
    """Seeded sparse rows over Q (or Q(i)); about one in five combines two earlier rows."""

    def coef():
        re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if not gaussian:
            return re
        return re + Fraction(rng.randint(-3, 3), rng.randint(1, 2)) * I

    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.2:
            # an exact combination of earlier rows, so the rank drops
            a, b = rng.choice(rows), rng.choice(rows)
            c = coef()
            r = {k: a.get(k, 0) + c * b.get(k, 0) for k in set(a) | set(b)}
        else:
            r = {c: coef() for c in range(ncols) if rng.random() < density}
        rows.append({k: v for k, v in r.items() if v})
    return rows


CASES = [(seed, gaussian) for seed in range(12) for gaussian in (False, True)]


@pytest.mark.parametrize("seed,gaussian", CASES)
def test_echelon_is_fully_reduced(seed, gaussian):
    rng = random.Random(seed)
    ncols = rng.randint(3, 14)
    rows = random_sparse(rng, rng.randint(1, 12), ncols, gaussian)
    ech = Echelon(rows, ncols)
    assert ech.pivot_cols == sorted(ech.pivot_cols)
    for col, prow in ech.pivots:
        assert prow[col]
        assert all(c == col or c not in ech.pivot_cols for c in prow)
        assert min(prow) == col


@pytest.mark.parametrize("seed,gaussian", CASES)
def test_nullspace_vectors_sit_on_their_free_columns(seed, gaussian):
    rng = random.Random(100 + seed)
    ncols = rng.randint(3, 14)
    rows = random_sparse(rng, rng.randint(1, 12), ncols, gaussian)
    free = Echelon(rows, ncols).free_columns()
    basis = nullspace(rows, ncols)
    assert len(basis) == len(free) == ncols - rank(rows, ncols)
    for f, v in zip(free, basis):
        assert matvec(rows, v) == {}
        assert {c: v.get(c, 0) for c in free} == {c: int(c == f) for c in free}


@pytest.mark.parametrize("seed,gaussian", CASES)
def test_solve_min_support_is_zero_on_free_columns(seed, gaussian):
    rng = random.Random(200 + seed)
    ncols = rng.randint(3, 14)
    rows = random_sparse(rng, rng.randint(1, 12), ncols, gaussian)
    x0 = random_sparse(rng, 1, ncols, gaussian, density=0.5)[0]
    b = matvec(rows, x0)
    x = solve_min_support(rows, ncols, [b.get(i, 0) for i in range(len(rows))])
    assert matvec(rows, x) == b
    assert not set(x) & set(Echelon(rows, ncols).free_columns())
    # a right-hand side outside the column space is refused
    aug = rows + [{}]
    with pytest.raises(ValueError):
        solve_min_support(aug, ncols, [0] * len(rows) + [1])


@pytest.mark.parametrize("seed,gaussian", CASES)
def test_span_solver_roundtrip_random(seed, gaussian):
    rng = random.Random(300 + seed)
    ncols = rng.randint(4, 14)
    vecs = []
    for v in random_sparse(rng, rng.randint(1, 8), ncols, gaussian, density=0.4):
        if rank(vecs + [v], ncols) == len(vecs) + 1:
            vecs.append(v)
    assert vecs
    solver = SpanSolver(vecs)
    for _ in range(5):
        coeffs = random_sparse(rng, 1, len(vecs), gaussian, density=0.6)[0]
        target = {}
        for j, c in coeffs.items():
            for k, val in vecs[j].items():
                target[k] = target.get(k, 0) + c * val
        assert solver.coordinates({k: v for k, v in target.items() if v}) == coeffs
    for probe in random_sparse(rng, 4, ncols + 1, gaussian, density=0.4):
        inside = rank(vecs + [probe], ncols + 1) == len(vecs)
        assert solver.contains(probe) == inside
        if not inside:
            with pytest.raises(ValueError):
                solver.coordinates(probe)
    with pytest.raises(ValueError):
        SpanSolver(vecs + [{k: 3 * v for k, v in vecs[-1].items()}])
    with pytest.raises(ValueError):
        SpanSolver(vecs + [{}])


def test_signature_diagonal():
    assert signature_of_form(dense_to_rows([[1, 0], [0, -1]])) == (1, 1, 0)
    assert signature_of_form(dense_to_rows([[2, 0, 0], [0, 3, 0], [0, 0, 0]])) == (2, 0, 1)


def test_signature_offdiagonal_block():
    # hyperbolic plane: eigenvalues +1, -1
    assert signature_of_form(dense_to_rows([[0, 1], [1, 0]])) == (1, 1, 0)


def test_signature_input_errors():
    with pytest.raises(ValueError, match="non-symmetric"):
        signature_of_form(dense_to_rows([[0, 1], [2, 0]]))
    with pytest.raises(ValueError, match="real symmetric"):
        signature_of_form(dense_to_rows([[GaussianRational(1, 1)]]))
    real = (Fraction(1, 2) + I) - I  # Gaussian arithmetic whose imaginary part cancels
    assert signature_of_form(dense_to_rows([[real, 0], [0, -real]])) == (1, 1, 0)


@pytest.mark.parametrize(
    "rows",
    [[{1: 1}, {}], [{0: 1, 1: 2}, {0: 3, 1: 1}], [{1: Fraction(1, 2)}, {0: Fraction(1, 3)}], [{2: 1}, {1: 1}]],
    ids=["missing-mirror", "different-mirror", "different-fraction", "column-out-of-range"],
)
def test_signature_rejects_sparse_rows_without_their_mirror(rows):
    with pytest.raises(ValueError, match="non-symmetric"):
        signature_of_form(rows)


@pytest.mark.parametrize(
    "rows,match",
    [
        ([{1: GaussianRational(0, 1)}, {0: GaussianRational(0, 1)}], "real symmetric"),
        ([{0: 1, 1: 0.5}, {0: 0.5}], "inexact"),
        ([{0: True}], "inexact"),
        ([{0: 1, 1: True}, {0: True, 1: 1}], "inexact"),
    ],
    ids=["gaussian-off-diagonal", "float", "bool", "bool-off-diagonal"],
)
def test_signature_rejects_non_real_or_inexact_entries(rows, match):
    with pytest.raises(ValueError, match=match):
        signature_of_form(rows)


def test_signature_ignores_stored_zeros_and_reads_real_gaussians():
    # a stored zero needs no mirror; a real result of Gaussian arithmetic is a Fraction
    assert signature_of_form([{0: 1, 1: 0}, {1: -1}]) == (1, 1, 0)
    half = (Fraction(1, 2) + I) - I
    assert signature_of_form([{1: half}, {0: half}, {}]) == (1, 1, 1)


def test_signature_congruence_invariant():
    rng = random.Random(11)
    for _ in range(15):
        d = rng.randint(2, 5)
        diag = [rng.choice([-2, -1, 0, 1, 3]) for _ in range(d)]
        G = [[Fraction(diag[i]) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
        # random invertible S (unit upper triangular times permutation)
        S = [[Fraction(0)] * d for _ in range(d)]
        perm = list(range(d))
        rng.shuffle(perm)
        for i in range(d):
            S[i][perm[i]] = Fraction(1)
            for j in range(d):
                if rng.random() < 0.4 and perm[i] < j:
                    S[i][j] += Fraction(rng.randint(-3, 3))
        StGS = [[sum(S[k][i] * G[k][l] * S[l][j] for k in range(d) for l in range(d))
                 for j in range(d)] for i in range(d)]
        expected = (
            sum(1 for v in diag if v > 0),
            sum(1 for v in diag if v < 0),
            sum(1 for v in diag if v == 0),
        )
        assert signature_of_form(dense_to_rows(StGS)) == expected


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_signature_matches_eigenvalue_signs(data):
    # integer entries in -3..3 keep every nonzero eigenvalue of a matrix up
    # to 6 x 6 above 18^-5 in size, far from the float tolerance
    d = data.draw(st.integers(1, 6))
    zero_diagonal = data.draw(st.booleans())
    G = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            if i < j or not zero_diagonal:
                G[i][j] = G[j][i] = data.draw(st.integers(-3, 3))
    plus, minus, zero = signature_of_form(dense_to_rows(G))
    assert zero == d - rank(dense_to_rows(G), d)
    eig = np.linalg.eigvalsh(np.array(G, dtype=float))
    assert (plus, minus) == (int((eig > 1e-9).sum()), int((eig < -1e-9).sum()))


def test_echelon_deterministic_free_columns():
    rows = dense_to_rows([[1, 2, 3], [2, 4, 6]])
    ech = Echelon(rows, 3)
    assert ech.pivot_cols == [0]
    assert ech.free_columns() == [1, 2]


# ---------------------------------------------------------------------------
# joint kernels of maps on polynomial objects
# ---------------------------------------------------------------------------


def test_joint_kernel_of_no_maps_is_every_combination():
    basis = [ExactPoly.variable(3, i) for i in range(3)] + [ExactPoly.zero(3)]
    assert joint_kernel(basis, []) == [{j: 1} for j in range(4)]


def test_joint_kernel_matches_the_rows_route():
    # the wave-harmonic quadrics two ways: images of the unit monomials
    # against the sparse matrix of the same operator on monomial coordinates
    nv, degree = 4, 3
    units = [ExactPoly.monomial(nv, e) for e in monomials_of_degree(nv, degree)]
    rows = operator_rows(wave_operator, nv, degree, degree - 2)
    assert joint_kernel(units, [wave_operator]) == nullspace(rows, len(units))
    # a second map adds its equations: harmonic and free of X^0
    drop = joint_kernel(units, [wave_operator, lambda p: p.diff(0)])
    assert drop and len(drop) < len(units)
    for row in drop:
        p = sum(units[j] * c for j, c in row.items())
        assert wave_operator(p).is_zero() and p.diff(0).is_zero()


def wave_and_slope():
    """The unit cubics in 4 variables, Box and d_0 on them, and targets they reach."""
    nv, degree = 4, 3
    units = [ExactPoly.monomial(nv, e) for e in monomials_of_degree(nv, degree)]
    maps = [wave_operator, lambda p: p.diff(0)]
    x = [ExactPoly.variable(nv, i) for i in range(nv)]
    source = x[0] ** 2 * x[1] - 3 * x[2] ** 3 + x[1] * x[2] * x[3]
    return units, maps, [f(source) for f in maps]


def test_joint_solve_meets_its_targets():
    units, maps, targets = wave_and_slope()
    sol = joint_solve(units, maps, targets)
    p = sum((units[j] * c for j, c in sol.items()), ExactPoly.zero(4))
    assert [f(p) for f in maps] == targets


def test_joint_solve_is_zero_on_free_columns_and_the_min_support_solve():
    units, maps, targets = wave_and_slope()
    sol = joint_solve(units, maps, targets)
    rows = _image_rows(units, maps)
    assert not set(sol) & set(Echelon(list(rows.values()), len(units)).free_columns())
    # every target coordinate is an image coordinate here, so the same rows
    # with the target read off them give the same solution
    rhs = {(k, coord): v for k, t in enumerate(targets) for coord, v in coordinates(t)}
    assert rhs.keys() <= rows.keys()
    assert sol == solve_min_support(list(rows.values()), len(units), [rhs.get(key, 0) for key in rows])


def test_joint_solve_refuses_a_target_out_of_reach():
    units, maps, targets = wave_and_slope()
    # a target outside the image on an image coordinate, and one on a
    # coordinate no image reaches (degree 3 under d_0, which lowers it)
    with pytest.raises(ValueError, match="inconsistent"):
        joint_solve(units, maps, [targets[0] + 1, targets[1]])
    with pytest.raises(ValueError, match="inconsistent"):
        joint_solve(units, maps, [targets[0], targets[1] + ExactPoly.monomial(4, (0, 0, 0, 3))])


def test_echelon_rejects_entries_outside_its_columns():
    # such entries were once dropped: nullspace([{5: 1}], 3) gave three unit vectors
    for bad in ([{5: 1}], [{0: 1, 3: 2}], [{-1: 1}]):
        with pytest.raises(ValueError, match="outside range"):
            nullspace(bad, 3)
    assert nullspace([{0: 1, 2: 0}], 2) == [{1: 1}]


def test_solve_min_support_needs_one_right_hand_side_per_row():
    rows = dense_to_rows([[1, 1, 0], [0, 1, 1]])
    for rhs in ([Fraction(2)], [1, 2, 3]):
        with pytest.raises(ValueError, match="right-hand sides"):
            solve_min_support(rows, 3, rhs)


# ---------------------------------------------------------------------------
# the integer-row elimination against its Fraction-update oracle
# ---------------------------------------------------------------------------


def typed(row) -> dict:
    """Every entry of a sparse row with its type."""
    return {k: (type(v), v) for k, v in row.items()}


def oracle_system(seed: int, kind: str):
    """Seeded rows over Q, over Q(i) or with both kinds of entry, plus a zero row and duplicates.

    Rational systems carry some integral entries as ``int``; a mixed
    system has Gaussian pivots inside rows with ``Fraction`` entries.
    The duplicates are one row repeated and one scaled by -2, so some
    pivot rows start negative.
    """
    rng = random.Random(400 + seed)
    ncols = rng.randint(4, 14)
    rows = random_sparse(rng, rng.randint(2, 12), ncols, kind == "gaussian")
    if kind == "mixed":
        rows = [{k: v + rng.randint(-2, 2) * I if rng.random() < 0.4 else v for k, v in r.items()} for r in rows]
    elif kind == "rational":
        rows = [{k: int(v) if v.denominator == 1 else v for k, v in r.items()} for r in rows]
    rows.insert(rng.randint(0, len(rows)), {})
    rows.append(dict(rows[rng.randrange(len(rows))]))
    rows.append({k: -2 * v for k, v in rows[rng.randrange(len(rows))].items()})
    return rows, ncols


ORACLE_CASES = [(seed, kind) for seed in range(12) for kind in ("rational", "gaussian", "mixed")]


@pytest.mark.parametrize("seed,kind", ORACLE_CASES)
def test_integer_echelon_matches_the_fraction_oracle(seed, kind):
    rows, ncols = oracle_system(seed, kind)
    ech, ref = Echelon(rows, ncols), FractionEchelon(rows, ncols)
    assert ech.pivot_cols == ref.pivot_cols
    assert [(c, typed(r)) for c, r in ech.pivots] == [(c, typed(r)) for c, r in ref.pivots]
    assert {type(v) for _, r in ech.pivots for v in r.values()} <= {Fraction, GaussianRational}


def test_oracle_systems_have_negative_and_gaussian_pivots():
    pivots = [(c, r) for seed, kind in ORACLE_CASES for c, r in Echelon(*oracle_system(seed, kind)).pivots]
    assert any(type(r[c]) is Fraction and r[c] < 0 for c, r in pivots)
    assert any(isinstance(r[c], GaussianRational) for c, r in pivots)
    # a real pivot in a row that holds Gaussian entries
    assert any(type(r[c]) is Fraction and any(isinstance(v, GaussianRational) for v in r.values()) for c, r in pivots)


def test_a_real_value_reached_by_gaussian_elimination_is_a_fraction():
    # (1 - i)(1 + i) = 2 clears column 0 from the second row and leaves it real
    ech = Echelon([{0: 1 + I, 1: 1 + I}, {0: 1, 1: 2}], 2)
    assert ech.pivots == [(0, {0: 1 + I}), (1, {1: Fraction(1)})]
    systems = [ech] + [Echelon(*oracle_system(seed, kind)) for seed, kind in ORACLE_CASES]
    coefs = [c for e in systems for _, r in e.pivots for c in r.values()]
    assert all(type(c) is Fraction or type(c) is GaussianRational and c.im for c in coefs)


@pytest.mark.parametrize("seed,kind", ORACLE_CASES)
def test_readers_of_the_echelon_match_the_fraction_oracle(seed, kind):
    rows, ncols = oracle_system(seed, kind)
    rng = random.Random(500 + seed)
    x0 = random_sparse(rng, 1, ncols, kind != "rational", density=0.5)[0]
    b = matvec(rows, x0)
    rhs = [b.get(i, 0) for i in range(len(rows))]
    vecs = []
    for v in rows:
        if v and rank(vecs + [v], ncols) == len(vecs) + 1:
            vecs.append(v)
    target = {}
    for j, v in enumerate(vecs):
        for k, c in v.items():
            target[k] = target.get(k, 0) + (j - 1) * c

    def readers():
        solver = SpanSolver(vecs)
        return (
            [typed(v) for v in nullspace(rows, ncols)],
            typed(solve_min_support(rows, ncols, rhs)),
            {c: (typed(part), typed(combo)) for c, (part, combo) in solver.rows.items()},
            typed(solver.coordinates({k: c for k, c in target.items() if c})),
            solver.contains(x0),
        )

    got = readers()
    with on_oracle():
        assert got == readers()


def test_nullspace_of_an_int_system_is_exact():
    rows = [{0: 2, 1: 3, 2: -4}, {0: -6, 1: 1, 3: 5}, {1: 7, 2: 2, 3: -1}]
    basis = nullspace(rows, 4)
    assert basis and all(type(c) is Fraction for v in basis for c in v.values())
    assert all(matvec(rows, v) == {} for v in basis)
    assert basis == [{3: 1, 2: Fraction(45, 104), 1: Fraction(1, 52), 0: Fraction(87, 104)}]
    x = solve_min_support(rows, 4, [1, 0, 0])
    assert all(type(c) is Fraction for c in x.values())


@pytest.mark.parametrize("bad", [0.1, 0.0, True, 1 + 0j, np.int64(1)], ids=["float", "zero-float", "bool", "complex", "numpy"])
def test_linear_algebra_rejects_inexact_coefficients(bad):
    with pytest.raises(ValueError, match="inexact"):
        nullspace([{0: bad, 1: 1}], 2)
    with pytest.raises(ValueError, match="inexact"):
        rank([{1: 1}, {0: 1, 1: bad}], 2)
    with pytest.raises(ValueError, match="inexact"):
        signature_of_form([{0: bad}, {1: 1}])
