import random

import pytest

from coclass.intmat import IntMatrix, hnf, snf, xgcd

from _oracles import (
    charpoly,
    det,
    inverse_unimodular,
    rational_inverse,
    rational_solve_integral,
)


def rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def rand_unimodular(rng, n, steps=12):
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        for r in range(n):
            u[r][j] += q * u[r][i]
        if rng.random() < 0.3:
            for r in range(n):
                u[r][i], u[r][j] = u[r][j], u[r][i]
    return IntMatrix(u)


def test_xgcd_basics():
    for a, b in [(12, 18), (-12, 18), (0, 5), (7, 0), (-4, -6), (1, 1)]:
        g, s, t = xgcd(a, b)
        assert g >= 0
        assert s * a + t * b == g


def assert_smith(a, d, s):
    """d = s @ a @ t for some unimodular t: s unimodular, d diagonal with
    each entry dividing the next, and s @ a spanning the columns of d."""
    assert abs(det(s)) == 1
    k = min(a.rows, a.cols)
    diag = [d.data[i][i] for i in range(k)]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.data[i][j] == 0
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x != 0:
            assert y % x == 0
        else:
            assert y == 0
    assert hnf(s @ a) == hnf(d)


def test_hnf_identity():
    eye = IntMatrix.identity(3)
    assert hnf(eye) == eye


def test_hnf_already_canonical_diagonal():
    d = IntMatrix([[2, 0], [0, 2]])
    assert hnf(d) == d


def test_hnf_factorization_and_unimodularity():
    # h = a @ u with u unimodular: u = a^-1 h is integral and |det h| = |det a|
    rng = random.Random(11)
    done = 0
    while done < 30:
        a = rand_matrix(rng, 4, 4)
        if det(a) == 0:
            continue
        h = hnf(a)
        assert rational_solve_integral(a.to_lists(), h.to_lists())
        assert abs(det(h)) == abs(det(a))
        done += 1


def test_hnf_column_span_preserved_mutual_membership():
    # nonsingular case: span equality iff A^-1 H and H^-1 A are integral
    rng = random.Random(23)
    done = 0
    while done < 15:
        a = rand_matrix(rng, 4, 4)
        if det(a) == 0:
            continue
        h = hnf(a)
        a_rows = a.to_lists()
        h_cols = [[h.data[i][j] for j in range(4)] for i in range(4)]
        assert rational_solve_integral(a_rows, h_cols)
        assert rational_solve_integral(h.to_lists(), a.to_lists())
        done += 1


def test_hnf_canonical_under_unimodular_right_factor():
    rng = random.Random(5)
    for _ in range(20):
        a = rand_matrix(rng, 3, 3)
        u = rand_unimodular(rng, 3)
        assert hnf(a) == hnf(a @ u)


def test_hnf_shape_canonicality():
    # upper triangular, positive diagonal, reduced off-diagonal entries
    rng = random.Random(7)
    done = 0
    while done < 10:
        a = rand_matrix(rng, 4, 4)
        if det(a) == 0:
            continue
        h = hnf(a)
        for i in range(4):
            assert h.data[i][i] > 0
            for j in range(4):
                if j < i:
                    assert h.data[i][j] == 0
                elif j > i:
                    assert 0 <= h.data[i][j] < h.data[i][i]
        done += 1


def test_hnf_empty():
    h = hnf(IntMatrix.zeros(0, 0))
    assert isinstance(h, IntMatrix)
    assert h.rows == 0 and h.cols == 0


def test_snf_coprime_diagonal():
    a = IntMatrix([[2, 0], [0, 3]])
    d, s = snf(a)
    assert d == IntMatrix([[1, 0], [0, 6]])
    assert_smith(a, d, s)


def test_snf_zero_matrix():
    z = IntMatrix.zeros(2, 3)
    d, s = snf(z)
    assert d == z
    assert_smith(z, d, s)


def test_snf_random_recomposition_and_divisibility():
    rng = random.Random(31)
    for trial in range(25):
        a = rand_matrix(rng, 3, 3)
        if trial % 5 == 0:
            # force a singular input: third column = first + second
            a = IntMatrix([[r[0], r[1], r[0] + r[1]] for r in a.data])
        d, s = snf(a)
        assert_smith(a, d, s)
        prod = d.data[0][0] * d.data[1][1] * d.data[2][2]
        assert prod == abs(det(a))


def test_snf_rectangular():
    rng = random.Random(13)
    for shape in [(2, 4), (4, 2), (3, 5)]:
        a = rand_matrix(rng, *shape)
        d, s = snf(a)
        assert_smith(a, d, s)


# hnf of p(C-I)^i and (d, s) = snf of that hnf, for the chain levels of
# p=2 x=2 and p=3 x=1; d is the reference for the closed-form invariants
# of T/N_i
_CHAIN_LEVELS = [
    # (p, x, i, h, d, s)
    (2, 2, 1, [[4, 2], [0, 2]], [[2, 0], [0, 4]], [[1, 0], [-1, 1]]),
    (2, 2, 2, [[4, 0], [0, 4]], [[4, 0], [0, 4]], [[1, 0], [0, 1]]),
    (2, 2, 3, [[8, 4], [0, 4]], [[4, 0], [0, 8]], [[1, 0], [-1, 1]]),
    (2, 2, 5, [[16, 8], [0, 8]], [[8, 0], [0, 16]], [[1, 0], [-1, 1]]),
    (3, 1, 1, [[9, 6], [0, 3]], [[3, 0], [0, 9]], [[1, 0], [1, 1]]),
    (3, 1, 2, [[9, 0], [0, 9]], [[9, 0], [0, 9]], [[1, 0], [0, 1]]),
    (3, 1, 3, [[27, 18], [0, 9]], [[9, 0], [0, 27]], [[1, 0], [1, 1]]),
    (3, 1, 5, [[81, 54], [0, 27]], [[27, 0], [0, 81]], [[1, 0], [1, 1]]),
]


@pytest.mark.parametrize("p, x, i, h, d, s", _CHAIN_LEVELS)
def test_chain_level_normal_forms_are_pinned(p, x, i, h, d, s):
    from coclass.spacegroup import SpaceGroupParams, companion_cyclotomic
    c = companion_cyclotomic(SpaceGroupParams(p, x))
    a = p * (c - IntMatrix.identity(c.rows)) ** i
    assert hnf(a) == IntMatrix(h)
    assert snf(IntMatrix(h)) == (IntMatrix(d), IntMatrix(s))


@pytest.mark.parametrize("a, d, s", [
    ([[-5, -6], [0, 2]], [[1, 0], [0, 10]], [[-1, 0], [2, 1]]),
    ([[6, -2, -3], [-4, -2, -2], [4, 5, -1]], [[1, 0, 0], [0, 1, 0], [0, 0, 132]],
     [[-1, -2, 0], [19, 36, -3], [60, 113, -10]]),
])
def test_snf_transform_is_pinned_for_negative_pivots(a, d, s):
    # s is not unique; these pin the row operations, sign flips included
    assert snf(IntMatrix(a)) == (IntMatrix(d), IntMatrix(s))


# the Hermite-form inverse that the tests check the binomial pi-adic lift
# against, on the Smith transforms of chain levels 0..5
@pytest.mark.parametrize("p, x", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                  (5, 1), (7, 1), (3, 3)])
def test_inverse_unimodular_of_chain_smith_transforms(p, x):
    from coclass.spacegroup import SpaceGroupParams, filtration_lattices
    params = SpaceGroupParams(p, x)
    eye = IntMatrix.identity(params.dim)
    for lat in filtration_lattices(params, 5):
        _d, s = snf(lat.basis)
        inv = inverse_unimodular(s)
        assert s @ inv == eye and inv @ s == eye
        assert inv.to_lists() == rational_inverse(s)


def test_inverse_unimodular_of_random_unimodular():
    rng = random.Random(23)
    for _ in range(20):
        u = IntMatrix.identity(4)
        for _ in range(8):
            # a transvection, or a swap of two rows (determinant -1)
            i, j = rng.sample(range(4), 2)
            e = [[int(r == c) for c in range(4)] for r in range(4)]
            if rng.random() < 0.25:
                e[i], e[j] = e[j], e[i]
            else:
                e[i][j] = rng.randint(-4, 4)
            u = IntMatrix(e) @ u
        assert inverse_unimodular(u).to_lists() == rational_inverse(u)


@pytest.mark.parametrize("a", [
    [[2, 0], [0, 1]],                 # determinant 2
    [[1, 2], [2, 4]],                 # singular
    [[0]],
    [[1, 0, 0], [0, 1, 0]],           # not square
    [[1, 0], [0, 1], [0, 0]],
])
def test_inverse_unimodular_rejects_non_unimodular(a):
    with pytest.raises(ValueError, match="not unimodular"):
        inverse_unimodular(IntMatrix(a))


def test_det_bareiss_vs_charpoly_constant():
    rng = random.Random(17)
    for _ in range(10):
        a = rand_matrix(rng, 4, 4, -5, 5)
        cp = charpoly(a)
        # constant coefficient is (-1)^n det
        assert cp[-1] == det(a)


def test_matrix_power_and_apply():
    m = IntMatrix([[1, 1], [0, 1]])
    assert (m ** 5) == IntMatrix([[1, 5], [0, 1]])
    assert m.apply((2, 3)) == (5, 3)


def test_ragged_rejected():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
