import random
from itertools import product
from math import comb

import numpy as np
import pytest

from _models import ExteriorAlgebra, exterior_dims
from _oracles import point_perm
from coclass.cochain import (
    Cochain,
    _matrix_point_perm,
    ElementaryTensor,
    act_on_cochain,
    act_on_point,
    check_eta_equivariance,
    check_inflation_equivariance,
    cross_product_eval,
    index_point,
    inflate_eval,
    inverse_point_generator_matrix,
    point_index,
)
from coclass.errors import BudgetError
from coclass.groups import enumerate_group
from coclass.spacegroup import (
    QuotientCoords,
    SpaceGroupParams,
    companion_cyclotomic,
    wreath_group,
    wreath_inv,
    wreath_mul,
)


def test_point_index_round_trip():
    for p, dim in [(2, 1), (3, 2), (5, 4)]:
        for idx in range(p ** dim):
            assert point_index(p, index_point(p, dim, idx)) == idx


def test_matrix_point_perm_matches_pointwise_reference():
    rng = random.Random(3)
    for p, dim in [(2, 1), (2, 3), (3, 2), (5, 4), (7, 2), (3, 6)]:
        for _ in range(3):
            mat = [[rng.randrange(-p, 2 * p) for _ in range(dim)] for _ in range(dim)]
            assert _matrix_point_perm(p, dim, mat).tolist() == point_perm(p, dim, mat)


def test_cochain_normalization_enforced():
    table = np.ones((9, 9), dtype=np.uint8)
    f = Cochain(3, 2, 2, table)
    assert f.eval((0, 5)) == 0
    assert f.eval((5, 0)) == 0
    assert f.eval((5, 7)) == 1


def test_random_cochain_over_budget_refuses_before_drawing(monkeypatch):
    class NoDraws:
        def randrange(self, n):
            raise AssertionError("drew a value for an over-budget table")

    monkeypatch.setattr(Cochain, "TABLE_BUDGET", 80)
    with pytest.raises(BudgetError, match="9\\^3 entries exceeds budget 80"):
        Cochain.random_normalized(3, 2, 3, NoDraws())
    # 9^2 = 81 entries is over as well; 9^1 is within and draws
    with pytest.raises(BudgetError):
        Cochain.random_normalized(3, 2, 2, NoDraws())
    assert Cochain.random_normalized(3, 2, 1, random.Random(0)).degree == 1


def test_cross_product_degree_zero():
    t = ElementaryTensor(3, [Cochain.constant(3, 2), Cochain.constant(3, 2),
                             Cochain.constant(3, 2)])
    assert cross_product_eval(t, ()) == 1


def test_cross_product_single_factor_reads_own_block():
    rng = random.Random(4)
    p32 = SpaceGroupParams(3, 2)
    for slot in range(3):
        for m in (1, 2):
            f = Cochain.random_normalized(3, 2, m, rng)
            factors = [f if j == slot else Cochain.constant(3, 2) for j in range(3)]
            t = ElementaryTensor(3, factors)
            for _ in range(50):
                z = tuple(tuple(rng.randrange(9) for _ in range(3)) for _ in range(m))
                assert cross_product_eval(t, z) == f.eval(tuple(zk[slot] for zk in z))


def test_cross_product_two_degree_one_factors():
    rng = random.Random(5)
    f1 = Cochain.random_normalized(3, 2, 1, rng)
    f2 = Cochain.random_normalized(3, 2, 1, rng)
    t = ElementaryTensor(3, [f1, f2, Cochain.constant(3, 2)])
    for _ in range(100):
        z1 = tuple(rng.randrange(9) for _ in range(3))
        z2 = tuple(rng.randrange(9) for _ in range(3))
        want = f1.eval((z1[0],)) * f2.eval((z2[1],)) % 3
        assert cross_product_eval(t, (z1, z2)) == want


def test_cross_product_degenerate_argument_vanishes():
    rng = random.Random(6)
    f = Cochain.random_normalized(3, 2, 2, rng)
    t = ElementaryTensor(3, [f, Cochain.constant(3, 2), Cochain.constant(3, 2)])
    for _ in range(30):
        z2 = tuple(rng.randrange(9) for _ in range(3))
        z1 = (0, rng.randrange(9), rng.randrange(9))  # identity in the active block
        assert cross_product_eval(t, (z1, z2)) == 0


def test_act_identity_and_pure_permutation():
    rng = random.Random(8)
    p32 = SpaceGroupParams(3, 2)
    w = wreath_group(p32)
    f = Cochain.random_normalized(3, 2, 1, rng)
    t = ElementaryTensor(3, [f, Cochain.constant(3, 2), Cochain.constant(3, 2)])
    assert act_on_cochain(p32, w.identity, t) == t
    cycle = (1, 2, 0)
    q = type(w.identity)((0, 0, 0), cycle)
    moved = act_on_cochain(p32, q, t)
    # slot j receives factor sigma^-1(j); values untouched for zero twists
    degs = moved.degrees
    assert degs == (0, 1, 0)
    assert moved.factors[1] == f


def test_act_round_trip_and_action_property():
    rng = random.Random(9)
    p32 = SpaceGroupParams(3, 2)
    table = enumerate_group(wreath_group(p32))
    for _ in range(200):
        q = table.elements[rng.randrange(81)]
        degrees = [rng.randrange(3) for _ in range(3)]
        factors = [Cochain.constant(3, 2) if d == 0
                   else Cochain.random_normalized(3, 2, d, rng)
                   for d in degrees]
        t = ElementaryTensor(3, factors)
        qi = wreath_inv(3, q)
        assert act_on_cochain(p32, qi, act_on_cochain(p32, q, t)) == t
        q2 = table.elements[rng.randrange(81)]
        lhs = act_on_cochain(p32, wreath_mul(3, q, q2), t)
        rhs = act_on_cochain(p32, q, act_on_cochain(p32, q2, t))
        assert lhs == rhs


def test_act_on_point_is_group_action():
    rng = random.Random(10)
    p32 = SpaceGroupParams(3, 2)
    table = enumerate_group(wreath_group(p32))
    for _ in range(200):
        q1 = table.elements[rng.randrange(81)]
        q2 = table.elements[rng.randrange(81)]
        z = tuple(rng.randrange(9) for _ in range(3))
        assert act_on_point(p32, wreath_mul(3, q1, q2), z) == \
            act_on_point(p32, q1, act_on_point(p32, q2, z))


def test_eta_equivariance_single_block_trivial():
    rep = check_eta_equivariance(SpaceGroupParams(3, 1), 2, 200, seed=3)
    assert rep["failures"] == 0


def test_eta_equivariance_p3_x2():
    for degree, seed in [(1, 11), (2, 7)]:
        rep = check_eta_equivariance(SpaceGroupParams(3, 2), degree, 1000, seed)
        assert rep["failures"] == 0
        assert rep["firstCounterexample"] is None
        assert rep["identity"] == "eta-equivariance"


def test_eta_equivariance_exhaustive_p2_x2_degree1():
    p22 = SpaceGroupParams(2, 2)
    table = enumerate_group(wreath_group(p22))
    basis = Cochain(2, 1, 1, np.array([0, 1], dtype=np.uint8))
    const = Cochain.constant(2, 1)
    checked = 0
    for q in table.elements:
        for slot in range(2):
            t = ElementaryTensor(2, [basis if j == slot else const
                                     for j in range(2)])
            for z in product(range(4), repeat=1):
                zt = (index_point(2, 2, z[0]),)
                lhs = cross_product_eval(
                    t, (act_on_point(p22, wreath_inv(2, q), zt[0]),))
                rhs = cross_product_eval(act_on_cochain(p22, q, t), zt)
                assert lhs == rhs
                checked += 1
    assert checked == 8 * 2 * 4


def test_eta_report_determinism():
    r1 = check_eta_equivariance(SpaceGroupParams(3, 2), 2, 50, seed=123)
    r2 = check_eta_equivariance(SpaceGroupParams(3, 2), 2, 50, seed=123)
    assert r1 == r2


# --- inflation ---------------------------------------------------------------

def test_inflate_level0_is_evaluation():
    # level-0 coordinate t holds pi^(d-1-t); P y mod p, with column t of P
    # the expansion of (zeta-1)^(d-1-t) in the powers of zeta, is the point
    # of T/pT that a level-0 cochain is evaluated at
    rng = random.Random(12)
    for p, x in [(3, 1), (2, 2), (5, 1)]:
        params = SpaceGroupParams(p, x)
        d = params.dim
        coords = QuotientCoords(params, 0)
        assert coords.invariants == (p,) * d
        f = Cochain.random_normalized(p, d, 1, rng)
        seen = set()
        for idx in range(p ** d):
            y = index_point(p, d, idx)
            point = tuple(sum((-1) ** (d - 1 - t - j) * comb(d - 1 - t, j) * y[t]
                              for t in range(d)) % p for j in range(d))
            seen.add(point)
            assert inflate_eval(f, coords, (y,)) == f.eval((point_index(p, point),))
        assert len(seen) == p ** d


def test_inflate_constant():
    params = SpaceGroupParams(3, 1)
    coords = QuotientCoords(params, 2)
    c = Cochain.constant(3, 2, 1)
    assert inflate_eval(c, coords, ()) == 1


def test_inflation_generator_equivariance():
    rep = check_inflation_equivariance(SpaceGroupParams(3, 1), 2, 500, seed=5)
    assert rep["failures"] == 0
    rep22 = check_inflation_equivariance(SpaceGroupParams(2, 2), 1, 200, seed=5)
    assert rep22["failures"] == 0


def test_point_generator_matrix_inverse():
    params = SpaceGroupParams(3, 2)
    fwd = tuple(tuple(v % 3 for v in row)
                for row in companion_cyclotomic(params).data)
    bwd = inverse_point_generator_matrix(params)
    n = len(fwd)
    prod = [[sum(fwd[i][k] * bwd[k][j] for k in range(n)) % 3 for j in range(n)]
            for i in range(n)]
    assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# --- exterior algebra ----------------------------------------------------------

def test_exterior_dims():
    assert exterior_dims(2) == [1, 1]
    assert exterior_dims(3) == [1, 2, 1]
    assert exterior_dims(5) == [1, 4, 6, 4, 1]
    with pytest.raises(ValueError):
        exterior_dims(4)


def test_exterior_squares_vanish():
    for p in (2, 3, 5):
        alg = ExteriorAlgebra(p)
        for g in alg.basis(1):
            coeff, _ = alg.mul_basis(g, g)
            assert coeff == 0


def test_exterior_graded_commutativity():
    for p in (3, 5):
        alg = ExteriorAlgebra(p)
        monos = [m for d in range(p) for m in alg.basis(d)]
        for m1 in monos:
            for m2 in monos:
                c12, prod12 = alg.mul_basis(m1, m2)
                c21, prod21 = alg.mul_basis(m2, m1)
                sign = (-1) ** (len(m1) * len(m2)) % p
                if c12 == 0:
                    assert c21 == 0
                else:
                    assert prod12 == prod21
                    assert c12 == sign * c21 % p


def test_exterior_associativity_all_basis_triples():
    for p in (3, 5):
        alg = ExteriorAlgebra(p)
        monos = [m for d in range(p) for m in alg.basis(d)]
        for m1 in monos:
            for m2 in monos:
                for m3 in monos:
                    left = alg.mul(alg.mul({m1: 1}, {m2: 1}), {m3: 1})
                    right = alg.mul({m1: 1}, alg.mul({m2: 1}, {m3: 1}))
                    assert left == right


def test_exterior_total_dimension():
    for p in (2, 3, 5):
        assert sum(exterior_dims(p)) == 2 ** (p - 1)
