"""Acceptance suite: one test per criterion, printing one PASS line each.

Every expected value is exact; there are no tolerances to tune.
"""

import random
import time

import pytest

from coclass.cochain import (
    Cochain,
    ElementaryTensor,
    act_on_cochain,
    act_on_point,
    check_eta_equivariance,
    cross_product_eval,
    index_point,
)
from coclass.fpmat import FpMatrix
from coclass.groups import enumerate_group
from coclass.resolution import (
    betti_numbers,
    load_resolution,
    minimal_resolution,
    save_resolution,
    verify_theorem,
)
from coclass.spacegroup import (
    SpaceGroupParams,
    b3r,
    quotient_group,
    verify_filtration,
    wreath_group,
    wreath_inv,
)

from _models import abelian_group, permuted
from _oracles import bar_cohomology_dim, frattini_rank, naive_kernel


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_dihedral_theorem():
    t0 = time.time()
    rep = verify_theorem(SpaceGroupParams(2, 1), 5, 8)
    elapsed = time.time() - t0
    vectors = [lv["betti"] for lv in rep["levels"]]
    ok = (rep["allEqual"]
          and vectors[0] == [1, 2, 3, 4, 5, 6, 7, 8, 9]
          and [lv["order"] for lv in rep["levels"]] == [4, 8, 16, 32, 64, 128]
          and elapsed < 60.0)
    _report(1, ok, f"p=2 x=1 levels 0..5 common betti {vectors[0]} "
                   f"in {elapsed:.1f}s")


def test_criterion_2_b3r_theorem(tmp_path):
    t0 = time.time()
    rep = verify_theorem(None, 2, 5, family="b3r", cache_dir=str(tmp_path))
    elapsed = time.time() - t0
    orders = [lv["order"] for lv in rep["levels"]]
    ok = (rep["allEqual"] and orders == [27, 81, 243]
          and rep["maxDegree"] >= 5 and elapsed < 900.0)
    _report(2, ok, f"B(3,r) r=3,4,5 betti {rep['levels'][0]['betti']} "
                   f"equal through degree 5 in {elapsed:.1f}s")


def test_criterion_3_filtration_suite():
    t0 = time.time()
    failures = {}
    for p, x in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]:
        rep = verify_filtration(SpaceGroupParams(p, x), 10, trials=50, seed=1)
        failures[(p, x)] = rep["failures"]
    elapsed = time.time() - t0
    ok = all(v == 0 for v in failures.values())
    _report(3, ok, f"filtration identities for {sorted(failures)} "
                   f"all exact in {elapsed:.1f}s")


def test_criterion_4_eta_equivariance():
    t0 = time.time()
    fail1 = check_eta_equivariance(SpaceGroupParams(3, 2), 1, 1000, seed=101)
    fail2 = check_eta_equivariance(SpaceGroupParams(3, 2), 2, 1000, seed=202)
    # exhaustive p=2, x=2, degree 1
    p22 = SpaceGroupParams(2, 2)
    table = enumerate_group(wreath_group(p22))
    basis = Cochain(2, 1, 1, [0, 1])
    const = Cochain.constant(2, 1)
    exhaustive_fail = 0
    for q in table.elements:
        for slot in range(2):
            t = ElementaryTensor(2, [basis if j == slot else const
                                     for j in range(2)])
            for zi in range(4):
                z = (index_point(2, 2, zi),)
                lhs = cross_product_eval(
                    t, (act_on_point(p22, wreath_inv(2, q), z[0]),))
                rhs = cross_product_eval(act_on_cochain(p22, q, t), z)
                if lhs != rhs:
                    exhaustive_fail += 1
    elapsed = time.time() - t0
    ok = (fail1["failures"] == 0 and fail2["failures"] == 0
          and exhaustive_fail == 0 and elapsed < 60.0)
    _report(4, ok, f"eta equivariance: 1000+1000 seeded trials and 64 "
                   f"exhaustive cases, 0 failures in {elapsed:.1f}s")


def test_criterion_5_oracle_equivalence():
    computed = [
        abelian_group([2]),
        abelian_group([3]),
        abelian_group([5]),
        abelian_group([4]),
        abelian_group([2, 2]),
        abelian_group([3, 3]),
        quotient_group(SpaceGroupParams(2, 1), 1),
        quotient_group(SpaceGroupParams(2, 1), 2),
        quotient_group(SpaceGroupParams(2, 2), 0),
        quotient_group(SpaceGroupParams(2, 2), 1),
        quotient_group(SpaceGroupParams(3, 1), 0),
        quotient_group(SpaceGroupParams(3, 1), 1),
        b3r(3),
        b3r(4),
    ]
    beta1_ok = all(betti_numbers(g, 1)[1] == frattini_rank(g) for g in computed)
    beta2_ok = all(betti_numbers(g, 2)[2] == bar_cohomology_dim(g, 2)
                   for g in computed if g.order <= 81)
    closed_ok = True
    for p in (2, 3, 5):
        closed_ok &= betti_numbers(abelian_group([p]), 8) == [1] * 9
        closed_ok &= betti_numbers(abelian_group([p, p]), 8) == list(range(1, 10))
    ok = beta1_ok and beta2_ok and closed_ok
    _report(5, ok, f"beta_1 = Frattini rank on {len(computed)} groups, "
                   f"beta_2 = bar dimension up to order 81, cyclic and "
                   f"rank-2 closed forms through degree 8")


def test_criterion_6_engineering_determinism(tmp_path):
    rng = random.Random(2024)
    # Betti vectors survive a permuted element ordering
    perm_ok = True
    for g in [quotient_group(SpaceGroupParams(2, 1), 2), b3r(4)]:
        table = enumerate_group(g)
        perm = list(range(1, g.order))
        rng.shuffle(perm)
        perm_ok &= betti_numbers(g, 4) == \
            minimal_resolution(g, 4, table=permuted(g, table, perm)).betti
    # cache round-trip is bit-identical
    g = quotient_group(SpaceGroupParams(2, 1), 1)
    res = minimal_resolution(g, 5)
    save_resolution(res, str(tmp_path))
    back = load_resolution(g.descriptor, str(tmp_path))
    cache_ok = back is not None and all(
        a.to_bytes() == b.to_bytes()
        for a, b in zip(res.boundaries, back.boundaries))
    # packed kernels match the naive oracle on 200 random matrices per prime
    kernel_ok = True
    for p in (2, 3, 5):
        for _ in range(200):
            rows = rng.randrange(1, 12)
            cols = rng.randrange(1, 12)
            dense = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            ours = FpMatrix.from_dense(p, dense).kernel().basis
            oracle = naive_kernel(dense, p)
            if ours.shape[1] != len(oracle) or \
                    any(list(ours[:, j]) != col for j, col in enumerate(oracle)):
                kernel_ok = False
    ok = perm_ok and cache_ok and kernel_ok
    _report(6, ok, "permutation-independent betti, bit-identical cache "
                   "round-trip, 600 kernel/oracle agreements")
