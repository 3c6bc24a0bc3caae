import fcntl
import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from _models import abelian_group, permuted, smith_chart_quotient
from _oracles import (
    bar_cohomology_dim,
    dense_bar_cohomology_dim,
    frattini_rank,
    naive_minimal_resolution,
    naive_mul_table,
    reference_gather_certificate,
)
from coclass import kernels, resolution
from coclass.errors import BudgetError
from coclass.fpmat import FpMatrix
from coclass.groups import ElementTable, enumerate_group
from coclass.resolution import (
    GroupAlgebraContext,
    _cache_lock,
    _reaching_subset,
    betti_numbers,
    clear_cache,
    list_cache,
    load_resolution,
    minimal_resolution,
    resolution_cache_key,
    save_resolution,
    verify_theorem,
)
from coclass.spacegroup import (
    FiniteGroup,
    SpaceGroupParams,
    b3r,
    quotient_group,
    wreath_group,
)


def test_cyclic_groups_all_ones():
    for p in (2, 3, 5):
        assert betti_numbers(abelian_group([p]), 8) == [1] * 9
    assert betti_numbers(abelian_group([4]), 6) == [1] * 7
    assert betti_numbers(abelian_group([9]), 6) == [1] * 7


def test_rank_two_elementary_abelian_linear_growth():
    for p in (2, 3):
        assert betti_numbers(abelian_group([p, p]), 6) == [1, 2, 3, 4, 5, 6, 7]


def test_dihedral8_betti_and_low_degree_oracles():
    d8 = quotient_group(SpaceGroupParams(2, 1), 1)
    betti = betti_numbers(d8, 6)
    assert betti == [1, 2, 3, 4, 5, 6, 7]
    assert betti[1] == frattini_rank(d8)
    assert betti[2] == bar_cohomology_dim(d8, 2)


def test_b33_betti_low_degrees():
    g = b3r(3)
    betti = betti_numbers(g, 4)
    assert betti[0] == 1
    assert betti[1] == 2
    assert betti[1] == frattini_rank(g)


def test_b33_betti_vector_regression():
    # engine-derived; degree 1 corroborated by the Frattini rank, degree 2
    # by the cochain oracle, the whole vector by the permuted-order and
    # cross-model runs
    assert betti_numbers(b3r(3), 5) == [1, 2, 4, 6, 7, 8]


def test_quotients_2_1_level0_vs_level1_identical():
    p21 = SpaceGroupParams(2, 1)
    b0 = betti_numbers(quotient_group(p21, 0), 8)
    b1 = betti_numbers(quotient_group(p21, 1), 8)
    assert b0 == b1 == [1, 2, 3, 4, 5, 6, 7, 8, 9]


def test_boundary_shapes_composites_and_minimality():
    # the resolution stores generator columns, checks composites on them
    # and equivariance once per group; here each d_n is assembled from its
    # columns and both are checked in full: whole products, and every
    # table generator through the reference table
    for g, degree in ((quotient_group(SpaceGroupParams(3, 1), 0), 4),
                      (quotient_group(SpaceGroupParams(2, 2), 1), 5),
                      (b3r(4), 4)):
        res = minimal_resolution(g, degree)
        m = g.order
        table = enumerate_group(g)
        mul, inv = naive_mul_table(g, table)
        ctx = GroupAlgebraContext(g, table=table)
        assert res.betti[0] == 1
        for n in range(1, degree + 1):
            bd = res.boundaries[n - 1]
            assert bd.rows == res.betti[n - 1] * m
            assert bd.cols == res.betti[n]
        full = [resolution._assemble_boundary(ctx, bd.to_dense())
                for bd in res.boundaries]
        for n in range(1, degree):
            assert (full[n - 1] @ full[n]).is_zero()
        for n in range(1, degree + 1):
            dense = full[n - 1].to_dense()
            assert np.array_equal(dense[:, ::m], res.boundaries[n - 1].to_dense())
            # minimality: every group-algebra entry has zero augmentation
            for bi in range(res.betti[n - 1]):
                block = dense[bi * m:(bi + 1) * m]
                assert (block.sum(axis=0) % g.p == 0).all()
            # equivariance: position r of each block of g.x holds x at g^-1 r
            for gen in table.generators:
                shift = np.array(mul[inv[table.index[gen]]])
                rows = (np.arange(res.betti[n - 1])[:, None] * m + shift).ravel()
                cols = (np.arange(res.betti[n])[:, None] * m + shift).ravel()
                assert np.array_equal(dense[np.ix_(rows, cols)], dense)


def test_betti_independent_of_element_order():
    rng = random.Random(99)
    for g in [quotient_group(SpaceGroupParams(2, 1), 2), b3r(4)]:
        table = enumerate_group(g)
        perm = list(range(1, g.order))
        rng.shuffle(perm)
        shuffled = permuted(g, table, perm)
        assert betti_numbers(g, 4) == minimal_resolution(g, 4, table=shuffled).betti


def test_non_p_group_rejected():
    with pytest.raises(ValueError, match="not a power"):
        minimal_resolution(abelian_group([6], p=2), 2)


def test_order_budget():
    with pytest.raises(BudgetError):
        minimal_resolution(quotient_group(SpaceGroupParams(3, 1), 6), 2)


def test_matrix_budget():
    with pytest.raises(BudgetError):
        minimal_resolution(b3r(5), 6, budget_matrix=300)


# --- group algebra tables ---------------------------------------------------

def _table_groups():
    for x, i_max in ((1, 3), (2, 2)):
        for i in range(i_max + 1):
            yield quotient_group(SpaceGroupParams(2, x), i)
    for i in range(3):
        yield quotient_group(SpaceGroupParams(3, 1), i)
    for r in (3, 4, 5):
        yield b3r(r)
    yield wreath_group(SpaceGroupParams(3, 2))
    yield abelian_group([4, 2, 8])


def _group_id(group):
    d = group.descriptor
    x = f"-x{d['x']}" if "x" in d else ""
    return f"{d['model']}-p{d['p']}{x}-order{d['order']}"


@pytest.mark.parametrize("group", list(_table_groups()), ids=_group_id)
def test_context_tables_match_naive_products(group):
    table = enumerate_group(group)
    ctx = GroupAlgebraContext(group, table=table, budget=None)
    mul, inv = naive_mul_table(group, table)
    # gather[r, g] = index of g^-1 * r
    gather = [[mul[inv[g]][r] for g in range(ctx.m)] for r in range(ctx.m)]
    assert ctx.gather.tolist() == gather
    assert resolution._group_tables(group, table, _reaching_subset(table)).tolist() == gather


def test_context_tables_match_naive_products_permuted_order():
    rng = random.Random(7)
    for group in (quotient_group(SpaceGroupParams(2, 2), 1), b3r(4)):
        perm = list(range(1, group.order))
        rng.shuffle(perm)
        table = permuted(group, enumerate_group(group), perm)
        ctx = GroupAlgebraContext(group, table=table)
        mul, inv = naive_mul_table(group, table)
        gather = [[mul[inv[g]][r] for g in range(ctx.m)] for r in range(ctx.m)]
        assert ctx.gather.tolist() == gather
        assert resolution._group_tables(
            group, table, _reaching_subset(table)).tolist() == gather


def test_context_tables_match_naive_products_order_3125():
    # p=5, x=1, i=0: 3125^2 law calls would take minutes, so the reference
    # covers 40 random rows of mul, which are the columns of gather at
    # their inverses, and every inverse, which is row 0 of gather
    group = quotient_group(SpaceGroupParams(5, 1), 0, budget=None)
    table = enumerate_group(group, budget=None)
    ctx = GroupAlgebraContext(group, table=table, budget=None)
    rows = sorted(random.Random(5).sample(range(group.order), 40))
    mul, inv = naive_mul_table(group, table, rows=rows)
    assert ctx.gather[:, [inv[a] for a in rows]].T.tolist() == mul
    assert ctx.gather[0].tolist() == inv


def test_context_peak_is_one_table_and_blocks():
    # order 729: the walked table becomes gather in place, and every check
    # reads it in blocks, so the context's traced peak (numpy reports its
    # arrays to tracemalloc) stays near one m x m int32 table
    group = quotient_group(SpaceGroupParams(3, 1), 3)
    table = enumerate_group(group)
    tracemalloc.start()
    try:
        ctx = GroupAlgebraContext(group, table=table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctx.m == 729
    assert peak <= 1.25 * ctx.m ** 2 * 4


def test_context_reads_the_law_once_per_generator_product():
    # the enumeration evaluates a*g once for each element a and table
    # generator g and keeps its index; the tables take every product from
    # there and only the inverses from the law
    for group in (b3r(4), quotient_group(SpaceGroupParams(2, 2), 1),
                  _c2_4_with_redundant_generator()):
        calls = {"mul": 0, "inv": 0}

        def mul(a, b, law=group.mul):
            calls["mul"] += 1
            return law(a, b)

        def inv(a, law=group.inv):
            calls["inv"] += 1
            return law(a)

        ctx = GroupAlgebraContext(_tampered(group, mul=mul, inv=inv))
        n_gens = len(enumerate_group(group).generators)
        assert calls == {"mul": ctx.m * n_gens, "inv": ctx.m}
        assert ctx.gather.tolist() == \
            GroupAlgebraContext(group).gather.tolist()


def _tampered(group, mul=None, inv=None):
    return FiniteGroup(group.descriptor, group.order, group.p, group.identity,
                       group.generators, mul or group.mul, inv or group.inv)


def test_context_certificate_rejects_a_corrupted_law():
    # the bad product reaches the tables through the enumeration, which
    # evaluates every product the tables read
    group = b3r(3)
    table = enumerate_group(group)
    a, g = table.elements[5], table.generators[1]
    wrong = table.elements[9]
    assert wrong != group.mul(a, g)

    def bad_mul(x, y):
        return wrong if (x, y) == (a, g) else group.mul(x, y)

    with pytest.raises(AssertionError):
        GroupAlgebraContext(_tampered(group, mul=bad_mul))

    def bad_inv(x):
        return wrong if x == a else group.inv(x)

    with pytest.raises(AssertionError):
        GroupAlgebraContext(_tampered(group, inv=bad_inv))


@pytest.mark.parametrize("group", [b3r(3), quotient_group(SpaceGroupParams(3, 1), 3),
                                   quotient_group(SpaceGroupParams(2, 2), 2)],
                         ids=_group_id)
def test_context_refuses_a_wrong_product_in_any_table_column(group):
    # two entries of one column of table.right swapped, so the column is
    # still a permutation: outside S the walk never reads it, and the O(m)
    # check a^-1*(a*g_k) = g_k refuses it; inside S the walk's checks do;
    # a wrong inverse is refused too
    table = enumerate_group(group)
    m, ks = len(table), _reaching_subset(table)
    outside = [k for k in range(len(table.generators)) if k not in ks]
    assert outside
    for k in (outside[0], ks[0]):
        right = table.right.copy()
        right[k, [1, m - 1]] = right[k, [m - 1, 1]]
        bad = ElementTable(group, table.elements, table.generators, right)
        if k in ks:
            with pytest.raises(AssertionError):
                GroupAlgebraContext(group, table=bad, budget=None)
        else:
            assert _reaching_subset(bad) == ks
            own = rf"a\^-1\*\(a\*g_k\) != g_k for table generator k = {k}$"
            with pytest.raises(AssertionError, match=own):
                GroupAlgebraContext(group, table=bad, budget=None)
    a, b = table.elements[1], table.elements[-1]
    swapped = {a: group.inv(b), b: group.inv(a)}

    def bad_inv(x):
        return swapped[x] if x in swapped else group.inv(x)

    with pytest.raises(AssertionError):
        GroupAlgebraContext(_tampered(group, inv=bad_inv), budget=None)


def test_table_certificates_hold_in_blocks_of_one_row(monkeypatch):
    # blocks of 64 entries: one or two rows of the table per block at
    # orders 27 and 81, so each check runs over many blocks; the tables
    # still equal the naive ones, and a
    # fault in the last element's products or in the last rows of gather
    # is still refused
    monkeypatch.setattr(resolution, "_TABLE_BLOCK", 64)
    for group in (b3r(3), b3r(4)):
        table = enumerate_group(group)
        mul, inv = naive_mul_table(group, table)
        m = len(table)
        gather = [[mul[inv[g]][r] for g in range(m)] for r in range(m)]
        assert resolution._group_tables(
            group, table, _reaching_subset(table)).tolist() == gather
        a, g = table.elements[-1], table.generators[-1]
        wrong = table.elements[0] if group.mul(a, g) != table.elements[0] \
            else table.elements[1]

        def bad_mul(x, y, group=group, a=a, g=g, wrong=wrong):
            return wrong if (x, y) == (a, g) else group.mul(x, y)

        with pytest.raises(AssertionError):
            GroupAlgebraContext(_tampered(group, mul=bad_mul))
        # two entries of a column outside S, in rows that only the last
        # blocks of the check x(rs) = (xr)s read on their right-hand side
        # (and not in row e, the inverses)
        ctx = GroupAlgebraContext(group)
        col = m - 1
        rows = [m - 2, m - 1]
        assert col not in ctx.gens
        assert not set(rows) & set(ctx.gather[0, list(ctx.gens)].tolist())
        bad = ctx.gather.copy()
        bad[rows, col] = bad[rows[::-1], col]
        with pytest.raises(AssertionError, match=r"x\*\(r\*s\) != \(x\*r\)\*s"):
            resolution._certify_gather(bad, table, _reaching_subset(table))


def _refused(certify, group, table, gather=None):
    """Whether the context refuses ``table``: the walk of
    :func:`resolution._group_tables` (which checks that it reaches every
    element) unless ``gather`` is given, then ``certify`` on the table."""
    ks = _reaching_subset(table)
    try:
        if gather is None:
            gather = resolution._group_tables(group, table, ks)
        certify(gather, table, ks)
    except AssertionError:
        return True
    return False


def _single_faults(group):
    """(name, group, table, gather or None) for each single fault: two
    entries of a column of ``table.right`` swapped, in S and outside it
    (when there is an outside), one wrong inverse, and two entries of one
    row, or of one column, of the built gather swapped."""
    table = enumerate_group(group)
    m, ks = len(table), _reaching_subset(table)
    outside = [k for k in range(len(table.generators)) if k not in ks]
    for where, k in (("in S", ks[0]), ("outside S", outside[0] if outside else None)):
        if k is not None:
            right = table.right.copy()
            right[k, [1, m - 1]] = right[k, [m - 1, 1]]
            yield (f"right column {where}", group,
                   ElementTable(group, table.elements, table.generators, right), None)
    a, b = table.elements[1], table.elements[-1]

    def bad_inv(x):
        return group.inv(b) if x == a else group.inv(x)

    yield "one wrong inverse", _tampered(group, inv=bad_inv), table, None
    gather = resolution._group_tables(group, table, ks)
    row = gather.copy()
    row[m - 1, [1, m - 2]] = row[m - 1, [m - 2, 1]]
    yield "gather row", group, table, row
    col = gather.copy()
    col[[1, m - 2], m - 1] = col[[m - 2, 1], m - 1]
    yield "gather column", group, table, col


@pytest.mark.parametrize("block", [None, 64])
@pytest.mark.parametrize("group", list(_table_groups()), ids=_group_id)
def test_certificate_refuses_what_the_reference_refuses(group, block, monkeypatch):
    # the certificate checks row e (the inverses) where the reference checks
    # that every column is a permutation, and it has no equivariance pass;
    # both follow from the group law the shorter certificate proves, so on
    # every single fault the two refuse alike, and both accept the table
    if block is not None:
        monkeypatch.setattr(resolution, "_TABLE_BLOCK", block)
    table = enumerate_group(group)
    for certify in (resolution._certify_gather, reference_gather_certificate):
        assert not _refused(certify, group, table)
    for name, bad_group, bad_table, gather in _single_faults(group):
        assert _refused(resolution._certify_gather, bad_group, bad_table, gather), name
        assert _refused(reference_gather_certificate, bad_group, bad_table, gather), name


def test_certificate_refuses_a_law_that_only_the_diagonal_check_refuses():
    # C2 with s*s = s: the walk still reaches both elements, the inverses
    # are a permutation, x(rs) = (xr)s holds and so does a^-1 (a*s) = s,
    # since right multiplication by s is constant; only inv(s)*s = e fails
    c2 = abelian_group([2])
    s = c2.generators[0]

    def bad_mul(x, y):
        return s if (x, y) == (s, s) else c2.mul(x, y)

    bad = _tampered(c2, mul=bad_mul)
    table = enumerate_group(bad)
    assert table.right.tolist() == [[1, 1]]
    with pytest.raises(AssertionError, match=r"inv\(r\)\*r is not the identity"):
        GroupAlgebraContext(bad, table=table)
    assert _refused(reference_gather_certificate, bad, table)


def _table_generator_indices(group):
    """The element indices of the table generators of ``group``."""
    table = enumerate_group(group)
    return [table.index[g] for g in table.generators]


def _c2_4_with_redundant_generator():
    """C2^4 generated by its unit vectors and (1,1,0,0): five table
    generators, of which every irredundant subset has four."""
    base = abelian_group([2, 2, 2, 2])
    return FiniteGroup({**base.descriptor, "extraGenerator": [1, 1, 0, 0]},
                       base.order, base.p, base.identity,
                       base.generators + ((1, 1, 0, 0),), base.mul, base.inv)


# --- resolution step --------------------------------------------------------

def _naive_step_cases():
    for x in (1, 2):
        for i in range(3):
            yield quotient_group(SpaceGroupParams(2, x), i), None, 5 - x
    for i in range(3):
        yield quotient_group(SpaceGroupParams(3, 1), i), None, 3
    for r in (3, 4, 5):
        yield b3r(r), None, 3 if r < 5 else 2
    yield wreath_group(SpaceGroupParams(3, 2)), None, 3
    yield abelian_group([4, 2, 8]), None, 3
    for group in (quotient_group(SpaceGroupParams(2, 2), 1), b3r(4)):
        perm = list(range(1, group.order))
        random.Random(3).shuffle(perm)
        yield group, permuted(group, enumerate_group(group), perm), 3
    yield _c2_4_with_redundant_generator(), None, 3
    for invariants in ([5, 5], [7, 7], [251]):
        yield abelian_group(invariants), None, 3


def _naive_step_id(case):
    group, table, degree = case
    return _group_id(group) + ("-permuted" if table is not None else "") + \
        f"-deg{degree}"


@pytest.mark.parametrize("case", list(_naive_step_cases()), ids=_naive_step_id)
def test_resolution_matches_full_height_head_step(case):
    group, table, degree = case
    res = minimal_resolution(group, degree, table=table)
    betti, boundaries = naive_minimal_resolution(group, degree, table=table)
    assert res.betti == betti
    # the reference assembles every boundary in full; its generator
    # columns are what the resolution keeps
    assert [b.to_bytes() for b in res.boundaries] == \
        [FpMatrix.from_dense(b.p, b.to_dense()[:, ::group.order]).to_bytes()
         for b in boundaries]


def test_generating_subset_has_frattini_rank_size():
    for group, n_gens, rank in ((quotient_group(SpaceGroupParams(2, 2), 2), 3, 2),
                                (quotient_group(SpaceGroupParams(3, 1), 3), 3, 2),
                                (b3r(5), 3, 2),
                                (_c2_4_with_redundant_generator(), 5, 4)):
        table = enumerate_group(group)
        assert len(table.generators) == n_gens
        assert len(_reaching_subset(table)) == frattini_rank(group) == rank


def _corrupt_columns(monkeypatch, degree, corrupt):
    """Make the generator columns of d_degree pass through ``corrupt`` (in
    place) as they are certified, so the stored d_degree and the rows of it
    that the next kernel reads both carry the fault."""
    real = resolution._certified_columns
    built = []

    def certify(ctx, prev, vecs):
        built.append(vecs)
        if len(built) == degree:
            corrupt(vecs, ctx.m)
        return real(ctx, prev, vecs)

    monkeypatch.setattr(resolution, "_certified_columns", certify)


# rows 0 and 1 of a column swapped put a second copy of an inverse in row 0
_INVERSES_NOT_A_PERMUTATION = r"row e of gather \(the inverses\) is not a permutation"


def _swap_in_column(gather, col):
    """``gather`` with the entries of rows 0 and 1 of column ``col`` swapped."""
    bad = gather.copy()
    bad[[0, 1], col] = bad[[1, 0], col]
    return bad


def test_gather_with_two_entries_of_one_column_swapped_is_refused():
    # boundaries are assembled through gather, so a wrong gather would give
    # maps that are not F_p[G]-linear; the once-per-group certificate
    # refuses it, for a column of a generator in S and for one outside S
    group = b3r(3)
    table = enumerate_group(group)
    ks = _reaching_subset(table)
    ctx = GroupAlgebraContext(group, table=table)
    resolution._certify_gather(ctx.gather, table, ks)
    for col in (ctx.gens[0], ctx.gens[1], ctx.m - 1):
        with pytest.raises(AssertionError, match=_INVERSES_NOT_A_PERMUTATION):
            resolution._certify_gather(_swap_in_column(ctx.gather, col), table, ks)


def test_context_with_a_non_equivariant_gather_is_refused(monkeypatch):
    # the same fault arriving through the tables: gather[r, c] is
    # mul[inv[c], r], so two entries of one row of mul swapped are two
    # entries of one column of gather; the context, and so the
    # resolution, is refused before any boundary is built
    real = resolution._group_tables

    def tables(group, table, ks):
        return _swap_in_column(real(group, table, ks), 2)

    monkeypatch.setattr(resolution, "_group_tables", tables)
    kernels = _count_kernels(monkeypatch)
    with pytest.raises(AssertionError, match=_INVERSES_NOT_A_PERMUTATION):
        minimal_resolution(b3r(3), 4)
    assert kernels == []


def test_zeroed_generator_block_breaks_exactness(monkeypatch):
    # d_2 with generator 1 sent to zero is still a module map with
    # d_1 d_2 = 0 and a submodule kernel, but its image misses ker d_1
    def zero(vecs, m):
        vecs[:, 1] = 0

    _corrupt_columns(monkeypatch, 2, zero)
    with pytest.raises(AssertionError, match="not exact at degree 1"):
        minimal_resolution(b3r(3), 3)


def test_nonzero_composite_is_rejected(monkeypatch):
    # one entry of d_2 off by one: d_1 d_2 picks up a nonzero column of d_1
    def bump(vecs, m):
        vecs[0, 0] = (vecs[0, 0] + 1) % 3

    _corrupt_columns(monkeypatch, 2, bump)
    with pytest.raises(AssertionError,
                       match="composite of consecutive boundaries is nonzero"):
        minimal_resolution(b3r(3), 3)


def _corrupt_top_kernel(monkeypatch, degree, corrupt):
    """Make the kernel taken at loop degree ``degree`` pass through
    ``corrupt(kd, free, p)`` (in place, on a copy of its dense basis, with
    ``free`` the elimination's free rows, the last nonzero row of each
    vector) before the resolution reads it."""
    real = FpMatrix.kernel
    calls = []

    def kernel(self):
        kern = real(self)
        calls.append(kern)
        if len(calls) <= degree:
            return kern
        kd = kern.basis.copy()
        corrupt(kd, kern.free, self.p)
        return kern._replace(basis=kd)

    monkeypatch.setattr(FpMatrix, "kernel", kernel)


_TOP_KERNEL_GROUPS = [b3r(3), quotient_group(SpaceGroupParams(2, 2), 1)]


@pytest.mark.parametrize("group", _TOP_KERNEL_GROUPS, ids=_group_id)
def test_wrong_top_kernel_is_refused(group, monkeypatch):
    # the rank comparison runs at the top as at every degree, but a basis
    # vector of ker d_2 knocked out of the kernel keeps the dimension, so
    # the product d_2[F] K = 0 must catch it before its heads are read
    def knock_out(kd, free, p):
        # a basis vector's 1 is its last nonzero entry; change a pivot row
        # above the last vector's 1, so the free rows stay as they are
        row = min(set(range(free[-1])) - set(free.tolist()))
        kd[row, -1] = (kd[row, -1] + 1) % p

    _corrupt_top_kernel(monkeypatch, 2, knock_out)
    with pytest.raises(AssertionError, match="kernel is not inside ker d_2"):
        minimal_resolution(group, 3)


@pytest.mark.parametrize("group", _TOP_KERNEL_GROUPS, ids=_group_id)
def test_top_kernel_off_the_identity_on_its_free_rows_is_refused(group, monkeypatch):
    # the first basis vector added to the last: still a basis of ker d_2
    # with the same last nonzero rows, but the free row of the first
    # vector now reads 1 in the last column, so the coordinates that the
    # heads read off the free rows would be wrong
    def mix(kd, free, p):
        kd[:, -1] = (kd[:, -1] + kd[:, 0]) % p

    _corrupt_top_kernel(monkeypatch, 2, mix)
    with pytest.raises(AssertionError, match="not the identity on its free rows"):
        minimal_resolution(group, 3)


def test_p2_resolution_runs_one_elimination_per_degree(monkeypatch):
    # the heads come from the triangular solve at p = 2 as at odd p, so
    # the packed elimination runs once per degree, for its kernel
    real = resolution.kernels.rref_b2
    calls = []

    def counted(w, ncols):
        calls.append(ncols)
        return real(w, ncols)

    monkeypatch.setattr(resolution.kernels, "rref_b2", counted)
    res = minimal_resolution(quotient_group(SpaceGroupParams(2, 2), 1), 5)
    assert res.betti == [1, 2, 4, 6, 9, 12]
    assert len(calls) == 5


def test_p2_heads_are_checked_by_the_triangular_solve(monkeypatch):
    # a solve whose B misses the kernel of its triangular rows by one
    # entry is refused inside a p = 2 resolution, as at odd p
    real = resolution.kernels._end_solve

    def off_by_one(x, keep, ends, cand, p, neg_inv):
        b = real(x, keep, ends, cand, p, neg_inv)
        b[ends[-1], 0] = (b[ends[-1], 0] + 1) % p
        return b

    monkeypatch.setattr(resolution.kernels, "_end_solve", off_by_one)
    with pytest.raises(AssertionError,
                       match="^triangular solve does not vanish on its rows$"):
        minimal_resolution(quotient_group(SpaceGroupParams(2, 2), 1), 3)


def test_corrupted_orbit_is_rejected_by_the_composite(monkeypatch):
    # one kernel vector changed before it is stored: d_2 is still an
    # F_p[G]-map with zero augmentation, but its second generator no
    # longer lands in ker d_1
    def shift(vecs, m):
        vecs[1, 1] = (vecs[1, 1] + 1) % 3
        vecs[2, 1] = (vecs[2, 1] + 2) % 3

    _corrupt_columns(monkeypatch, 2, shift)
    with pytest.raises(AssertionError,
                       match="composite of consecutive boundaries is nonzero"):
        minimal_resolution(b3r(3), 3)


def test_boundary_column_off_the_previous_kernel_is_refused(monkeypatch):
    # d_2 is changed at one row a off the free rows F of K_1 (a pivot
    # column of d_1[F]), in a generator column.  The column leaves span
    # K_1 (d_1 e_a != 0), so d_2 = K_1 d_2[F] fails, and the composite,
    # taken with d_1[F], must refuse d_2 before its kernel is taken
    real_kernel = FpMatrix.kernel
    kernels_taken = []

    def kernel(self):
        kern = real_kernel(self)
        kernels_taken.append(kern)
        return kern

    monkeypatch.setattr(FpMatrix, "kernel", kernel)

    def bump_off_free(vecs, m):
        kd, free = kernels_taken[-1]  # K_1
        a = min(set(range(kd.shape[0])) - set(free.tolist()))
        vecs[a, 0] = (vecs[a, 0] + 1) % 3

    _corrupt_columns(monkeypatch, 2, bump_off_free)
    with pytest.raises(AssertionError,
                       match="composite of consecutive boundaries is nonzero"):
        minimal_resolution(b3r(3), 3)
    assert len(kernels_taken) == 2  # ker d_0 and ker d_1[F], not ker d_2[F]


def test_nonzero_augmentation_is_rejected():
    ctx = GroupAlgebraContext(b3r(3))
    vecs = np.zeros((2 * ctx.m, 1), dtype=np.uint8)
    vecs[ctx.m + 4, 0] = 1  # block 1 sums to 1
    # a zero d_1 passes the composite, so only minimality can refuse it
    prev = FpMatrix.from_dense(3, np.zeros((ctx.m, 2 * ctx.m), dtype=np.uint8))
    with pytest.raises(AssertionError,
                       match="boundary entry with nonzero augmentation"):
        resolution._certified_columns(ctx, prev, vecs)


def _assembly_cases():
    # order 243 takes two chunks of rows for two row blocks
    for group in (b3r(3), b3r(5), quotient_group(SpaceGroupParams(2, 2), 1)):
        ctx = GroupAlgebraContext(group)
        rng = np.random.default_rng(group.order)
        for beta, cols in ((2, 3), (0, 2), (3, 0), (1, 1)):
            vecs = rng.integers(0, group.p, (beta * ctx.m, cols), dtype=np.uint8)
            for rows in (np.arange(beta * ctx.m),
                         np.sort(rng.choice(beta * ctx.m, beta * ctx.m // 3,
                                            replace=False)),
                         np.arange(0)):
                yield ctx, vecs, rows


def test_assembled_rows_are_the_rows_of_the_whole_boundary():
    # rows F built alone equal the rows F of the whole boundary, which
    # equals the block-by-block reference assembly, at p = 2 and odd p,
    # with no row block, no column and no row
    for ctx, vecs, rows in _assembly_cases():
        m = ctx.m
        whole = resolution._assemble_boundary(ctx, vecs).to_dense()
        assert whole.shape == (vecs.shape[0], vecs.shape[1] * m)
        want = np.zeros_like(whole)
        for t in range(vecs.shape[1]):
            for b in range(vecs.shape[0] // m):
                want[b * m:(b + 1) * m, t * m:(t + 1) * m] = \
                    vecs[b * m:(b + 1) * m, t][ctx.gather]
        assert np.array_equal(whole, want)
        part = resolution._assemble_boundary(ctx, vecs, rows)
        assert (part.p, part.rows, part.cols) == (ctx.p, len(rows), whole.shape[1])
        assert np.array_equal(part.to_dense(), whole[rows])


def test_assembly_peak_is_one_layout_at_odd_p():
    # at odd p the gathered layout is the matrix's data, not copied again:
    # the traced peak stays near one output (1458 x 2916 bytes) plus the
    # chunks of about _TABLE_BLOCK entries, below the two of a copy
    ctx = GroupAlgebraContext(b3r(5))
    vecs = np.random.default_rng(3).integers(0, 3, (6 * ctx.m, 12), dtype=np.uint8)
    size = vecs.shape[0] * vecs.shape[1] * ctx.m
    tracemalloc.start()
    try:
        whole = resolution._assemble_boundary(ctx, vecs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (whole.rows, whole.cols) == (6 * ctx.m, 12 * ctx.m)
    assert peak < 1.5 * size


def test_odd_p_kernel_basis_is_read_in_place(monkeypatch):
    # every dense read of a loaded boundary in an odd-p resolution is the
    # matrix's own read-only data, and the kernel basis is read as the
    # kernel step returned it: the top check gets that very array, and no
    # kernel basis goes through to_dense, resumed or cold
    real = FpMatrix.to_dense
    reads = []

    def to_dense(self, copy=True):
        dense = real(self, copy=copy)
        reads.append(np.shares_memory(dense, self._d) and not dense.flags.writeable)
        return dense

    real_kernel = FpMatrix.kernel
    bases = []

    def kernel(self):
        kern = real_kernel(self)
        bases.append(kern.basis)
        return kern

    real_check = resolution._check_top_kernel
    checked = []

    def check(cur, kd, free, n):
        checked.append(kd is bases[-1])
        return real_check(cur, kd, free, n)

    monkeypatch.setattr(FpMatrix, "to_dense", to_dense)
    monkeypatch.setattr(FpMatrix, "kernel", kernel)
    monkeypatch.setattr(resolution, "_check_top_kernel", check)
    g = b3r(3)
    res = minimal_resolution(g, 3)
    assert (len(reads), len(bases), checked) == (0, 3, [True])
    minimal_resolution(g, 5, start=res)
    assert len(reads) == 2 and all(reads)
    assert (len(bases), checked) == (5, [True, True])


# --- cache ------------------------------------------------------------------

def test_cache_round_trip_bit_identical(tmp_path):
    g = quotient_group(SpaceGroupParams(2, 1), 1)
    res = minimal_resolution(g, 5)
    save_resolution(res, str(tmp_path))
    back = load_resolution(g.descriptor, str(tmp_path))
    assert back is not None
    assert back.betti == res.betti
    assert len(back.boundaries) == len(res.boundaries)
    for a, b in zip(res.boundaries, back.boundaries):
        assert a.to_bytes() == b.to_bytes()


def test_betti_numbers_uses_cache_and_checks_it(tmp_path, monkeypatch):
    g = b3r(3)
    first = betti_numbers(g, 4, cache_dir=str(tmp_path))
    key = resolution_cache_key(g.descriptor)
    manifest_path = tmp_path / key / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["betti"] == first
    assert manifest["maxDegree"] == 4

    # shallower and equal requests are served from the cache
    def refuse(*args, **kwargs):
        raise AssertionError("a cache hit was recomputed")

    monkeypatch.setattr(resolution, "minimal_resolution", refuse)
    assert betti_numbers(g, 2, cache_dir=str(tmp_path)) == first[:3]
    assert betti_numbers(g, 4, cache_dir=str(tmp_path)) == first
    monkeypatch.undo()
    # a poisoned betti no longer matches the stored boundary shapes, so
    # the entry is recomputed and rewritten instead of trusted
    manifest["betti"][-1] = 999
    manifest_path.write_text(json.dumps(manifest))
    assert betti_numbers(g, 4, cache_dir=str(tmp_path)) == first
    assert json.loads(manifest_path.read_text())["betti"] == first


def test_cache_entry_of_another_version_is_recomputed(tmp_path, monkeypatch):
    g = b3r(3)
    first = betti_numbers(g, 3, cache_dir=str(tmp_path))
    manifest_path = tmp_path / resolution_cache_key(g.descriptor) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["version"] == resolution.CACHE_VERSION
    manifest["version"] = resolution.CACHE_VERSION - 1
    manifest_path.write_text(json.dumps(manifest))
    assert load_resolution(g.descriptor, str(tmp_path)) is None
    calls = _count_computes(monkeypatch)
    assert betti_numbers(g, 3, cache_dir=str(tmp_path)) == first
    assert calls == [3]
    assert json.loads(manifest_path.read_text())["version"] == \
        resolution.CACHE_VERSION


def test_version3_entry_is_recomputed_not_resumed(tmp_path, monkeypatch):
    # version 3 wrote a quotient's boundaries over its Smith-coordinate
    # element order; the key is unchanged, so resuming such an entry would
    # read its columns in the wrong basis
    params = SpaceGroupParams(3, 1)
    g = quotient_group(params, 1)
    monkeypatch.setattr(resolution, "CACHE_VERSION", 3)
    save_resolution(minimal_resolution(smith_chart_quotient(params, 1), 3),
                    str(tmp_path))
    monkeypatch.undo()
    base = tmp_path / resolution_cache_key(g.descriptor)
    old = [(base / f"{n}.fpmx").read_bytes() for n in range(1, 4)]
    assert json.loads((base / "manifest.json").read_text())["version"] == 3
    assert load_resolution(g.descriptor, str(tmp_path)) is None

    starts = []
    real = resolution.minimal_resolution

    def spy(group, max_degree, **kwargs):
        starts.append(kwargs.get("start"))
        return real(group, max_degree, **kwargs)

    monkeypatch.setattr(resolution, "minimal_resolution", spy)
    assert betti_numbers(g, 4, cache_dir=str(tmp_path)) == [1, 2, 4, 6, 7]
    assert starts == [None]
    monkeypatch.undo()
    cold = tmp_path / "cold"
    betti_numbers(g, 4, cache_dir=str(cold))
    new = [(base / f"{n}.fpmx").read_bytes() for n in range(1, 5)]
    assert new == [(cold / base.name / f"{n}.fpmx").read_bytes()
                   for n in range(1, 5)]
    assert new[:3] != old
    assert json.loads((base / "manifest.json").read_text())["version"] == \
        resolution.CACHE_VERSION


def _count_computes(monkeypatch):
    calls = []
    real = resolution.minimal_resolution

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(resolution, "minimal_resolution", counted)
    return calls


def test_cache_wrong_shape_boundary_is_recomputed(tmp_path, monkeypatch):
    g = b3r(3)
    first = betti_numbers(g, 4, cache_dir=str(tmp_path))
    assert first == [1, 2, 4, 6, 7]
    base = tmp_path / resolution_cache_key(g.descriptor)
    good = (base / "3.fpmx").read_bytes()
    wrong = FpMatrix.from_dense(3, np.zeros((4 * 27, 5 * 27)))
    (base / "3.fpmx").write_bytes(wrong.to_bytes())
    assert load_resolution(g.descriptor, str(tmp_path)) is None
    calls = _count_computes(monkeypatch)
    assert betti_numbers(g, 4, cache_dir=str(tmp_path)) == first
    assert calls == [4]
    assert (base / "3.fpmx").read_bytes() == good
    assert load_resolution(g.descriptor, str(tmp_path)).betti == first


def test_load_rejects_betti_length_mismatch(tmp_path):
    g = abelian_group([3])
    save_resolution(minimal_resolution(g, 3), str(tmp_path))
    manifest_path = tmp_path / resolution_cache_key(g.descriptor) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert load_resolution(g.descriptor, str(tmp_path)) is not None
    for bad in ({**manifest, "betti": manifest["betti"][:-1]},
                {**manifest, "maxDegree": "3"}, [manifest]):
        manifest_path.write_text(json.dumps(bad))
        assert load_resolution(g.descriptor, str(tmp_path)) is None


def test_load_rejects_betti_that_are_not_integers(tmp_path):
    g = abelian_group([3])
    save_resolution(minimal_resolution(g, 3), str(tmp_path))
    manifest_path = tmp_path / resolution_cache_key(g.descriptor) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for bad in ({**manifest, "betti": [1.0, 1.0, 1.0, 1.0]},
                {**manifest, "betti": [1, 1, 1.0, 1]},
                {**manifest, "betti": [True, 1, 1, 1]},
                {**manifest, "betti": [1, 1, -1, 1]},
                {**manifest, "betti": [2, 1, 1, 1]},
                {**manifest, "betti": [], "maxDegree": -1},
                {**manifest, "maxDegree": 3.0},
                {**manifest, "betti": [1, 1], "maxDegree": True}):
        manifest_path.write_text(json.dumps(bad))
        assert load_resolution(g.descriptor, str(tmp_path)) is None
        assert list_cache(str(tmp_path)) == []
        assert betti_numbers(g, 3, cache_dir=str(tmp_path)) == [1, 1, 1, 1]
        assert json.loads(manifest_path.read_text()) == manifest


def test_save_writes_atomically_manifest_last(tmp_path, monkeypatch):
    g = abelian_group([3])
    save_resolution(minimal_resolution(g, 2), str(tmp_path))
    base = tmp_path / resolution_cache_key(g.descriptor)
    replaced = []
    real_replace = os.replace

    def recording_replace(src, dst):
        replaced.append((src, dst))
        if dst.endswith("manifest.json"):
            raise OSError("simulated crash before the manifest")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    with pytest.raises(OSError, match="simulated"):
        save_resolution(minimal_resolution(g, 4), str(tmp_path))
    monkeypatch.undo()
    assert [os.path.basename(dst) for _, dst in replaced] == \
        ["1.fpmx", "2.fpmx", "3.fpmx", "4.fpmx", "manifest.json"]
    assert all(os.path.dirname(src) == os.path.dirname(dst) != ""
               and src != dst for src, dst in replaced)
    # no temporary is left behind, and the old entry is still whole
    assert sorted(os.listdir(base)) == \
        ["1.fpmx", "2.fpmx", "3.fpmx", "4.fpmx", "manifest.json"]
    back = load_resolution(g.descriptor, str(tmp_path))
    assert back.max_degree == 2 and back.betti == [1, 1, 1]


def test_cache_list_and_clear(tmp_path):
    g = abelian_group([2])
    betti_numbers(g, 3, cache_dir=str(tmp_path))
    entries = list_cache(str(tmp_path))
    assert len(entries) == 1
    assert entries[0]["betti"] == [1, 1, 1, 1]
    assert clear_cache(str(tmp_path)) == 1
    assert list_cache(str(tmp_path)) == []


def test_cache_clear_waits_for_an_entry_lock_and_keeps_it(tmp_path):
    g = abelian_group([2])
    betti_numbers(g, 2, cache_dir=str(tmp_path))
    key = resolution_cache_key(g.descriptor)
    lock = tmp_path / (key + ".lock")
    held, release, cleared = threading.Event(), threading.Event(), []

    def holder():  # a run that holds the entry
        with _cache_lock(str(lock)):
            held.set()
            release.wait(60)

    threads = [threading.Thread(target=holder),
               threading.Thread(target=lambda: cleared.append(clear_cache(str(tmp_path))))]
    threads[0].start()
    assert held.wait(60)
    threads[1].start()
    try:
        threads[1].join(0.5)
        assert cleared == [] and (tmp_path / key / "manifest.json").exists()
    finally:
        release.set()
        for t in threads:
            t.join(60)
    assert cleared == [1]
    assert not (tmp_path / key).exists()
    assert lock.exists()


def test_cache_fpmx_files_exist(tmp_path):
    g = abelian_group([3])
    res = minimal_resolution(g, 3)
    save_resolution(res, str(tmp_path))
    base = tmp_path / res.key
    for n in (1, 2, 3):
        data = (base / f"{n}.fpmx").read_bytes()
        assert data[:4] == b"FPMX"
        mat = FpMatrix.from_bytes(data)
        assert mat == res.boundaries[n - 1]


def test_cache_key_stability():
    g1 = b3r(3)
    g2 = b3r(3)
    assert resolution_cache_key(g1.descriptor) == resolution_cache_key(g2.descriptor)
    assert resolution_cache_key(b3r(4).descriptor) != resolution_cache_key(g1.descriptor)
    # the key is the SHA-256 of the canonical descriptor JSON, nothing more
    blob = json.dumps(g1.descriptor, sort_keys=True, separators=(",", ":"))
    assert resolution_cache_key(g1.descriptor) == \
        hashlib.sha256(blob.encode()).hexdigest()


def test_cache_lock_excludes_other_holders(tmp_path):
    lock = str(tmp_path / "k.lock")
    with _cache_lock(lock):
        fd = os.open(lock, os.O_RDWR)
        try:
            with pytest.raises(BlockingIOError):
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        finally:
            os.close(fd)
    with _cache_lock(lock):
        pass


_SLOW_BETTI = """
import json, sys, time
from coclass import resolution
from coclass.spacegroup import b3r

log, cache_dir, name, mode = sys.argv[1:5]


def note(line):
    with open(log, "a") as fh:
        fh.write(line + "\\n")


def lines():
    with open(log) as fh:
        return fh.read().split()


real = resolution.minimal_resolution


def slowed(*args, **kwargs):
    note("compute-" + name)
    if mode == "hang":
        time.sleep(600)
    # hold the lock until the other process has asked for the same entry
    deadline = time.monotonic() + 60
    while "call-b" not in lines() and time.monotonic() < deadline:
        time.sleep(0.02)
    time.sleep(0.5)
    return real(*args, **kwargs)


resolution.minimal_resolution = slowed
note("call-" + name)
print(json.dumps(resolution.betti_numbers(b3r(3), 4, cache_dir=cache_dir)))
note("done-" + name)
"""


def _start_betti(tmp_path, name, mode):
    src = os.path.dirname(os.path.dirname(resolution.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.Popen(
        [sys.executable, "-c", _SLOW_BETTI, str(tmp_path / "log"),
         str(tmp_path / "cache"), name, mode],
        stdout=subprocess.PIPE, env=env, text=True)


def _wait_for_line(tmp_path, line, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        log = tmp_path / "log"
        if log.exists() and line in log.read_text().split():
            return
        time.sleep(0.02)
    raise AssertionError(f"{line!r} never logged")


def test_cache_second_process_waits_then_hits(tmp_path):
    procs = [_start_betti(tmp_path, "a", "slow")]
    try:
        _wait_for_line(tmp_path, "compute-a")
        procs.append(_start_betti(tmp_path, "b", "slow"))
        outs = [proc.communicate(timeout=120)[0] for proc in procs[::-1]]
    finally:
        for proc in procs:
            proc.kill()
    assert [proc.returncode for proc in procs] == [0, 0]
    assert [json.loads(out) for out in outs] == [[1, 2, 4, 6, 7]] * 2
    log = (tmp_path / "log").read_text().split()
    # b asked while a held the lock, and the resolution was computed once
    assert log.index("call-b") < log.index("done-a")
    assert [x for x in log if x.startswith("compute")] == ["compute-a"]


def test_cache_lock_of_a_killed_process_is_released(tmp_path):
    first = _start_betti(tmp_path, "a", "hang")
    try:
        _wait_for_line(tmp_path, "compute-a")
    finally:
        first.kill()
        first.communicate(timeout=60)
    second = _start_betti(tmp_path, "b", "slow")
    out_b, _ = second.communicate(timeout=120)
    assert second.returncode == 0
    assert json.loads(out_b) == [1, 2, 4, 6, 7]
    log = (tmp_path / "log").read_text().split()
    assert log == ["call-a", "compute-a", "call-b", "compute-b", "done-b"]


# --- resuming a cached resolution ---------------------------------------------

def _resume_cases():
    yield quotient_group(SpaceGroupParams(2, 2), 2), 6, 7
    yield b3r(4), 3, 6
    yield quotient_group(SpaceGroupParams(3, 1), 1), 1, 4
    yield abelian_group([251]), 2, 3
    yield b3r(3), 0, 3  # an entry with no boundary yet


def _count_kernels(monkeypatch):
    calls = []
    real = FpMatrix.kernel

    def counted(self):
        calls.append((self.rows, self.cols))
        return real(self)

    monkeypatch.setattr(FpMatrix, "kernel", counted)
    return calls


@pytest.mark.parametrize(
    "case", list(_resume_cases()),
    ids=lambda c: f"{_group_id(c[0])}-deg{c[1]}to{c[2]}")
def test_extending_a_cached_entry_matches_a_cold_run(case, tmp_path, monkeypatch):
    group, start, stop = case
    cold = minimal_resolution(group, stop)
    betti_numbers(group, start, cache_dir=str(tmp_path))
    kernels = _count_kernels(monkeypatch)
    assert betti_numbers(group, stop, cache_dir=str(tmp_path)) == cold.betti
    # one kernel elimination per new degree, none for the cached ones
    assert len(kernels) == stop - start
    back = load_resolution(group.descriptor, str(tmp_path))
    assert back.max_degree == stop
    assert back.betti == cold.betti
    assert [b.to_bytes() for b in back.boundaries] == \
        [b.to_bytes() for b in cold.boundaries]


def test_resume_takes_the_kernels_of_a_cold_run(tmp_path, monkeypatch):
    # a resumed run reads the free rows F of ker d_{N-1} from its entry, so
    # its first kernel is taken on d_N[F], a proper part of d_N, and every
    # kernel has the shape of a cold run's; the entry it writes, manifest
    # included, is byte-identical to the cold entry
    for group, start, stop in ((quotient_group(SpaceGroupParams(2, 2), 2), 4, 7),
                               (b3r(4), 3, 6)):
        cold_dir, warm_dir = tmp_path / f"cold{group.p}", tmp_path / f"warm{group.p}"
        cold_shapes = _count_kernels(monkeypatch)
        cold = betti_numbers(group, stop, cache_dir=str(cold_dir))
        monkeypatch.undo()
        betti_numbers(group, start, cache_dir=str(warm_dir))
        shapes = _count_kernels(monkeypatch)
        assert betti_numbers(group, stop, cache_dir=str(warm_dir)) == cold
        monkeypatch.undo()
        assert shapes == cold_shapes[start:]
        assert shapes[0][0] < cold[start - 1] * group.order
        assert cold_shapes[0] == (1, group.order)  # d_0, the augmentation
        key = resolution_cache_key(group.descriptor)
        for name in ["manifest.json"] + [f"{n}.fpmx" for n in range(1, stop + 1)]:
            assert (warm_dir / key / name).read_bytes() == \
                (cold_dir / key / name).read_bytes()


def _rewrite_manifest(group, cache_dir, **fields):
    """Replace ``fields`` in the manifest of ``group``'s entry (a field set
    to None is dropped)."""
    path = cache_dir / resolution_cache_key(group.descriptor) / "manifest.json"
    bad = {**json.loads(path.read_text()), **fields}
    path.write_text(json.dumps({k: v for k, v in bad.items() if v is not None}))


def _count_starts(monkeypatch):
    starts = []
    real = resolution.minimal_resolution

    def spy(group, max_degree, **kwargs):
        start = kwargs.get("start")
        starts.append(None if start is None else start.max_degree)
        return real(group, max_degree, **kwargs)

    monkeypatch.setattr(resolution, "minimal_resolution", spy)
    return starts


def test_manifest_holds_the_free_rows_of_the_top_kernel(tmp_path):
    # k_{N-1} ascending rows of d_N, those where the kernel basis of
    # d_{N-1} is the identity; [0], the augmentation's row, at N = 0
    g = b3r(3)
    for degree in (0, 1, 3):
        res = minimal_resolution(g, degree)
        save_resolution(res, str(tmp_path / str(degree)))
        manifest = json.loads((tmp_path / str(degree) / res.key / "manifest.json").read_text())
        assert manifest["free"] == res.free.tolist()
        assert load_resolution(g.descriptor, str(tmp_path / str(degree))).free.tolist() == \
            manifest["free"]
        if degree == 0:
            assert manifest["free"] == [0]
            continue
        prev = (FpMatrix.from_dense(3, np.ones((1, g.order))) if degree == 1 else
                resolution._assemble_boundary(GroupAlgebraContext(g),
                                              res.boundaries[-2].to_dense()))
        kern = prev.kernel().basis
        assert kern.shape == (res.boundaries[-1].rows, len(manifest["free"]))
        assert np.array_equal(kern[manifest["free"]], np.eye(kern.shape[1]))


def test_malformed_free_rows_are_refused_and_recomputed(tmp_path, monkeypatch):
    g = b3r(3)
    betti_numbers(g, 2, cache_dir=str(tmp_path))
    path = tmp_path / resolution_cache_key(g.descriptor) / "manifest.json"
    good_bytes = path.read_bytes()
    good = json.loads(good_bytes)
    free = good["free"]
    rows = good["betti"][1] * g.order
    extra = sorted(free + [min(set(range(rows)) - set(free))])
    for bad in ([float(free[0])] + free[1:],     # a float
                [True] + free[1:],               # a boolean
                [free[1], free[0]] + free[2:],   # unsorted
                free[:1] + free[:-1],            # a repeated row
                [-1] + free[1:],                 # below the first row
                free[:-1] + [rows],              # past the last row
                free[:-1],                       # one row short
                extra,                           # one row too many
                {"0": 0}, None):                 # not a list, or absent
        _rewrite_manifest(g, tmp_path, free=bad)
        assert load_resolution(g.descriptor, str(tmp_path)) is None
        starts = _count_starts(monkeypatch)
        assert betti_numbers(g, 2, cache_dir=str(tmp_path)) == good["betti"]
        monkeypatch.undo()
        assert starts == [None]
        assert path.read_bytes() == good_bytes


def _swapped_free_row(group, entry, keep_rank):
    """The free rows of ``entry``'s top with one row f_j swapped for a row
    a outside them, where the kernel basis K of d_{N-1} has K[a, j] != 0
    (``keep_rank``: d_N[F] keeps its rank) or K[a, j] = 0 (row a of d_N
    is a combination of the other rows of F, so d_N[F] loses rank)."""
    ctx = GroupAlgebraContext(group)
    prev = resolution._assemble_boundary(ctx, entry.boundaries[-2].to_dense())
    kern = prev.kernel().basis
    free = entry.free.tolist()
    a, j = next((a, j) for a in range(kern.shape[0]) if a not in free
                for j in range(len(free)) if bool(kern[a, j]) == keep_rank)
    return sorted(set(free) - {free[j]} | {a})


def test_free_rows_that_lose_rank_are_not_exact(tmp_path):
    # a well-formed list whose rows of d_N are dependent: the rank
    # comparison at degree N refuses it before anything is read off it
    g = b3r(3)
    betti_numbers(g, 3, cache_dir=str(tmp_path))
    entry = load_resolution(g.descriptor, str(tmp_path))
    _rewrite_manifest(g, tmp_path, free=_swapped_free_row(g, entry, keep_rank=False))
    assert load_resolution(g.descriptor, str(tmp_path)) is not None
    with pytest.raises(AssertionError, match="not exact at degree 2"):
        betti_numbers(g, 4, cache_dir=str(tmp_path))


def test_other_free_rows_of_full_rank_give_the_cold_entry(tmp_path):
    # rows of d_N that keep its rank have its kernel, so its reduced
    # echelon form: the extended entry is the cold one, byte for byte
    g = b3r(3)
    betti_numbers(g, 3, cache_dir=str(tmp_path / "warm"))
    betti_numbers(g, 5, cache_dir=str(tmp_path / "cold"))
    entry = load_resolution(g.descriptor, str(tmp_path / "warm"))
    other = _swapped_free_row(g, entry, keep_rank=True)
    assert other != entry.free.tolist()
    _rewrite_manifest(g, tmp_path / "warm", free=other)
    betti_numbers(g, 5, cache_dir=str(tmp_path / "warm"))
    key = resolution_cache_key(g.descriptor)
    for name in ["manifest.json"] + [f"{n}.fpmx" for n in range(1, 6)]:
        assert (tmp_path / "warm" / key / name).read_bytes() == \
            (tmp_path / "cold" / key / name).read_bytes()


def test_version4_entry_is_recomputed(tmp_path, monkeypatch):
    # version 4 kept no free rows; its entries are recomputed from degree 0
    # and rewritten as the cold entry of this version
    g = quotient_group(SpaceGroupParams(2, 2), 1)
    betti_numbers(g, 3, cache_dir=str(tmp_path / "cold"))
    betti_numbers(g, 3, cache_dir=str(tmp_path / "old"))
    _rewrite_manifest(g, tmp_path / "old", free=None, version=4)
    assert load_resolution(g.descriptor, str(tmp_path / "old")) is None
    starts = _count_starts(monkeypatch)
    assert betti_numbers(g, 3, cache_dir=str(tmp_path / "old")) == [1, 2, 4, 6]
    assert starts == [None]
    key = resolution_cache_key(g.descriptor)
    assert (tmp_path / "old" / key / "manifest.json").read_bytes() == \
        (tmp_path / "cold" / key / "manifest.json").read_bytes()


def test_extending_an_entry_leaves_its_boundaries_in_place(tmp_path):
    g = abelian_group([3, 3])
    betti_numbers(g, 2, cache_dir=str(tmp_path))
    base = tmp_path / resolution_cache_key(g.descriptor)
    before = [(base / f"{n}.fpmx").stat() for n in (1, 2)]
    betti_numbers(g, 4, cache_dir=str(tmp_path))
    after = [(base / f"{n}.fpmx").stat() for n in (1, 2)]
    assert [(st.st_ino, st.st_mtime_ns) for st in after] == \
        [(st.st_ino, st.st_mtime_ns) for st in before]
    assert load_resolution(g.descriptor, str(tmp_path)).max_degree == 4


def test_start_beyond_max_degree_is_rejected():
    g = b3r(3)
    with pytest.raises(ValueError, match="through degree 1 from degree 2"):
        minimal_resolution(g, 1, start=minimal_resolution(g, 2))


def _extend_tampered_top(tmp_path, group, degree, tamper):
    """Cache ``group`` through ``degree``, pass the generator columns of
    the top boundary through ``tamper`` (in place) and write them back,
    then ask for one degree more.  Shape and residue range are kept, so
    the entry still loads."""
    betti_numbers(group, degree, cache_dir=str(tmp_path))
    path = tmp_path / resolution_cache_key(group.descriptor) / f"{degree}.fpmx"
    top = FpMatrix.from_bytes(path.read_bytes()).to_dense()
    tamper(top, GroupAlgebraContext(group))
    path.write_bytes(FpMatrix.from_dense(group.p, top).to_bytes())
    assert load_resolution(group.descriptor, str(tmp_path)) is not None
    return betti_numbers(group, degree + 1, cache_dir=str(tmp_path))


def test_resumed_top_with_one_changed_residue_is_rejected(tmp_path):
    # every stored entry is a generator column: one residue changed moves
    # the image of generator 1 off ker d_2
    def bump(top, ctx):
        top[0, 1] = (top[0, 1] + 1) % ctx.p

    with pytest.raises(AssertionError,
                       match="composite of consecutive boundaries is nonzero"):
        _extend_tampered_top(tmp_path, b3r(3), 3, bump)


def test_resumed_top_after_a_row_operation_is_rejected(tmp_path):
    # a row operation on the dense top was invertible and only broke
    # equivariance; on the generator columns it defines another F_p[G]-map,
    # whose columns leave ker d_2
    def add_row(top, ctx):
        s = next(i for i in range(1, top.shape[0]) if top[i].any())
        top[s - 1] = (top[s - 1] + top[s]) % ctx.p

    with pytest.raises(AssertionError,
                       match="composite of consecutive boundaries is nonzero"):
        _extend_tampered_top(tmp_path, b3r(3), 3, add_row)


def test_resumed_top_off_the_kernel_is_rejected_by_the_composite(tmp_path):
    # right multiplication by a generator on the first row block is an
    # automorphism of the free module that commutes with left
    # translation: d_3 stays an F_p[G]-map with the same kernel and rank,
    # but its image leaves ker d_2
    def right_translate(top, ctx):
        # gather[g, inv[a]] = index of a*g, and gather[0] = inv
        g = _table_generator_indices(b3r(3))[0]
        top[ctx.gather[g, ctx.gather[0]]] = top[:ctx.m].copy()

    with pytest.raises(AssertionError,
                       match="composite of consecutive boundaries is nonzero"):
        _extend_tampered_top(tmp_path, b3r(3), 3, right_translate)


def test_resumed_top_with_a_smaller_image_is_not_exact(tmp_path):
    # generator 5's vector v becomes (g-1)v: d_3 is still an F_p[G]-map
    # with d_2 d_3 = 0 and entries in the augmentation ideal, but its image
    # is smaller than ker d_2, which the rank comparison at degree 3 sees
    def shrink(top, ctx):
        # left translation by g: perm[b*m + r] = b*m + index of g^-1 * r
        g = _table_generator_indices(b3r(3))[0]
        rows = np.arange(top.shape[0])
        perm = (rows // ctx.m) * ctx.m + ctx.gather[rows % ctx.m, g]
        top[:, 5] = (top[perm, 5].astype(np.int16) - top[:, 5]) % ctx.p

    with pytest.raises(AssertionError, match="not exact at degree 2"):
        _extend_tampered_top(tmp_path, b3r(3), 3, shrink)


def test_version_2_entry_is_recomputed_as_the_current_version(tmp_path, monkeypatch):
    # a version-2 entry holds every boundary dense: it is refused by its
    # version, never read as generator columns, recomputed from degree 0
    # and rewritten as an entry of the current version
    g = abelian_group([3, 3])
    betti, dense = naive_minimal_resolution(g, 3)
    base = tmp_path / resolution_cache_key(g.descriptor)
    base.mkdir()
    for n, mat in enumerate(dense, start=1):
        (base / f"{n}.fpmx").write_bytes(mat.to_bytes())
    (base / "manifest.json").write_text(json.dumps(
        {"betti": betti, "maxDegree": 3, "version": 2}))
    assert load_resolution(g.descriptor, str(tmp_path)) is None
    assert list_cache(str(tmp_path)) == []
    starts = []
    real = resolution.minimal_resolution

    def counted(*args, **kwargs):
        starts.append(kwargs.get("start"))
        return real(*args, **kwargs)

    monkeypatch.setattr(resolution, "minimal_resolution", counted)
    assert betti_numbers(g, 4, cache_dir=str(tmp_path)) == [1, 2, 3, 4, 5]
    assert starts == [None]
    monkeypatch.undo()
    assert json.loads((base / "manifest.json").read_text())["version"] == \
        resolution.CACHE_VERSION
    cold = minimal_resolution(g, 4)
    for n in range(1, 5):
        mat = FpMatrix.from_bytes((base / f"{n}.fpmx").read_bytes())
        assert (mat.rows, mat.cols) == (cold.betti[n - 1] * 9, cold.betti[n])
        assert mat == cold.boundaries[n - 1]


def test_negative_degrees_and_levels_are_rejected(tmp_path):
    g = abelian_group([3])
    for cache_dir in (None, str(tmp_path)):
        with pytest.raises(ValueError, match="max_degree must be >= 0"):
            betti_numbers(g, -2, cache_dir=cache_dir)
    assert not list(tmp_path.iterdir())
    with pytest.raises(ValueError, match="i_max = -1 < 0"):
        verify_theorem(SpaceGroupParams(2, 1), -1, 2)
    with pytest.raises(ValueError, match="r_max = 2 < 3"):
        verify_theorem(SpaceGroupParams(3, 1), -1, 2, family="b3r")


def test_cache_list_skips_malformed_manifests(tmp_path):
    betti_numbers(abelian_group([2]), 2, cache_dir=str(tmp_path))
    for name, manifest in (("abc", {"version": 2}),
                           ("def", {"betti": [1, 1], "maxDegree": 3}),
                           ("ghi", [1, 2]),
                           # well formed, but of another cache version
                           ("jkl", {"betti": [1, 1], "maxDegree": 1, "version": 1})):
        (tmp_path / name).mkdir()
        (tmp_path / name / "manifest.json").write_text(json.dumps(manifest))
    assert [e["betti"] for e in list_cache(str(tmp_path))] == [[1, 1, 1]]


# --- bar oracle --------------------------------------------------------------

def test_bar_degree0():
    assert bar_cohomology_dim(abelian_group([4]), 0) == 1
    assert bar_cohomology_dim(b3r(3), 0) == 1


def test_bar_degree1_elementary_abelian():
    for p, k in [(2, 2), (2, 3), (3, 2)]:
        assert bar_cohomology_dim(abelian_group([p] * k), 1) == k


def test_bar_degree1_matches_frattini():
    for g in [abelian_group([4]), quotient_group(SpaceGroupParams(2, 1), 1),
              b3r(3)]:
        assert bar_cohomology_dim(g, 1) == frattini_rank(g)


def test_bar_degree2_c4():
    assert bar_cohomology_dim(abelian_group([4]), 2) == 1


def test_bar_strategies_agree_small():
    groups = [abelian_group([2, 2]), abelian_group([4]),
              quotient_group(SpaceGroupParams(2, 1), 1), abelian_group([3, 3]),
              abelian_group([8]), abelian_group([2, 2, 2])]
    for g in groups:
        for n in (1, 2):
            assert bar_cohomology_dim(g, n) == dense_bar_cohomology_dim(g, n), \
                g.descriptor


def test_bar_degree_cap_and_budget():
    with pytest.raises(ValueError):
        bar_cohomology_dim(abelian_group([2]), 3)
    with pytest.raises(BudgetError):
        bar_cohomology_dim(b3r(4), 2, budget=100)


def test_beta2_equals_bar_up_to_81():
    groups = [
        abelian_group([2, 2]),
        abelian_group([4]),
        quotient_group(SpaceGroupParams(2, 1), 1),
        quotient_group(SpaceGroupParams(2, 1), 2),
        quotient_group(SpaceGroupParams(2, 2), 0),
        b3r(3),
        b3r(4),
        quotient_group(SpaceGroupParams(3, 1), 1),
    ]
    for g in groups:
        assert betti_numbers(g, 2)[2] == bar_cohomology_dim(g, 2), g.descriptor


# --- theorem report -----------------------------------------------------------

def test_verify_theorem_trivial_single_level():
    rep = verify_theorem(SpaceGroupParams(2, 1), 0, 4)
    assert rep["allEqual"] is True
    assert len(rep["levels"]) == 1


def test_verify_theorem_dihedral_small():
    rep = verify_theorem(SpaceGroupParams(2, 1), 3, 5)
    assert rep["allEqual"] is True
    assert rep["levels"][0]["betti"] == [1, 2, 3, 4, 5, 6]


def test_verify_theorem_p2_x2_instance():
    rep = verify_theorem(SpaceGroupParams(2, 2), 2, 6)
    assert rep["allEqual"] is True
    assert [lv["order"] for lv in rep["levels"]] == [16, 32, 64]
    assert rep["levels"][0]["betti"] == [1, 2, 4, 6, 9, 12, 16]


def test_verify_theorem_p2_x3_fixture():
    # orders 128 and 256, every elimination on the packed GF(2) path
    rep = verify_theorem(SpaceGroupParams(2, 3), 1, 5)
    assert rep["allEqual"] is True
    assert [lv["order"] for lv in rep["levels"]] == [128, 256]
    assert [lv["betti"] for lv in rep["levels"]] == [[1, 2, 5, 10, 20, 34]] * 2


def test_cross_model_betti_agreement():
    # the companion-matrix quotients and the explicit order-3^r family are
    # isomorphic groups built through different integral actions
    for i in range(2):
        a = betti_numbers(quotient_group(SpaceGroupParams(3, 1), i), 4)
        b = betti_numbers(b3r(3 + i), 4)
        assert a == b


def _entry_files(cache_dir):
    """Every file of every entry under ``cache_dir``, by relative path."""
    return {str(path.relative_to(cache_dir)): path.read_bytes()
            for path in sorted(cache_dir.glob("*/*"))}


@pytest.mark.parametrize("group, degrees", [
    (b3r(4), [5]),
    (quotient_group(SpaceGroupParams(2, 2), 2), [6]),
    (quotient_group(SpaceGroupParams(2, 2), 2), [4, 6]),
], ids=["b3r4", "p2x2-cold", "p2x2-resumed"])
def test_small_blocks_write_the_same_entries(group, degrees, tmp_path, monkeypatch):
    # 64 entries per block: every blocked pass (the elimination's update,
    # the kernel basis, the radical fill, the head solve, the top-kernel
    # count and product, the table certificate and the boundary assembly)
    # runs over many blocks, and the entry written is byte for byte the one
    # that the default blocks write cold
    betti_numbers(group, degrees[-1], cache_dir=str(tmp_path / "default"))
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 64)
    monkeypatch.setattr(resolution, "_TABLE_BLOCK", 64)
    for degree in degrees:
        betti_numbers(group, degree, cache_dir=str(tmp_path / "small"))
    default = _entry_files(tmp_path / "default")
    assert len(default) == degrees[-1] + 1
    assert _entry_files(tmp_path / "small") == default


def test_verify_theorem_refuses_an_over_budget_level_before_resolving(tmp_path, monkeypatch):
    # levels 0-3 are within the budget, level 4 (order 2187) is not: the
    # family is refused before any level is resolved or cached
    calls = []
    monkeypatch.setattr(resolution, "minimal_resolution",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(BudgetError) as info:
        verify_theorem(SpaceGroupParams(3, 1), 4, 3, cache_dir=str(tmp_path))
    assert str(info.value) == "level 4: group order 2187 exceeds resolution budget 729"
    assert info.value.context == {"order": 2187, "budget": 729, "level": 4}
    assert calls == []
    assert list_cache(str(tmp_path)) == [] and list(tmp_path.iterdir()) == []


def test_verify_theorem_budget_annotates_level():
    with pytest.raises(BudgetError, match="level 4"):
        verify_theorem(SpaceGroupParams(3, 1), 6, 2)


def test_verify_theorem_annotates_a_refusal_that_names_its_level():
    # the quotient's own budget error already carries the level
    with pytest.raises(BudgetError, match="level 0: group order") as info:
        verify_theorem(SpaceGroupParams(251, 1), 1, 1)
    assert info.value.context == {"order": 251 ** 251, "budget": 1 << 20,
                                  "level": 0}


def test_verify_theorem_unknown_family():
    with pytest.raises(ValueError):
        verify_theorem(SpaceGroupParams(3, 1), 1, 2, family="nope")
