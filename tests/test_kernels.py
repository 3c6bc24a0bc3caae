"""The blocked odd-p row reduction, the Four-Russians GF(2) kernels and
the kernel basis against the plain-Python oracles, over shapes that
cross the eliminations' panel, chunk, strip and word edges."""

import random
import tracemalloc

import numpy as np
import pytest

from coclass import kernels
from coclass.fpmat import FpMatrix, _pack_bits

from _oracles import naive_kernel, naive_rref, reference_radical

PRIMES = (3, 5, 7, 251)
PANEL_EDGE_WIDTHS = (63, 64, 65, 128, 129)


def rand_matrix(rng, p, rows, cols, density=1.0):
    return np.array([[rng.randrange(1, p) if rng.random() < density else 0
                      for _ in range(cols)] for _ in range(rows)],
                    dtype=np.uint8).reshape(rows, cols)


def low_rank(rng, p, rows, cols, rank, density=1.0):
    """A rows x cols product of random rows x rank and rank x cols factors."""
    left = rand_matrix(rng, p, rows, rank, density).astype(np.int64)
    right = rand_matrix(rng, p, rank, cols, density).astype(np.int64)
    return ((left @ right) % p).astype(np.uint8)


def assert_rref_matches_oracle(a, p):
    work = a.copy()
    piv = kernels.rref_u8(work, p)
    red, oracle_piv = naive_rref(a.tolist(), p)
    assert piv.dtype == np.int64
    assert piv.tolist() == oracle_piv
    assert work.dtype == np.uint8 and work.shape == a.shape
    assert work.tolist() == red


def test_rref_u8_degenerate_shapes():
    rng = random.Random(1)
    for p in PRIMES:
        for shape in ((0, 5), (4, 0), (3, 7)):
            assert_rref_matches_oracle(np.zeros(shape, dtype=np.uint8), p)
        assert_rref_matches_oracle(np.zeros((1, 1), dtype=np.uint8), p)
        assert_rref_matches_oracle(np.array([[p - 1]], dtype=np.uint8), p)
        for cols in (1, 64, 130):
            assert_rref_matches_oracle(rand_matrix(rng, p, 1, cols), p)
        row = rand_matrix(rng, p, 1, 90)
        row[0, :70] = 0  # first pivot in the second panel
        assert_rref_matches_oracle(row, p)


def test_rref_u8_panel_edge_widths():
    rng = random.Random(2)
    for p in PRIMES:
        for width in PANEL_EDGE_WIDTHS:
            # rows > cols: full column rank with surplus rows left zero
            assert_rref_matches_oracle(rand_matrix(rng, p, width + 5, width), p)
            # rank below rows and columns, pivots spread over every panel
            rank = 20 if width < 100 else 70
            assert_rref_matches_oracle(low_rank(rng, p, 90, width, rank), p)


def test_rref_u8_sparse_and_repeated_columns():
    rng = random.Random(3)
    for p in (3, 5):
        sparse = rand_matrix(rng, p, 80, 200, density=0.03)
        assert_rref_matches_oracle(sparse, p)
        base = rand_matrix(rng, p, 60, 40)
        repeated = np.concatenate([base, base, (2 * base) % p, base[:, :9]], axis=1)
        assert_rref_matches_oracle(np.ascontiguousarray(repeated), p)


def test_rref_u8_worst_case_growth_p251():
    # Entries of p - 1 maximise each update; the rank (100) spans two
    # panels, so the delayed reduction carries growth across a block update.
    rng = random.Random(4)
    p = 251
    a = np.full((100, 150), p - 1, dtype=np.uint8)
    for i in range(100):
        for j in rng.sample(range(150), 15):
            a[i, j] = rng.randrange(p - 1)
    assert_rref_matches_oracle(a, p)
    stacked = np.concatenate([a, a[:30]], axis=0)  # rows > rank
    assert_rref_matches_oracle(stacked, p)


# not-yet-pivot row counts around the 64-row chunks of _panel_basis
CHUNK_EDGE_ROWS = (63, 64, 65, 129)


def test_rref_u8_panel_rows_cross_the_chunk_edge():
    rng = random.Random(7)
    for p in (3, 251):
        for rows in CHUNK_EDGE_ROWS:
            # the last row alone supplies the panel's last pivot: the rows
            # above it span 10 dimensions
            a = low_rank(rng, p, rows, 150, 10)
            a[-1] = rand_matrix(rng, p, 1, 150)
            assert_rref_matches_oracle(a, p)
            # a full-rank first panel on 64 rows leaves ``rows`` free rows
            # for the second one
            b = np.concatenate([rand_matrix(rng, p, 64, 140),
                                low_rank(rng, p, rows, 140, 40)])
            b[64:, :64] = 0
            assert_rref_matches_oracle(b, p)


def test_rref_u8_every_chunk_adds_pivots():
    rng = random.Random(11)
    for p in (3, 251):
        # four chunks of rank 15 each: every chunk's new pivots must be
        # cleared from the basis of the chunks before it, and the next
        # chunk is reduced against the result
        a = np.concatenate([low_rank(rng, p, 64, 110, 15) for _ in range(4)])
        assert_rref_matches_oracle(a, p)


def test_rref_u8_chunk_that_adds_no_pivot():
    rng = random.Random(8)
    for p in (5, 251):
        # three copies of 64 rows of rank 30: the second and third chunks
        # reduce to zero against the first one's basis
        block = low_rank(rng, p, 64, 100, 30)
        assert_rref_matches_oracle(np.concatenate([block, block, (2 * block) % p]), p)
        # the same with one new row at the end of the third chunk
        tail = np.concatenate([block, block, block])
        tail[-1] = rand_matrix(rng, p, 1, 100)
        assert_rref_matches_oracle(tail, p)


def test_rref_u8_first_chunk_zero_on_the_panel():
    rng = random.Random(9)
    for p in (3, 7):
        # rows 0..63 start after column 70, so the first panel's rank
        # comes from the second and third chunks only
        a = rand_matrix(rng, p, 150, 130)
        a[:64, :70] = 0
        assert_rref_matches_oracle(a, p)
        b = low_rank(rng, p, 140, 90, 50)
        b[:64] = 0
        b[:64, 80:] = rand_matrix(rng, p, 64, 10)
        assert_rref_matches_oracle(b, p)


def _float_dtypes_seen(monkeypatch):
    seen = set()
    real = kernels._mod

    def spy(x, p):
        seen.add(x.dtype)
        return real(x, p)

    monkeypatch.setattr(kernels, "_mod", spy)
    return seen


@pytest.mark.parametrize("rank, dtype", [(268, np.float32), (269, np.float64)])
def test_rref_u8_dtype_edge_p251(rank, dtype, monkeypatch):
    # 268 * 250^2 + 251 < 2^24 < 269 * 250^2 + 251: the largest rank for
    # float32 at p = 251.  Entries of p - 1 maximise each update.
    rng = random.Random(10 + rank)
    p = 251
    a = np.full((rank, rank + 12), p - 1, dtype=np.uint8)
    for i in range(rank):
        for j in rng.sample(range(rank + 12), 40):
            a[i, j] = rng.randrange(p - 1)
    seen = _float_dtypes_seen(monkeypatch)
    work = a.copy()
    piv = kernels.rref_u8(work, p)
    assert seen == {np.dtype(dtype)}
    assert len(piv) == rank
    red, oracle_piv = naive_rref(a.tolist(), p)
    assert piv.tolist() == oracle_piv
    assert work.tolist() == red


@pytest.mark.parametrize("inner, dtype", [(268, np.float32), (269, np.float64)])
def test_matmul_u8_dtype_edge_p251(inner, dtype, monkeypatch):
    p = 251
    a = np.full((3, inner), p - 1, dtype=np.uint8)
    b = np.full((inner, 4), p - 1, dtype=np.uint8)
    b[0, 0] = 7
    seen = _float_dtypes_seen(monkeypatch)
    out = kernels.matmul_u8(a, b, p)
    assert seen == {np.dtype(dtype)}
    assert np.array_equal(out, (a.astype(np.int64) @ b.astype(np.int64)) % p)


def _annihilated_pair(rng, p, rows, rest, k, free=None):
    """(a, basis, free) with basis the identity on its rows ``free`` and
    random on the other ``rest`` rows, and a @ basis = 0 mod p: a is
    X on the other rows and -X basis[rest] on the free rows."""
    n = rest + k
    free = np.sort(rng.choice(n, k, replace=False)) if free is None else free
    others = np.setdiff1d(np.arange(n), free)
    basis = np.zeros((n, k), dtype=np.uint8)
    basis[free, np.arange(k)] = 1
    basis[others] = rng.integers(0, p, (rest, k), dtype=np.uint8)
    x = rng.integers(0, p, (rows, rest), dtype=np.uint8)
    a = np.empty((rows, n), dtype=np.uint8)
    a[:, others] = x
    # exact in float64: the sums stay below 2^53
    a[:, free] = -(x.astype(np.float64) @ basis[others]) % p
    return a, basis, free


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("chunk", [1 << 19, 37])
def test_annihilates_u8_matches_the_whole_product(p, chunk, monkeypatch):
    # a tiny chunk takes many blocks of rows and of columns, down to one
    # row; every zero product is accepted and one changed entry anywhere
    # is refused, whichever block it falls in
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk)
    rng = np.random.default_rng(p + chunk)
    for rows, rest, k in ((30, 20, 25), (1, 7, 3), (12, 0, 9), (9, 11, 0), (0, 4, 4)):
        a, basis, free = _annihilated_pair(rng, p, rows, rest, k)
        assert kernels.annihilates_u8(a, basis, free, p)
        for _ in range(3 if rows and k else 0):
            bad = a.copy()
            i, j = rng.integers(rows), rng.integers(rest + k)
            bad[i, j] = (bad[i, j] + 1) % p
            assert not kernels.annihilates_u8(bad, basis, free, p)


@pytest.mark.parametrize("chunk", [1 << 19, 50])
def test_matmul_u8_in_row_blocks_matches_the_integer_product(chunk, monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk)
    rng = np.random.default_rng(chunk)
    for p in (3, 251):
        for rows, inner, cols in ((40, 30, 20), (7, 60, 1), (0, 5, 5), (5, 0, 3), (3, 2, 90)):
            a = rng.integers(0, p, (rows, inner), dtype=np.uint8)
            b = rng.integers(0, p, (inner, cols), dtype=np.uint8)
            want = (a.astype(np.int64) @ b.astype(np.int64)) % p
            assert np.array_equal(kernels.matmul_u8(a, b, p), want)


def _traced_peak(call):
    """The peak of the memory that ``call()`` allocates, as tracemalloc
    (which numpy reports its arrays to) sees it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_top_certificate_product_makes_no_float_copy_of_its_matrix():
    # a 2048 x 4096 matrix over F_3, the shape of a top d_n[F] at order
    # 2187, and a basis of 2048 vectors that it annihilates: a float32
    # copy of the matrix alone would take 32 MiB
    rng = np.random.default_rng(3)
    a, basis, free = _annihilated_pair(rng, 3, 2048, 2048, 2048)
    peak = _traced_peak(lambda: kernels.annihilates_u8(a, basis, free, 3))
    assert peak < a.size * 4 // 2


def test_matmul_u8_makes_no_float_copy_of_its_left_operand():
    # the composite check multiplies d_n[F] by a few generator columns:
    # the uint8 result and the float copy of the narrow right operand are
    # small, and the left operand is converted a block of rows at a time
    rng = np.random.default_rng(4)
    a = rng.integers(0, 3, (2048, 4096), dtype=np.uint8)
    b = rng.integers(0, 3, (4096, 8), dtype=np.uint8)
    peak = _traced_peak(lambda: kernels.matmul_u8(a, b, 3))
    assert peak < a.size * 4 // 2


def test_rref_u8_update_makes_no_second_float_copy():
    # the elimination works on one float32 copy of its input; the update
    # of each panel is taken a block of rows at a time, so the peak stays
    # well below two such copies
    rng = np.random.default_rng(5)
    a = rng.integers(0, 3, (1024, 2048), dtype=np.uint8)
    peak = _traced_peak(lambda: kernels.rref_u8(a, 3))
    assert peak < a.size * 4 * 3 // 2


def test_rref_u8_refuses_a_wrong_panel_inverse(monkeypatch):
    real = kernels._panel_basis

    def off_by_one(panel, p):
        chosen, piv, t = real(panel, p)
        t = t.copy()
        t[0, 0] = (t[0, 0] + 1) % p
        return chosen, piv, t

    monkeypatch.setattr(kernels, "_panel_basis", off_by_one)
    a = rand_matrix(random.Random(12), 5, 10, 12)
    with pytest.raises(AssertionError, match="panel inverse"):
        kernels.rref_u8(a, 5)


def test_float_mod_exact_up_to_2_pow_24():
    rng = np.random.default_rng(13)
    lim = 2**24 - 1024  # below 2^24 - p with room for the neighbours
    ints = rng.integers(-lim, lim, size=4000)
    for p in PRIMES:
        near = (ints[:1000] // p) * p  # multiples of p and their neighbours
        x = np.concatenate([ints, near - 1, near, near + 1, [-lim, lim]])
        got = kernels._mod(x.astype(np.float32), p)
        assert got.dtype == np.float32
        assert np.array_equal(got, x % p)


def test_float_mod_exact_up_to_2_pow_53():
    rng = np.random.default_rng(6)
    lim = 2**53 - 1024  # leaves room for the neighbours of multiples below
    ints = rng.integers(-lim, lim, size=4000)
    for p in PRIMES:
        near = (ints[:1000] // p) * p  # multiples of p and their neighbours
        x = np.concatenate([ints, near - 1, near, near + 1])
        got = kernels._mod(x.astype(np.float64), p)
        assert np.array_equal(got, x % p)


def oracle_heads(a, p):
    """The rref rule for heads: the complement of k-1-pivots of ``a`` with
    its columns reversed, where some vector of its row space ends."""
    k = a.shape[1]
    _red, piv = naive_rref(a[:, ::-1].tolist(), p)
    return sorted(set(range(k)) - {k - 1 - c for c in piv})


def chained(rng, p, rows, k, reach):
    """Rows with a random end and nonzeros only within ``reach`` positions
    before it: each end reads a few ends just below it, so the triangular
    solve has long dependency chains, and repeated ends leave rows for
    later rounds."""
    a = np.zeros((rows, k), dtype=np.uint8)
    for r in range(rows):
        e = rng.randrange(k)
        a[r, e] = rng.randrange(1, p)
        lo = max(0, e - reach)
        for j in rng.sample(range(lo, e), (e - lo + 1) // 2):
            a[r, j] = rng.randrange(1, p)
    return a


def _spy_solve_depths(monkeypatch):
    """Record the number of dependency levels of each round's solve,
    counted independently from the pattern it is given."""
    depths = []
    real = kernels._end_solve

    def spy(x, keep, ends, cand, p, neg_inv):
        lnz = x[keep] != 0
        level = {}
        for i, e in enumerate(ends.tolist()):
            reads = [level[j] for j in ends[lnz[i, ends]].tolist() if j != e]
            level[e] = 1 + max(reads, default=0)
        depths.append(max(level.values()))
        return real(x, keep, ends, cand, p, neg_inv)

    monkeypatch.setattr(kernels, "_end_solve", spy)
    return depths


def assert_heads_match_oracle(a, p):
    got = kernels.heads_u8(a, p)
    assert got.dtype == np.int64
    assert got.tolist() == oracle_heads(a, p)


def test_heads_u8_deep_chains_and_several_rounds(monkeypatch):
    depths = _spy_solve_depths(monkeypatch)
    rng = random.Random(31)
    deepest, most_rounds = 0, 0
    for p in PRIMES + (2,):
        for rows, k, reach in ((60, 40, 3), (120, 60, 4), (90, 90, 2), (200, 80, 6)):
            depths.clear()
            assert_heads_match_oracle(chained(rng, p, rows, k, reach), p)
            deepest = max(deepest, depths[0])
            most_rounds = max(most_rounds, len(depths))
    assert deepest >= 20 and most_rounds >= 3


def test_heads_u8_sparse_and_dense(monkeypatch):
    depths = _spy_solve_depths(monkeypatch)
    rng = random.Random(32)
    for p in PRIMES + (2,):
        dense = 0.5 if p == 2 else 1.0  # all nonzero at p = 2 is all ones
        assert_heads_match_oracle(rand_matrix(rng, p, 70, 50, density=0.05), p)
        assert_heads_match_oracle(rand_matrix(rng, p, 30, 60, density=0.1), p)
        # dense rows of rank 20: almost every row ends at the last column,
        # so the first round keeps few rows and leaves the rest to later ones
        depths.clear()
        assert_heads_match_oracle(low_rank(rng, p, 90, 50, 20, dense), p)
        assert len(depths) >= 3
        assert_heads_match_oracle(rand_matrix(rng, p, 25, 40, dense), p)


def test_heads_u8_degenerate_shapes():
    rng = random.Random(33)
    for p in PRIMES + (2,):
        for shape in ((0, 6), (5, 0), (0, 0), (4, 9)):
            assert_heads_match_oracle(np.zeros(shape, dtype=np.uint8), p)
        # full rank: every position is an end, so there is no head
        full = rand_matrix(rng, p, 12, 12, density=0.3)
        full[np.arange(12), np.arange(12)] = 1
        assert kernels.heads_u8(np.tril(full), p).tolist() == []
        assert_heads_match_oracle(rand_matrix(rng, p, 40, 15), p)
        # zero rows between the live ones, and a single nonzero column
        a = chained(rng, p, 50, 30, 3)
        a[::3] = 0
        assert_heads_match_oracle(a, p)
        col = np.zeros((6, 8), dtype=np.uint8)
        col[[1, 4], 5] = [1, p - 1]
        assert kernels.heads_u8(col, p).tolist() == [0, 1, 2, 3, 4, 6, 7]


@pytest.mark.parametrize("chunk", [None, 64])
def test_heads_u8_zero_rows_around_the_live_ones(chunk, monkeypatch):
    # all-zero rows before and after the live ones, only zero rows, no
    # rows and k = 0; with 64-entry chunks of 3 rows, whole chunks of the
    # pattern hold no live row, in the first round and in later ones
    if chunk:
        monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk)
    rng = random.Random(36)
    for p in PRIMES + (2,):
        a = np.zeros((100, 20), dtype=np.uint8)
        a[30:70] = chained(rng, p, 40, 20, 3)
        assert_heads_match_oracle(a, p)
        for shape in ((30, 20), (0, 20), (100, 0)):
            assert kernels.heads_u8(np.zeros(shape, dtype=np.uint8), p).tolist() == \
                list(range(shape[1]))


@pytest.mark.parametrize("k, dtype", [(266, np.float32), (269, np.float64)])
def test_heads_u8_products_reduced_before_scaling_p251(k, dtype, monkeypatch):
    # at p = 251, k = 266 is float32 (266 * 250^2 + 251 < 2^24), and a
    # level product of entries p - 1 is exact only while it is reduced
    # mod p before the pivot inverse scales it; 269 takes float64
    rng = random.Random(34 + k)
    p = 251
    a = chained(rng, p, 2 * k, k, 8)
    a[a != 0] = p - 1
    a[:40] = p - 1  # dense rows of p - 1 end at k - 1 and read every end
    a[40:80, :k // 2] = 0
    seen = _float_dtypes_seen(monkeypatch)
    assert_heads_match_oracle(a, p)
    assert seen == {np.dtype(dtype)}


def test_heads_u8_refuses_a_wrong_solve(monkeypatch):
    real = kernels._end_solve

    def off_by_one(x, keep, ends, cand, p, neg_inv):
        b = real(x, keep, ends, cand, p, neg_inv)
        e = ends[-1]
        b[e, 0] = (b[e, 0] + 1) % p
        return b

    monkeypatch.setattr(kernels, "_end_solve", off_by_one)
    a = chained(random.Random(35), 5, 60, 40, 3)
    with pytest.raises(AssertionError, match="triangular solve"):
        kernels.heads_u8(a, 5)


RADICAL_PRIMES = (2, 3, 5, 7, 251)


def radical_case(rng, p, k, n_ip, *, gens=2, fixed=0, diag_ones=0, zero_rows=0,
                 density=0.3):
    """(kd, free, srcs): a kernel basis of k columns, the identity on its
    free rows F and sparse random on the others, and for each of ``gens``
    generators an injective src_g with ``n_ip`` positions translated to
    rows outside F (I_p) and the rest to rows of F.  In every block,
    ``fixed`` positions j outside I_p translate to F[j] (sigma_g(j) = j,
    whose 1 cancels the -1 on the diagonal), ``diag_ones`` positions j in
    I_p read K[src_j, j] = 1 (the diagonal reads 0), and in block 0 the
    first ``zero_rows`` fixed rows get D_g zero too, so R_0 has zero
    rows."""
    n = k + max(n_ip, 3) + 5
    free = np.sort(rng.choice(n, k, replace=False))
    rest = np.setdiff1d(np.arange(n), free)
    kd = ((rng.random((n, k)) < density) * rng.integers(1, p, (n, k))).astype(np.uint8)
    kd[free] = np.eye(k, dtype=np.uint8)
    srcs = []
    for g in range(gens):
        ip = np.sort(rng.choice(k, n_ip, replace=False))
        out = np.setdiff1d(np.arange(k), ip)
        sig = np.full(k, -1)
        sig[out] = rng.choice(k, out.size, replace=False)
        for j in rng.choice(out, min(fixed, out.size), replace=False).tolist():
            sig[sig == j], sig[j] = sig[j], j  # a swap keeps sig injective
        src = np.empty(k, dtype=np.intp)
        src[out] = free[sig[out]]
        src[ip] = rng.choice(rest, n_ip, replace=False)
        for j in rng.choice(ip, min(diag_ones, n_ip), replace=False).tolist():
            kd[src[j], j] = 1
        srcs.append(src)
        if g == 0:
            zeros = np.flatnonzero(sig == np.arange(k))[:zero_rows], src[ip]
    if gens:
        kd[zeros[1][:, None], zeros[0]] = 0
    return kd, free, srcs


def assert_radical_matches_reference(rng, kd, free, srcs, p):
    """The factored ends, L rows, product and heads of ``radical_heads``
    against the dense reference radical."""
    k = len(free)
    ref = reference_radical(kd, free, srcs, p)
    blocks = [(src,) + kernels._translate(free, src) for src in srcs]
    live, end = kernels._row_ends(ref)
    got = kernels._radical_ends(kd, blocks, p)
    assert np.flatnonzero(got >= 0).tolist() == live.tolist()
    assert got[live].tolist() == end.tolist()
    rows = rng.permutation(len(ref))[:k]
    assert np.array_equal(kernels._radical_rows(kd, blocks, rows, p), ref[rows])
    b = rng.integers(0, p, (k, 7)).astype(kernels._float_dtype(k, p))
    rows = np.flatnonzero(rng.random(len(ref)) < 0.7)
    want = ref[rows].astype(np.int64) @ b.astype(np.int64) % p
    assert np.array_equal(kernels._radical_product(kd, blocks, rows, b, p), want)
    heads = kernels.radical_heads(kd, free, srcs, p)
    assert heads.dtype == np.int64
    assert heads.tolist() == oracle_heads(ref, p) == kernels.heads_u8(ref, p).tolist()
    return ref


@pytest.mark.parametrize("p", RADICAL_PRIMES)
@pytest.mark.parametrize("chunk", [None, 64])
def test_radical_heads_match_the_dense_radical(p, chunk, monkeypatch):
    # with 64-entry blocks every pass over I_p, L and the product takes
    # many blocks, down to one row
    if chunk:
        monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk)
    rng = np.random.default_rng(p)
    k = 40
    ref = assert_radical_matches_reference(
        rng, *radical_case(rng, p, k, 12, fixed=4, diag_ones=4, zero_rows=2), p)
    diag = ref[np.arange(2 * k), np.tile(np.arange(k), 2)]
    assert (ref[:k] == 0).all(axis=1).sum() >= 2 and (diag == 0).sum() >= 8
    # every translated free row free (I_p empty), with and without fixed
    # rows, and none free (I_p every column)
    assert_radical_matches_reference(rng, *radical_case(rng, p, k, 0), p)
    assert_radical_matches_reference(rng, *radical_case(rng, p, k, 0, fixed=5), p)
    assert_radical_matches_reference(
        rng, *radical_case(rng, p, k, k, diag_ones=6, density=0.1), p)
    # one generator and three, and dense blocks with few heads
    assert_radical_matches_reference(rng, *radical_case(rng, p, 25, 7, gens=1), p)
    assert_radical_matches_reference(rng, *radical_case(rng, p, 30, 9, gens=3), p)
    assert_radical_matches_reference(rng, *radical_case(rng, p, 30, 20, density=1.0), p)


@pytest.mark.parametrize("p", RADICAL_PRIMES)
def test_radical_heads_of_no_columns_and_of_zero_blocks(p):
    # k = 0, and a block of zero rows: every translate fixed with no I_p
    # makes R = 0, so every position is a head
    for gens in (0, 2):
        assert kernels.radical_heads(np.zeros((5, 0), dtype=np.uint8), np.zeros(0, np.intp),
                                     [np.zeros(0, np.intp)] * gens, p).tolist() == []
    free = np.arange(1, 9)
    kd = np.zeros((12, 8), dtype=np.uint8)
    kd[free] = np.eye(8, dtype=np.uint8)
    assert kernels.radical_heads(kd, free, [free, free], p).tolist() == list(range(8))
    assert kernels.radical_heads(kd, free, [], p).tolist() == list(range(8))


@pytest.mark.parametrize("k, dtype", [(268, np.float32), (269, np.float64)])
def test_radical_product_exact_at_the_float32_edge_p251(k, dtype):
    # every coefficient of R_g at its extreme: p - 1 on I_p (all but one
    # column) and B all p - 1, so each partial sum reaches k (p-1)^2, the
    # bound of _float_dtype(k, p); the product must match the exact one
    p = 251
    rng = np.random.default_rng(k)
    kd, free, srcs = radical_case(rng, p, k, k - 1, gens=1, density=1.0)
    kd[np.setdiff1d(np.arange(len(kd)), free)] = p - 1
    blocks = [(src,) + kernels._translate(free, src) for src in srcs]
    assert kernels._float_dtype(k, p) == dtype
    b = np.full((k, 5), p - 1, dtype=dtype)
    out = kernels._radical_product(kd, blocks, np.arange(k), b, p)
    want = reference_radical(kd, free, srcs, p).astype(np.int64) @ b.astype(np.int64) % p
    assert np.array_equal(out, want)


def test_radical_heads_refuse_a_wrong_first_solve(monkeypatch):
    # the factored first round checks L B = 0 on its own product: a B
    # that misses ker L by one entry is refused there, before any dense
    # round runs
    real = kernels._end_solve
    calls = []

    def off_by_one(x, keep, ends, cand, p, neg_inv):
        b = real(x, keep, ends, cand, p, neg_inv)
        if not calls:
            b[ends[-1], 0] = (b[ends[-1], 0] + 1) % p
        calls.append(ends.size)
        return b

    monkeypatch.setattr(kernels, "_end_solve", off_by_one)
    kd, free, srcs = radical_case(np.random.default_rng(9), 5, 40, 12)
    with pytest.raises(AssertionError, match="triangular solve"):
        kernels.radical_heads(kd, free, srcs, 5)
    assert len(calls) == 1


@pytest.fixture
def two_blas_threads():
    """The (get, set) pair of numpy's OpenBLAS, with the count set to 2 for
    the test and put back after it; skips without an OpenBLAS setter."""
    threads = kernels._blas_threads()
    if not threads:
        pytest.skip("no OpenBLAS thread setter in this process")
    get, put = threads
    before = get()
    put(2)
    yield get, put
    put(before)


def _spy_thread_counts(monkeypatch, threads):
    """Record the BLAS thread count at every reduction inside a kernel."""
    seen = set()
    real = kernels._mod

    def spy(x, p):
        if threads:
            seen.add(threads[0]())
        return real(x, p)

    monkeypatch.setattr(kernels, "_mod", spy)
    return seen


def _product_cases():
    """(name, args) for the float kernels: shapes whose GEMMs OpenBLAS
    splits over threads, and at p = 251 ranks and inner dimensions above
    268, which take float64."""
    rng = np.random.default_rng(41)
    for p in (3, 251):
        left = rng.integers(0, p, (300, 290)).astype(np.int64)
        wide = (left @ rng.integers(0, p, (290, 330)) % p).astype(np.uint8)
        yield "rref_u8", (wide, p)
        yield "rref_u8", (np.ascontiguousarray(wide[:, :280]), p)
        tall = (rng.random((600, 300)) < 0.05) * rng.integers(1, p, (600, 300))
        tall[np.arange(300), np.arange(300)] = 0  # leave heads to find
        yield "heads_u8", (tall.astype(np.uint8), p)
        a = rng.integers(0, p, (280, 300), dtype=np.uint8)
        yield "matmul_u8", (a, rng.integers(0, p, (300, 310), dtype=np.uint8), p)
    rng = np.random.default_rng(42)
    for p in (3, 251):
        yield "annihilates_u8", _annihilated_pair(rng, p, 280, 300, 290) + (p,)


@pytest.mark.parametrize("name, args", list(_product_cases()),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_float_kernels_do_not_depend_on_blas_threads(name, args, monkeypatch):
    # cut-off 0: every product on the caller's threads; a huge cut-off:
    # every product on one thread.  The outputs agree byte for byte, and
    # each call leaves the thread count as it found it.
    threads = kernels._blas_threads()
    seen = _spy_thread_counts(monkeypatch, threads)
    outputs = {}
    for cut in (0, 1 << 62):
        monkeypatch.setattr(kernels, "_THREADED_ENTRIES", cut)
        before = threads[0]() if threads else None
        work = [x.copy() if isinstance(x, np.ndarray) else x for x in args]
        result = getattr(kernels, name)(*work)
        outputs[cut] = [np.asarray(result).tobytes()]
        outputs[cut] += [x.tobytes() for x in work if isinstance(x, np.ndarray)]
        if threads:
            assert threads[0]() == before
            assert seen == ({before} if cut == 0 else {1})
        seen.clear()
    assert outputs[0] == outputs[1 << 62]


def test_small_calls_run_on_one_thread_large_ones_keep_theirs(two_blas_threads, monkeypatch):
    get, put = two_blas_threads
    seen = _spy_thread_counts(monkeypatch, two_blas_threads)
    rng = np.random.default_rng(42)
    a = rng.integers(0, 5, (40, 50), dtype=np.uint8)
    b = rng.integers(0, 5, (50, 30), dtype=np.uint8)
    calls = [lambda: kernels.rref_u8(a.copy(), 5), lambda: kernels.heads_u8(a, 5),
             lambda: kernels.matmul_u8(a, b, 5)]
    # a = 2000 entries is the largest operand of every call
    for cut, inside in ((2000, 2), (2001, 1)):
        monkeypatch.setattr(kernels, "_THREADED_ENTRIES", cut)
        for call in calls:
            seen.clear()
            call()
            assert seen == {inside} and get() == 2
    # a count the caller lowered to 1 (say by OPENBLAS_NUM_THREADS) stays 1
    put(1)
    seen.clear()
    for call in calls:
        call()
    assert seen == {1} and get() == 1


def test_radical_heads_run_on_one_thread_at_any_size(two_blas_threads, monkeypatch):
    # the factored head step runs on one BLAS thread even where its K has
    # more than _THREADED_ENTRIES entries, restores the caller's count,
    # and gives the same heads on any count
    get, put = two_blas_threads
    seen = _spy_thread_counts(monkeypatch, two_blas_threads)
    monkeypatch.setattr(kernels, "_THREADED_ENTRIES", 0)
    kd, free, srcs = radical_case(np.random.default_rng(43), 5, 60, 20)
    heads = kernels.radical_heads(kd, free, srcs, 5)
    assert seen == {1} and get() == 2
    put(1)
    assert kernels.radical_heads(kd, free, srcs, 5).tolist() == heads.tolist()
    assert get() == 1


def test_thread_count_restored_when_a_kernel_raises(two_blas_threads, monkeypatch):
    get, _ = two_blas_threads
    test_rref_u8_refuses_a_wrong_panel_inverse(monkeypatch)
    assert get() == 2
    test_heads_u8_refuses_a_wrong_solve(monkeypatch)
    assert get() == 2
    test_radical_heads_refuse_a_wrong_first_solve(monkeypatch)
    assert get() == 2


def test_kernel_matches_naive_kernel_many_free_columns():
    rng = random.Random(5)
    for p in (2, 3, 7):
        for rows, cols, rank in ((20, 90, 8), (70, 140, 66), (5, 3, 2)):
            dense = low_rank(rng, p, rows, cols, rank)
            got = FpMatrix.from_dense(p, dense).kernel().basis
            oracle = naive_kernel(dense.tolist(), p)
            assert got.shape == (cols, len(oracle))
            assert got.T.tolist() == oracle


def test_matmul_b2_matches_dense_product():
    # widths around the 8-column tables and the 64-bit words, with 0 and
    # 1 rows and no column of b; the packed result must equal the packed
    # dense product, so its tail bits are zero
    rng = np.random.default_rng(11)
    for a_cols in (0, 1, 7, 8, 9, 64, 65, 130):
        for rows in (0, 1, 5, 70):
            for b_cols in (0, 1, 63, 64, 130):
                a = rng.integers(0, 2, (rows, a_cols), dtype=np.uint8)
                b = rng.integers(0, 2, (a_cols, b_cols), dtype=np.uint8)
                out = kernels.matmul_b2(_pack_bits(a), _pack_bits(b), a_cols)
                dense = (a.astype(np.int64) @ b.astype(np.int64)) % 2
                assert out.dtype == np.uint64
                assert np.array_equal(out, _pack_bits(dense.astype(np.uint8)))


@pytest.mark.parametrize("chunk", (kernels._CHUNK_ENTRIES, 8 * 256 * 2, 8 * 256 * 6))
def test_matmul_b2_in_blocks_matches_dense_product(chunk, monkeypatch):
    # runs of 8 columns go a block at a time and output rows a chunk at a
    # time, both sized from _CHUNK_ENTRIES: at 2^12 and 3 * 2^12 bytes,
    # blocks of one to six runs and chunks of 10 to 256 rows; at the real
    # size, 47-word rows take blocks of 5 runs, so 601 columns end in a
    # short block whose one run is short, and 300 rows of 3 words take
    # two chunks; no row gives the zero product
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk)
    rng = np.random.default_rng(12)
    for rows, a_cols, b_cols in ((300, 601, 130), (40, 601, 3000), (7, 37, 70),
                                 (40, 9, 129), (0, 37, 130), (1, 64, 65),
                                 (256, 45, 128), (900, 20, 64)):
        a = rng.integers(0, 2, (rows, a_cols), dtype=np.uint8)
        b = rng.integers(0, 2, (a_cols, b_cols), dtype=np.uint8)
        out = kernels.matmul_b2(_pack_bits(a), _pack_bits(b), a_cols)
        dense = (a.astype(np.int64) @ b.astype(np.int64)) % 2
        assert np.array_equal(out, _pack_bits(dense.astype(np.uint8)))


# strip (8 columns) and word (64 columns) edges of the packed elimination
STRIP_EDGE_WIDTHS = (1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 130)


def assert_rref_b2_matches_oracle(a):
    """rref_b2 on the packed copy of a 0/1 matrix equals the packed oracle
    RREF, tail bits included, and reduces in place."""
    rows, cols = a.shape
    work = _pack_bits(a)
    piv = kernels.rref_b2(work, cols)
    red, oracle_piv = naive_rref(a.tolist(), 2)
    assert piv.dtype == np.int64
    assert piv.tolist() == oracle_piv
    expect = _pack_bits(np.array(red, dtype=np.uint8).reshape(rows, cols))
    assert work.dtype == np.uint64 and work.shape == expect.shape
    assert np.array_equal(work, expect)


def bits(rng, rows, cols, density=0.5):
    return (rng.random((rows, cols)) < density).astype(np.uint8)


def test_rref_b2_strip_edge_widths():
    rng = np.random.default_rng(21)
    for cols in STRIP_EDGE_WIDTHS:
        for rows in sorted({1, 2, cols // 2 + 1, cols, cols + 3}):
            assert_rref_b2_matches_oracle(bits(rng, rows, cols))
            assert_rref_b2_matches_oracle(bits(rng, rows, cols, 0.03))
            rank3 = bits(rng, rows, 3).astype(np.int64) @ bits(rng, 3, cols)
            assert_rref_b2_matches_oracle((rank3 % 2).astype(np.uint8))


def test_rref_b2_rank_full_inside_a_strip_and_zero_strips():
    rng = np.random.default_rng(22)
    # five rows whose pivots are columns 10..14: the rank reaches the row
    # count inside the strip [8, 16), and the later columns still reduce
    a = bits(rng, 5, 40)
    a[:, :10] = 0
    a[:, 10:15] = np.eye(5, dtype=np.uint8)[rng.permutation(5)]
    assert_rref_b2_matches_oracle(a)
    # the same with columns 16..23 zero between the pivots and more rows
    # than the rank: the all-zero strip is skipped
    b = bits(rng, 12, 90)
    b[:, 16:24] = 0
    assert_rref_b2_matches_oracle(b)
    # a strip that is zero on the free rows but not on an earlier pivot
    # row: its columns stay as they are in that row
    c = np.zeros((4, 70), dtype=np.uint8)
    c[0, [0, 9, 12, 15, 66]] = 1
    c[1, [20, 30, 64]] = 1
    c[2, [30, 69]] = 1
    c[3] = c[1] ^ c[2]
    assert_rref_b2_matches_oracle(c)
    # repeated rows and every strip byte value at once
    d = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    assert_rref_b2_matches_oracle(np.concatenate([d, d[::-1]], axis=1))


def test_rref_b2_degenerate_shapes():
    for shape in ((0, 5), (0, 130), (4, 0), (3, 7)):
        assert_rref_b2_matches_oracle(np.zeros(shape, dtype=np.uint8))
        m = FpMatrix.from_dense(2, np.zeros(shape, dtype=np.uint8))
        red, piv = m.rref()
        assert piv == () and red == m
    assert_rref_b2_matches_oracle(np.ones((1, 1), dtype=np.uint8))


def _blocks_of(rows, width, entries=None):
    """The blocks of ``row_blocks`` as index arrays over range(rows) (for a
    count) or as pieces of the array ``rows``."""
    blocks = list(kernels.row_blocks(rows, width, entries))
    if isinstance(rows, int):
        assert all(isinstance(b, slice) for b in blocks)
        return [np.arange(rows)[b] for b in blocks]
    assert all(isinstance(b, np.ndarray) for b in blocks)
    return blocks


@pytest.mark.parametrize("entries", [None, 1, 7, 64, 1000])
def test_row_blocks_cover_each_row_once_in_the_fewest_even_blocks(entries):
    budget = kernels._CHUNK_ENTRIES if entries is None else entries
    for n in (0, 1, 2, 5, 63, 64, 65, 1000, 5000):
        for width in (0, 1, 3, 8, 64, 100, 5000):
            cap = max(1, budget // max(width, 1))
            index = np.arange(n)[::-1] * 3
            for rows, want in ((n, np.arange(n)), (index, index)):
                blocks = _blocks_of(rows, width, entries)
                got = np.concatenate(blocks) if blocks else np.zeros(0, int)
                assert np.array_equal(got, want)
                assert len(blocks) == -(-n // cap)
                sizes = [len(b) for b in blocks]
                assert all(0 < s <= cap for s in sizes)
                # evenly split: every block but the last has the same size
                assert len(set(sizes[:-1])) <= 1 and sizes[-1:] <= sizes[:1]


def test_row_blocks_read_the_block_size_at_the_call(monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 10)
    assert [len(b) for b in _blocks_of(11, 5)] == [2] * 5 + [1]
    assert [len(b) for b in _blocks_of(11, 5, 30)] == [6, 5]
    assert [len(b) for b in _blocks_of(np.arange(4), 0)] == [4]


def test_update_rule_touches_every_row_only_when_most_are_hit():
    for rows, hits, every in ((10, 5, False), (10, 6, True), (11, 5, False),
                              (11, 6, True), (1, 1, True), (1, 0, False)):
        hit = np.arange(hits)
        touched = kernels._touched(hit, rows)
        assert (touched == slice(None)) if every else (touched is hit)
