import random
import tracemalloc

import numpy as np
import pytest

from coclass import kernels
from coclass.fpmat import FpMatrix

from _oracles import naive_kernel, naive_rank, rank


def rand_dense(rng, p, rows, cols):
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def test_kernel_zero_matrix():
    for p in (2, 3):
        z = FpMatrix.from_dense(p, np.zeros((5, 5)))
        assert z.kernel().cols == 5


def test_kernel_identity():
    for p in (2, 3, 5):
        assert FpMatrix.from_dense(p, np.eye(6)).kernel().cols == 0


def test_kernel_random_f3_products_vanish():
    rng = random.Random(42)
    dense = rand_dense(rng, 3, 50, 60)
    a = FpMatrix.from_dense(3, dense)
    got = a.kernel().basis
    assert rank(a) + got.shape[1] == 60
    assert (a @ FpMatrix.from_dense(3, got)).is_zero()
    oracle = naive_kernel(dense, 3)
    assert got.shape[1] == len(oracle)
    for j, col in enumerate(oracle):
        assert list(got[:, j]) == col


def test_kernel_matches_naive_oracle_exactly():
    rng = random.Random(9)
    for p in (2, 3, 5):
        for _ in range(25):
            rows = rng.randrange(1, 14)
            cols = rng.randrange(1, 14)
            dense = rand_dense(rng, p, rows, cols)
            ours = FpMatrix.from_dense(p, dense).kernel().basis
            oracle = naive_kernel(dense, p)
            assert ours.shape[1] == len(oracle)
            for j, col in enumerate(oracle):
                assert list(ours[:, j]) == col


def _kernel_cases(rng, p):
    """Matrices with zero rows, zero columns or both, the zero matrix,
    full column rank, one nonzero column, and random ones of low rank
    whose columns cross a 64-bit word."""
    yield np.zeros((0, 5), dtype=np.uint8)
    yield np.zeros((4, 0), dtype=np.uint8)
    yield np.zeros((0, 0), dtype=np.uint8)
    yield np.zeros((4, 7), dtype=np.uint8)
    full = np.tril(rng.integers(0, p, (9, 6), dtype=np.uint8))
    full[np.arange(6), np.arange(6)] = 1
    yield full
    one = np.zeros((5, 6), dtype=np.uint8)
    one[[1, 3], 4] = rng.integers(1, p, 2, dtype=np.uint8)
    yield one
    for rows, cols, r in ((12, 20, 7), (40, 130, 25), (70, 66, 66)):
        left = rng.integers(0, p, (rows, r), dtype=np.int64)
        dense = (left @ rng.integers(0, p, (r, cols), dtype=np.int64) % p).astype(np.uint8)
        dense[::5] = 0  # zero rows
        dense[:, 3::7] = 0  # zero columns
        yield dense


@pytest.mark.parametrize("chunk", [None, 64])
def test_kernel_step_matches_the_naive_kernel(chunk, monkeypatch):
    # the basis is the oracle's, F is the last nonzero row of each vector
    # (ascending), and the input is left as it was; with 64-entry chunks
    # the pivot rows are read a few at a time
    if chunk:
        monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk)
    rng = np.random.default_rng(21)
    for p in (2, 3, 5, 251):
        for dense in _kernel_cases(rng, p):
            a = FpMatrix.from_dense(p, dense)
            before = a.to_bytes()
            basis, free = a.kernel()
            # the oracle reads the width off the first row
            oracle = (naive_kernel(dense.tolist(), p) if len(dense) else
                      np.eye(dense.shape[1], dtype=int).tolist())
            assert basis.dtype == np.uint8
            assert basis.shape == (dense.shape[1], len(oracle))
            assert basis.T.tolist() == oracle
            last = [int(np.flatnonzero(col)[-1]) for col in basis.T]
            assert free.tolist() == last == sorted(last)
            assert a.to_bytes() == before and np.array_equal(a.to_dense(), dense)


@pytest.mark.parametrize("chunk", [None, 256])
def test_annihilates_matches_the_whole_product(chunk, monkeypatch):
    # a @ K = 0 is taken over the rows of K outside F only (packed at
    # p = 2, its columns split a chunk of rows at a time); it must agree
    # with the whole dense product on kernel bases and on bases with one
    # entry off, outside F or in a column of a at F
    if chunk:
        monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk)
    rng = np.random.default_rng(22)
    for p in (2, 3, 251):
        for dense in _kernel_cases(rng, p):
            basis, free = FpMatrix.from_dense(p, dense).kernel()
            rest = np.setdiff1d(np.arange(dense.shape[1]), free)
            trials = [(dense, basis)]
            if rest.size and free.size:
                off = basis.copy()
                off[rest[-1], -1] = (off[rest[-1], -1] + 1) % p
                trials.append((dense, off))
            if dense.shape[0] and free.size:
                bumped = dense.copy()
                bumped[-1, free[0]] = (bumped[-1, free[0]] + 1) % p
                trials.append((bumped, basis))
            for a, b in trials:
                want = not (a.astype(np.int64) @ b % p).any()
                assert FpMatrix.from_dense(p, a).annihilates(b, free) == want
            assert all(FpMatrix.from_dense(p, a).annihilates(b, free) != (i > 0)
                       for i, (a, b) in enumerate(trials))


def test_kernel_basis_needs_one_temporary_beside_it(monkeypatch):
    # with the reduced echelon form precomputed, the kernel's traced peak
    # (numpy reports its arrays to tracemalloc) is the cols x k basis plus
    # at most one rank x k block, the pivot rows negated (odd p) or
    # unpacked (p = 2) a chunk at a time; the bytes are those of the basis
    # read off the echelon form directly, and F is its non-pivot columns
    rng = np.random.default_rng(5)
    real_rref = FpMatrix.rref
    for p in (2, 3, 251):
        a = FpMatrix.from_dense(p, rng.integers(0, p, (1000, 2000), dtype=np.uint8))
        red, piv = real_rref(a)
        monkeypatch.setattr(FpMatrix, "rref", lambda self, out=(red, piv): out)
        tracemalloc.start()
        try:
            kern = a.kernel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        free = [c for c in range(a.cols) if c not in set(piv)]
        expected = np.zeros((a.cols, len(free)), dtype=np.int64)
        expected[free, np.arange(len(free))] = 1
        expected[list(piv)] = -red.to_dense()[:len(piv)][:, free].astype(np.int64) % p
        assert np.array_equal(kern.basis, expected)
        assert kern.free.tolist() == free
        basis, block = a.cols * len(free), len(piv) * len(free)
        assert (len(piv), len(free)) == (1000, 1000)
        assert peak <= basis + 1.25 * block


def test_rank_dimension_identity_bulk():
    # 200 random matrices per prime, rank + kernel dim = columns
    rng = random.Random(1234)
    for p in (2, 3, 5):
        for _ in range(200):
            rows = rng.randrange(1, 12)
            cols = rng.randrange(1, 12)
            dense = rand_dense(rng, p, rows, cols)
            a = FpMatrix.from_dense(p, dense)
            assert rank(a) + a.kernel().cols == cols
            assert rank(a) == naive_rank(dense, p)


def test_matmul_both_reps():
    rng = random.Random(8)
    for p in (2, 3, 251):
        a = rand_dense(rng, p, 7, 9)
        b = rand_dense(rng, p, 9, 5)
        got = (FpMatrix.from_dense(p, a) @ FpMatrix.from_dense(p, b)).to_dense()
        want = (np.array(a, dtype=np.int64) @ np.array(b, dtype=np.int64)) % p
        assert np.array_equal(got, want.astype(np.uint8))


def test_subtraction_and_row_select():
    rng = random.Random(15)
    for p in (2, 5):
        a = rand_dense(rng, p, 6, 11)
        b = rand_dense(rng, p, 6, 11)
        fa, fb = FpMatrix.from_dense(p, a), FpMatrix.from_dense(p, b)
        want = (np.array(a, dtype=np.int64) - np.array(b)) % p
        assert np.array_equal((fa - fb).to_dense(), want.astype(np.uint8))
        perm = list(range(6))[::-1]
        assert np.array_equal(fa.row_select(perm).to_dense(), fa.to_dense()[perm])


def test_from_dense_reduces_every_dtype():
    rng = np.random.default_rng(3)
    raw = rng.integers(0, 256, size=(5, 70))
    raw[0, :4] = [255, 254, 253, 0]
    for p in (2, 3, 5, 251):
        want = raw % p
        for dtype in (np.uint8, np.int16, np.int64):
            got = FpMatrix.from_dense(p, raw.astype(dtype)).to_dense()
            assert got.dtype == np.uint8
            assert np.array_equal(got, want)
    assert np.array_equal(
        FpMatrix.from_dense(3, np.array([[-1, -5, 7]])).to_dense(), [[2, 1, 1]])


def test_from_dense_uint8_residues_are_copied_not_shared():
    # residues already below p skip the remainder: the matrix must still
    # own its bytes, leave the caller's array writable, and accept views
    # and column-major arrays
    rng = np.random.default_rng(4)
    for p in (2, 3, 251):
        raw = rng.integers(0, p, size=(6, 70)).astype(np.uint8)
        for src in (raw, raw[:, ::-1], raw[::2], raw[:, :0], np.asfortranarray(raw)):
            want = src.copy()
            mat = FpMatrix.from_dense(p, src)
            assert src.flags.writeable
            raw[:] = (raw.astype(np.int64) + 1) % p
            assert np.array_equal(mat.to_dense(), want)
            for wide in (want.astype(np.int64), np.asfortranarray(want, dtype=np.int64)):
                assert mat.to_bytes() == FpMatrix.from_dense(p, wide).to_bytes()
        # one entry at p or above sends the whole matrix through the remainder
        raw[0, 0] = p
        assert FpMatrix.from_dense(p, raw).to_dense()[0, 0] == 0


def test_hstack_matches_dense_concatenation():
    rng = random.Random(12)
    for p in (2, 3, 251):
        parts = [rand_dense(rng, p, 6, cols) for cols in (0, 1, 63, 70)]
        mats = [FpMatrix.from_dense(p, np.array(d, dtype=np.int64).reshape(6, -1))
                for d in parts]
        got = FpMatrix.hstack(mats)
        want = np.concatenate([m.to_dense() for m in mats], axis=1)
        assert (got.rows, got.cols) == want.shape
        assert got == FpMatrix.from_dense(p, want)


def test_fpmx_round_trip():
    rng = random.Random(21)
    for p, rows, cols in [(2, 5, 70), (2, 3, 64), (2, 4, 1), (3, 6, 10), (251, 2, 2)]:
        dense = rand_dense(rng, p, rows, cols)
        a = FpMatrix.from_dense(p, dense)
        back = FpMatrix.from_bytes(a.to_bytes())
        assert back == a
        assert back.to_bytes() == a.to_bytes()


def test_fpmx_header_contents():
    a = FpMatrix.from_dense(3, [[1, 2, 0]])
    buf = a.to_bytes()
    assert buf[:4] == b"FPMX"
    assert buf[4] == 1          # version
    assert buf[5] == 3          # p
    assert int.from_bytes(buf[6:14], "little") == 1
    assert int.from_bytes(buf[14:22], "little") == 3


def test_fpmx_rejects_garbage():
    a = FpMatrix.from_dense(2, [[1, 0, 1]])
    buf = a.to_bytes()
    with pytest.raises(ValueError, match="magic"):
        FpMatrix.from_bytes(b"XXXX" + buf[4:])
    with pytest.raises(ValueError, match="magic"):
        FpMatrix.from_bytes(buf[:21])
    with pytest.raises(ValueError, match="size"):
        FpMatrix.from_bytes(buf + b"\x00")
    # a header p that is not a prime <= 251 is refused, whatever the payload
    for p in (0, 1, 4, 255):
        with pytest.raises(ValueError, match="prime"):
            FpMatrix.from_bytes(buf[:5] + bytes([p]) + buf[6:])
    with pytest.raises(ValueError, match="version"):
        FpMatrix.from_bytes(buf[:4] + b"\x02" + buf[5:])
    # column 3 of a 3-column row is a padding bit
    with pytest.raises(ValueError, match="padding"):
        FpMatrix.from_bytes(buf[:22] + bytes([buf[22] | 0b1000]))
    odd = FpMatrix.from_dense(5, [[1, 4, 0]]).to_bytes()
    with pytest.raises(ValueError, match="residue"):
        FpMatrix.from_bytes(odd[:-1] + b"\x05")


def _fpmx(p, dense):
    """An .fpmx file built from its format description alone."""
    rows, cols = dense.shape
    head = (b"FPMX" + bytes([1, p])
            + rows.to_bytes(8, "little") + cols.to_bytes(8, "little"))
    if p == 2:
        return head + b"".join(np.packbits(row, bitorder="little").tobytes()
                               for row in dense)
    return head + dense.tobytes()


def test_fpmx_bytes_on_disk():
    # round trips pass for any format that reads back what it writes;
    # this pins the bytes themselves
    rng = np.random.default_rng(5)
    shapes = [(0, 70)] + [(3, cols) for cols in (0, 1, 7, 8, 9, 63, 64, 65, 70)]
    for p, (rows, cols) in [(2, shape) for shape in shapes] + [(5, (4, 9))]:
        dense = rng.integers(0, p, size=(rows, cols)).astype(np.uint8)
        want = _fpmx(p, dense)
        mat = FpMatrix.from_dense(p, dense)
        assert mat.to_bytes() == want
        assert FpMatrix.from_bytes(want) == mat


def test_prime_validation():
    with pytest.raises(ValueError):
        FpMatrix.from_dense(4, [[1]])
    with pytest.raises(ValueError):
        FpMatrix.from_dense(257, [[1]])
