"""Hot linear-algebra kernels over small prime fields.

The inner loops that dominate every resolution computation: row
reduction and matrix products mod p, plus bit-packed GF(2) variants.
Odd-p row reduction is a blocked Gauss–Jordan elimination whose updates
are float matrix products, so the bulk of its work runs in BLAS.  Each
call picks float32 when every integer it can form stays below 2^24,
where float32 is exact, and float64 otherwise (``_float_dtype``, with
the inner dimension of a product or min(rows, cols) of a row
reduction).  The heads of a resolution step at every p, 2 included,
the positions where vectors of ker x first become nonzero, come from
``heads_u8`` with no row reduction: a triangular solve on one row per
last-nonzero position, one product per dependency level, checked in
every round.  A round reads its rows' nonzero pattern once, a block at
a time, for both the nonzero rows and their last nonzero positions.
``radical_heads`` runs the first round on the radical of a kernel K in
factored form, a partial permutation plus K's rows at the translated
pivot rows, read off K and the translated free rows, so the |S| k x k
radical is never built; the rounds after it are ``heads_u8``'s.
Kernel bases are read off a row echelon form by
:meth:`coclass.fpmat.FpMatrix.kernel`, whose free rows are the
elimination's non-pivot columns, with no rescan of the basis.  The
GF(2) kernels, which take the kernels of p = 2 boundaries, read columns
in strips of 8, one byte of each packed row, and XOR in rows from a
256-entry Four-Russians table.

Conventions shared by all kernels:
  * odd-p matrices, and the inputs of ``heads_u8`` and
    ``radical_heads`` at any p, are C-contiguous uint8 arrays of
    residues in [0, p);
  * GF(2) matrices are uint64 word arrays, column j living in bit j % 64
    of word j // 64, with unused tail bits always zero (table entries
    are XORs of such rows); ``_row_bytes`` and ``_row_words`` are the
    one codec between these words and little-endian row bytes (column j
    in bit j % 8 of byte j // 8), the form that ``matmul_b2`` reads
    strips from and the .fpmx files of :mod:`coclass.fpmat` store;
  * rref_* operate in place and return the pivot column indices;
  * results are reduced row echelon forms or, for the head kernels, a
    set of positions fixed by the row space; both are unique, so they
    do not depend on pivot-row choice, block size or BLAS threading.

One block policy bounds every pass that reads a full-size array in
pieces: ``row_blocks`` splits the rows evenly into the fewest blocks of
at most ``_CHUNK_ENTRIES`` entries each (``_TABLE_BLOCK`` for the group
table passes of :mod:`coclass.resolution`), and every such pass of the
package, here and in :mod:`coclass.fpmat` and :mod:`coclass.resolution`,
takes its blocks from it.  So no float product makes a second full-size
float array: ``rref_u8`` holds one float copy of its input,
``matmul_u8`` one of its right operand only, and ``annihilates_u8`` (the
top-degree kernel check of a resolution) and ``radical_heads`` none.
Whether an update writes every row or only the rows it hits is one rule
too (``_touched``).

BLAS threads: ``rref_u8``, ``heads_u8``, ``radical_heads``,
``matmul_u8`` and ``annihilates_u8`` make many small float products, and
between them an idle OpenBLAS worker thread spins, which nearly doubles
the cpu time of a call for little gain in wall time.  So a call whose
largest operand has fewer than ``_THREADED_ENTRIES`` entries runs on one
BLAS thread and restores the caller's thread count on exit, also when it
raises; a larger call keeps the count it was entered with, because two
threads still pay off there.  ``radical_heads`` runs on one thread at
any size: its products are over |I_p| columns, and its triangular solve
is one small product per level, so a second thread costs more cpu than
it saves wall (BENCH_factored_heads.json).  The count is only ever
lowered, so ``OPENBLAS_NUM_THREADS`` still caps it.  The library's own
setter is found through ``ctypes`` among the process's mapped libraries
at the first call that needs it; with no OpenBLAS found (MKL,
Accelerate, a system without ``/proc/self/maps``) the policy does
nothing.  The count is global to the process, and the
package calls its kernels from one thread only.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy as np

# Recorded by the benchmark harness; there is no jitted path.
USE_NUMBA = False

# Columns per panel of the blocked elimination in rref_u8; 64 was the
# fastest of 32, 64, 128 and 256 on the resolution matrices of B(3,r).
_PANEL = 64
# Rows per chunk when _panel_basis reads the not-yet-pivot rows of a panel.
_CHUNK = 64
# Entries per block of row_blocks, the one block policy: per float block of
# a product (rref_u8's update, matmul_u8, annihilates_u8, the radical's
# product) and per block of rows that heads_u8, _end_solve, the radical's
# ends and rows, fpmat and resolution read; bytes per table block and per
# gather of matmul_b2.
_CHUNK_ENTRIES = 1 << 19
# Entries of the largest operand from which a kernel call keeps its BLAS
# threads; smaller calls run on one.  On inputs captured from the order-729
# quotient (BENCH_blas_threads.json), two threads cut wall time by 6-43% on
# its largest inputs, of 4.8M-9.6M entries, and by nothing on its 2.1M-entry
# ones (rref_u8 730 x 2916).  Every input of B(3,r) to degree 7 and of
# orders up to 729 to degree 2 has at most 1.1M entries; there a second
# thread saves at most 5 ms of wall per call and costs more cpu than that.
_THREADED_ENTRIES = 1 << 22
# Symbol pairs (setter, getter) of the thread count, tried in this order.
_OPENBLAS_THREADS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _blas_threads():
    """(get, set) for the thread count of a BLAS library mapped into this
    process that exports one of ``_OPENBLAS_THREADS``, or () if none.
    Looked up at the first call and kept."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {fields[5].strip() for fields in (line.split(None, 5) for line in maps)
                     if len(fields) == 6 and "blas" in os.path.basename(fields[5]).lower()}
    except OSError:
        return ()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _OPENBLAS_THREADS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                get, put = getattr(lib, getter), getattr(lib, setter)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return ()


def _on_one_thread(kernel, small_only=False):
    """Run ``kernel`` on one BLAS thread, restoring the thread count it
    found on exit; with ``small_only``, only when its largest array
    argument has fewer than ``_THREADED_ENTRIES`` entries, and otherwise
    leave the count alone."""

    @functools.wraps(kernel)
    def run(*args):
        small = not small_only or max(
            a.size for a in args if isinstance(a, np.ndarray)) < _THREADED_ENTRIES
        threads = _blas_threads() if small else ()
        before = threads[0]() if threads else 1
        if before <= 1:
            return kernel(*args)
        threads[1](1)
        try:
            return kernel(*args)
        finally:
            threads[1](before)

    return run


def _small_on_one_thread(kernel):
    """``_on_one_thread`` for calls below ``_THREADED_ENTRIES`` only."""
    return _on_one_thread(kernel, small_only=True)


def _float_dtype(n, p):
    """float32 if n (p-1)^2 + p < 2^24, else float64.

    A sum of n products of residues mod p, and any partial sum of it, is
    an integer of magnitude at most n (p-1)^2.  Below 2^24 every such
    integer is a float32, so BLAS computes it exactly in any summation
    order, and ``_mod`` reduces anything of magnitude under 2^24 - p.
    float32 halves the memory and the bandwidth of every product.
    """
    return np.float32 if n * (p - 1) ** 2 + p < 1 << 24 else np.float64


def _mod(x, p):
    """x mod p for an integer-valued float array with |x| < 2^s - p,
    s = 24 for float32 and 53 for float64 (the significand width).

    The rounding error of x / p is below |x / p| 2^-s < 1/p, and a
    non-multiple of p lies at least 1/p from the nearest integer, so the
    floor is exact; floor(x / p) p then has magnitude below |x| + p, so
    it and the remainder are exact too.  Several times faster than np.mod
    on floats.
    """
    q = x / p
    np.floor(q, out=q)
    q *= -p
    q += x
    return q


def row_blocks(rows, width, entries=None):
    """The fewest evenly split blocks of ``rows`` in which each block holds
    at most ``entries`` entries (``_CHUNK_ENTRIES`` when None, read at the
    call) of ``width`` each: blocks of at most max(1, entries // width)
    rows, a width of 0 counting as 1.

    ``rows`` is a row count, whose blocks are slices of range(rows), or an
    index array, whose blocks are its pieces; either kind indexes an array
    in order.  Every entry-sized pass of the package takes its blocks here.
    """
    count = isinstance(rows, (int, np.integer))
    n = rows if count else len(rows)
    if n == 0:
        return
    cap = max(1, (_CHUNK_ENTRIES if entries is None else entries) // max(width, 1))
    step = -(-n // -(-n // cap))
    for r0 in range(0, n, step):
        block = slice(r0, min(r0 + step, n))
        yield block if count else rows[block]


def _touched(hit, rows):
    """The rows that an update of ``rows`` rows writes when its multipliers
    are nonzero on the rows ``hit``: every row (``slice(None)``) when more
    than half of them are hit, where whole rows cost less than a gather and
    a scatter, and otherwise ``hit``."""
    return slice(None) if hit.size > rows // 2 else hit


def _rref_small(work, p, width):
    """Unblocked in-place Gauss–Jordan elimination of a small int32
    matrix of residues mod p, pivoting on its first ``width`` columns.

    Rows are not swapped.  Returns (pivot columns, pivot rows): row
    ``prow[i]`` ends as the reduced row with pivot ``piv[i]``, a
    combination of the original rows ``prow``, and every other row ends
    zero on the first ``width`` columns.  Reduction is delayed: the
    pivot row and a copy of the pivot column are reduced per step, so
    entries grow by at most (p-1)^2 per pivot, far from 2^31 at the
    sizes used here (at most 64 pivots), and the matrix is reduced once
    at the end.
    """
    rows = work.shape[0]
    free = np.ones(rows, dtype=bool)
    pivots, prow = [], []
    for c in np.flatnonzero(work[:, :width].any(axis=0)).tolist():
        if len(prow) == rows:
            break
        col = work[:, c] % p
        cand = col.astype(bool)
        cand &= free
        r = int(cand.argmax())
        if not cand[r]:
            continue
        # the pivot row is zero mod p left of c, like every free row
        row = work[r, c:]
        row %= p
        f = pow(int(row[0]), p - 2, p)
        if f != 1:
            row *= f
            row %= p
        col[r] = 0
        hit = col.nonzero()[0]
        if hit.size:
            t = _touched(hit, rows)
            work[t, c:] -= col[t, None] * row
        free[r] = False
        pivots.append(c)
        prow.append(r)
    work %= p
    return pivots, prow


def _panel_basis(panel, p):
    """Rows of a panel that span its row space, and the inverse of their
    pivot block.

    ``panel`` is a float array of residues mod p.  Returns ``(chosen,
    piv, t)``: with M = panel[chosen][:, piv] (rows in ``chosen``'s order,
    ``piv`` ascending), t = M^-1 mod p, so t @ panel[chosen] is the
    reduced echelon basis E of the panel's row space, with pivots ``piv``.

    The rows are read in chunks of ``_CHUNK``, keeping E and T with
    E = T @ panel[chosen] so far.  A chunk C is reduced against E with
    one product, C - C[:, piv] @ E, and only the rows that stay nonzero
    go through ``_rref_small``, with their coefficient rows
    [-C[:, piv] @ T | I] over the chosen rows and the chunk.  The new
    pivot columns are cleared from E, with the same row operations on
    T, and the new rows are appended and sorted in by pivot.
    The products run in BLAS in the panel's float dtype: every factor is
    a residue and the inner dimension is at most the rank, so the bound
    of ``_float_dtype`` holds.
    """
    rows, width = panel.shape
    dt = panel.dtype
    basis = np.zeros((0, width), dtype=dt)
    coef = np.zeros((0, 0), dtype=dt)
    piv = np.zeros(0, dtype=np.int64)
    chosen = []
    for r0 in range(0, rows, _CHUNK):
        k = len(chosen)
        if k == width:
            break
        chunk = panel[r0:r0 + _CHUNK]
        if k:
            lead = chunk[:, piv]
            chunk = _mod(chunk - lead @ basis, p)
        live = np.flatnonzero(chunk.any(axis=1))
        if live.size == 0:
            continue
        n = live.size
        aug = np.zeros((n, width + k + n), dtype=np.int32)
        aug[:, :width] = chunk[live]
        if k:
            aug[:, width:width + k] = _mod(-(lead[live] @ coef), p)
        aug[np.arange(n), width + k + np.arange(n)] = 1
        # a live row is nonzero mod E, so it supplies at least one pivot
        local, src = _rref_small(aug, p, width)
        kn = len(local)
        src = np.asarray(src)
        new = aug[src, :width].astype(dt)
        new_coef = aug[src[:, None], np.r_[width:width + k, width + k + src]].astype(dt)
        coef = np.concatenate([coef, np.zeros((k, kn), dtype=dt)], axis=1)
        if k:
            hit = basis[:, local]
            basis = _mod(basis - hit @ new, p)
            coef = _mod(coef - hit @ new_coef, p)
        by_pivot = np.argsort(np.concatenate([piv, local]), kind="stable")
        basis = np.concatenate([basis, new])[by_pivot]
        coef = np.concatenate([coef, new_coef])[by_pivot]
        piv = np.concatenate([piv, local])[by_pivot]
        chosen.extend((r0 + live[src]).tolist())
    return chosen, piv, coef


@_small_on_one_thread
def rref_u8(a, p):
    """In-place RREF of a uint8 matrix mod p; returns pivot columns.

    Blocked Gauss–Jordan on one float copy of ``a``, float32 when
    ``_float_dtype(min(rows, cols), p)`` allows it and float64 otherwise.
    Columns are taken in panels of ``_PANEL``.  In each panel
    ``_panel_basis`` picks k rows among the not-yet-pivot ones whose
    panel entries span those of all of them, with pivot columns and
    T = M^-1 for M the k x k block of those rows and columns; T @ M = I
    is checked (AssertionError otherwise).  X = T A[pivot rows, c0:] mod
    p replaces the pivot rows, and every other row gets
    A[:, c0:] -= A[:, pivot cols] @ X, one GEMM per block of
    ``row_blocks``, so the update makes no second full-size float array
    (over the rows with a nonzero multiplier only, when ``_touched`` says
    so).  Rows are never swapped: the pivot rows are gathered in pivot
    order at the end, at most ``_PANEL`` rows at a time so the final
    reduction needs no full-size temporary, and every other row has
    reduced to zero.

    Reduction is delayed: only the panel, the pivot columns and X are
    reduced mod p.  Each update subtracts at most k (p-1)^2 from an entry,
    so trailing entries stay below rank (p-1)^2 + p <= min(rows, cols)
    (p-1)^2 + p in absolute value, which ``_float_dtype`` keeps inside
    the range where the float type is exact; the result is reduced once
    at the end.
    """
    rows, cols = a.shape
    work = a.astype(_float_dtype(min(rows, cols), p))
    is_pivot_row = np.zeros(rows, dtype=bool)
    pivot_rows, pivot_cols = [], []
    for c0 in range(0, cols, _PANEL):
        if len(pivot_rows) == rows:
            break
        free = np.flatnonzero(~is_pivot_row)
        panel = _mod(work[free, c0:c0 + _PANEL], p)
        chosen, local, t = _panel_basis(panel, p)
        k = len(chosen)
        if k == 0:
            continue
        if (_mod(t @ panel[np.ix_(chosen, local)], p) != np.eye(k)).any():
            raise AssertionError("panel inverse does not invert its pivot block")
        prow = free[chosen]
        pcol = c0 + local
        x = _mod(t @ _mod(work[prow, c0:], p), p)
        lhs = _mod(work[:, pcol], p)
        hit = np.flatnonzero(lhs.any(axis=1))
        for blk in row_blocks(hit if _touched(hit, rows) is hit else rows, cols - c0):
            work[blk, c0:] -= lhs[blk] @ x
        work[prow, c0:] = x
        is_pivot_row[prow] = True
        pivot_rows.extend(prow.tolist())
        pivot_cols.extend(pcol.tolist())
    rank = len(pivot_rows)
    pivot_rows = np.asarray(pivot_rows, dtype=np.intp)
    for blk in row_blocks(rank, 1, entries=_PANEL):
        a[blk] = _mod(work[pivot_rows[blk]], p)
    a[rank:] = 0
    return np.asarray(pivot_cols, dtype=np.int64)


@_small_on_one_thread
def heads_u8(x, p):
    """Positions where some vector of ker x (right kernel, mod p) has its
    first nonzero entry, ascending, for a uint8 matrix x and any prime p.

    Equivalently, e_j lies outside rowspace(x) + span(e_i, i < j): a
    functional vanishing on the row space with first nonzero entry at j
    exists exactly then.  These are the complement of k-1-pivots of x
    with its columns reversed, found here without a row reduction.

    Each round takes one row of x per distinct *end* (last nonzero
    position); these rows form L, triangular on the ends, so no end is a
    head.  The other positions C are the candidates.  A vector phi of
    ker L is fixed by phi[C]: the row ending at j gives phi_j from
    phi_i, i < j.  ``_end_solve`` returns B (k x |C|) with B[C] = I and
    L B = 0, so the columns of B are a basis of ker L, and the first
    nonzero entry of B psi is that of psi (the entries at ends below it
    are forced zero).  Hence heads(x) = C[heads(M)] for M = (the other
    rows) B, and the next round runs on M; once no nonzero row is left,
    every remaining candidate is a head.

    The certificate: L B = 0 mod p is checked in every round
    (AssertionError otherwise).  With B[C] = I, which holds by
    construction, that proves the round's reduction, so the result is
    exact whatever the solve did.  Products run in BLAS in the dtype of
    ``_float_dtype(k, p)``: factors are residues and the inner dimension
    is at most k.  x is read in place a block of ``row_blocks`` at a
    time: one ``x != 0`` per block gives both its nonzero rows and their
    ends, the product reads the nonzero rows only, a round makes no copy
    of x, and M is kept in uint8.
    """
    pos = np.arange(x.shape[1])
    dt = _float_dtype(x.shape[1], p)
    neg_inv = _neg_inv(p, dt)
    while pos.size and len(x):
        k = pos.size
        live, end = _row_ends(x)
        if live.size == 0:
            break
        ends, first = np.unique(end, return_index=True)
        cand = _others(k, ends)
        b = _end_solve(x, live[first], ends, cand, p, neg_inv)
        xb = np.empty((live.size, cand.size), dtype=np.uint8)
        for blk in row_blocks(live.size, k):
            xb[blk] = _mod(x[live[blk]].astype(dt) @ b, p)
        _check_solve(xb, first)
        # the rows of L are zero in M, so the next round drops them
        x = xb
        pos = pos[cand]
    return pos


def _neg_inv(p, dt):
    """-1/a mod p in dtype ``dt``, indexed by the residue a (0 at 0)."""
    neg_inv = np.zeros(p, dtype=dt)
    neg_inv[1:] = [p - pow(a, p - 2, p) for a in range(1, p)]
    return neg_inv


def _others(k, ends):
    """The positions of range(k) outside ``ends``, ascending."""
    mask = np.ones(k, dtype=bool)
    mask[ends] = False
    return np.flatnonzero(mask)


def _check_solve(xb, first):
    """Raise AssertionError unless the rows ``first`` of a round's product
    M = (rows) B, the rows of L, are zero: L B = 0 mod p."""
    if xb[first].any():
        raise AssertionError("triangular solve does not vanish on its rows")


@_on_one_thread
def radical_heads(kd, free, srcs, p):
    """``heads_u8(R, p)`` for the radical R of a kernel, without R.

    ``kd`` is a uint8 basis K of a kernel, k columns, the identity on its
    ascending free rows ``free`` (F), so a vector of K has its
    K-coordinates at F.  ``srcs[g]`` are the rows F translated by a
    generator g: translation sends row src_g[i] of a vector to row F[i].
    R stacks, for each g, the k x k block R_g whose row j is (g-1)e_j in
    K-coordinates, R_g[j, i] = K[src_g[i], j] - [i = j].

    Most translated free rows are free rows: where src_g[i] = F[l], K
    reads e_l there, and R_g[:, i] is e_l.  So R_g = Pi_g - I + D_g, with
    Pi_g the partial permutation of those columns (``inv[l] = i``) and
    D_g nonzero only on the other columns I_p (``ip``), where
    D_g[:, I_p] = K[src_g[I_p]]^T.  This routine runs the first round of
    :func:`heads_u8` on that form and never builds R (|S| k x k bytes):

    * each row's end is read off Pi_g, the diagonal (-1, plus 1 where
      inv[j] = j, plus K[src_j, j] where j is in I_p) and D_g
      (``_radical_ends``);
    * L, one row per end, is built dense (``_radical_rows``), at most
      k x k bytes, and ``_end_solve`` solves it as in :func:`heads_u8`;
    * R B = B[inv] + D_g^T B[I_p] - B for each g (``_radical_product``),
      a product over |I_p| columns, not k, in float blocks of
      ``row_blocks``; its rows of L must vanish, the same L B = 0
      certificate as every round of :func:`heads_u8`, which then runs
      the other rounds on the rest M.

    The form needs K to be the identity on F; at the top degree of a
    resolution :func:`coclass.resolution._check_top_kernel` certifies
    that, and below it the next degree's rank comparison certifies the
    boundary whatever its heads.  Every raw coefficient of R_g lies in
    [-1, p-1], so R B has the bound k (p-1)^2 of a dense round and runs
    in the dtype of ``_float_dtype(k, p)``.
    """
    k = free.size
    if k == 0 or not len(srcs):
        return np.arange(k)  # R has no column or no row
    blocks = [(src,) + _translate(free, src) for src in srcs]
    end = _radical_ends(kd, blocks, p)
    live = np.flatnonzero(end >= 0)
    if live.size == 0:
        return np.arange(k)
    ends, first = np.unique(end[live], return_index=True)
    cand = _others(k, ends)
    # L lives for the solve only, so the product's blocks come after it
    b = _end_solve(_radical_rows(kd, blocks, live[first], p), np.arange(ends.size),
                   ends, cand, p, _neg_inv(p, _float_dtype(k, p)))
    xb = _radical_product(kd, blocks, live, b, p)
    _check_solve(xb, first)
    return cand[heads_u8(xb, p)]


def _translate(free, src):
    """``(inv, ip)`` of one block R_g: ip, ascending, the positions i whose
    translated row src[i] is not free (I_p), and inv[l] the position i
    with src[i] = free[l], or k where there is none."""
    k = free.size
    at = np.minimum(np.searchsorted(free, src), k - 1)
    moved = free[at] == src
    inv = np.full(k, k)
    inv[at[moved]] = np.flatnonzero(moved)
    return inv, np.flatnonzero(~moved)


def _radical_ends(kd, blocks, p):
    """The last nonzero position of each row of R, -1 for a zero row; row
    g k + j is row j of R_g = Pi_g - I + D_g, and ``blocks`` holds
    ``(src, inv, ip)`` per g.  The columns I_p of D_g are read a block of
    ``row_blocks`` at a time, as rows K[src_g[I_p]], whose entry (i, j)
    is R_g[j, i]; the entry at i = j belongs to the diagonal."""
    k = kd.shape[1]
    pos = np.arange(k)
    out = []
    for src, inv, ip in blocks:
        diag = np.where(inv == pos, 0, p - 1)
        diag[ip] = (kd[src[ip], ip].astype(np.intp) + p - 1) % p
        end = np.where(diag != 0, pos, -1)
        np.maximum(end, np.where((inv < k) & (inv != pos), inv, -1), out=end)
        for rows in row_blocks(ip, k):
            nz = kd[src[rows]] != 0
            nz[np.arange(rows.size), rows] = False
            last = rows[rows.size - 1 - nz[::-1].argmax(axis=0)]
            np.maximum(end, np.where(nz.any(axis=0), last, -1), out=end)
        out.append(end)
    return np.concatenate(out)


def _radical_rows(kd, blocks, rows, p):
    """The rows ``rows`` of R (row g k + j is row j of R_g), in that order,
    dense uint8, written in place; the columns I_p of each R_g are
    gathered from K a block of ``row_blocks`` at a time."""
    k = kd.shape[1]
    gs, js = np.divmod(rows, k)
    out = np.zeros((rows.size, k), dtype=np.uint8)
    for g, (src, inv, ip) in enumerate(blocks):
        at = np.flatnonzero(gs == g)
        j = js[at]
        for blk in row_blocks(ip, k):
            out[np.ix_(at, blk)] = kd[src[blk]].take(j, axis=1).T
        moved = inv[j] < k
        out[at[moved], inv[j[moved]]] = 1
        out[at, j] = (out[at, j].astype(np.intp) + p - 1) % p
    return out


def _radical_product(kd, blocks, rows, b, p):
    """(R b)[rows] mod p as uint8, for ascending ``rows`` of R (row g k + j
    is row j of R_g), by R_g b = b[inv] + D_g^T b[I_p] - b: per block of
    ``row_blocks`` over the rows of R_g (each reading |I_p| entries of K
    and writing |C|), a GEMM over the |I_p| columns of D_g against b[I_p]
    (a gather of at most the rows of b), plus the rows of b that Pi_g
    moves, minus b.  Each partial sum adds at most one term per column i
    with a coefficient in [-1, p-1], so the float stays exact where a
    dense round's does."""
    k = kd.shape[1]
    out = np.empty((rows.size, b.shape[1]), dtype=np.uint8)
    for g, (src, inv, ip) in enumerate(blocks):
        lhs, bp = src[ip], b[ip]
        for blk in row_blocks(k, max(ip.size, b.shape[1])):
            lo, hi = np.searchsorted(rows, (g * k + blk.start, g * k + blk.stop))
            if lo == hi:
                continue
            prod = kd[lhs, blk].astype(b.dtype).T @ bp
            moved = np.flatnonzero(inv[blk] < k)
            prod[moved] += b[inv[blk][moved]]
            prod -= b[blk]
            out[lo:hi] = _mod(prod[rows[lo:hi] - g * k - blk.start], p)
    return out


def _row_ends(x):
    """``(rows, ends)``: the nonzero rows of the uint8 matrix x, ascending,
    and the last nonzero position of each, both from one ``x != 0`` per
    block of ``row_blocks``.  x has at least one row and one
    column."""
    k = x.shape[1]
    rows, ends = [], []
    for blk in row_blocks(x.shape[0], k):
        nz = x[blk] != 0
        last = k - 1 - nz[:, ::-1].argmax(axis=1)
        # a zero row's argmax is 0, the last position, which it misses
        hit = np.flatnonzero(nz[np.arange(nz.shape[0]), last])
        rows.append(blk.start + hit)
        ends.append(last[hit])
    return np.concatenate(rows), np.concatenate(ends)


def _end_solve(x, keep, ends, cand, p, neg_inv):
    """B with B[cand] = I and x[keep] @ B = 0 mod p, by forward substitution.

    Row ``keep[i]`` of ``x`` has its last nonzero at ``ends[i]``,
    ascending, so it gives B[ends[i]] from the rows of B at smaller
    positions.  A row's level is 1 + the highest level among the ends it
    reads, taken from its nonzero pattern at the ends, and each level is
    one product: B[ends] = -(rows @ B mod p) / pivot, reduced before it
    is scaled so that the float stays exact.  The rows of B at ends of
    the level and above are still zero, and no row of the level reads
    them.  The pattern is read a block of ``row_blocks`` at a time, as a
    gather of rows of ``x`` and then a take of their columns at the ends,
    and stored transposed (``reads[j, i]``: row i reads end j), so that a
    level's update sums whole rows of it.
    """
    dt = neg_inv.dtype
    b = np.zeros((x.shape[1], cand.size), dtype=dt)
    b[cand, np.arange(cand.size)] = 1
    scale = neg_inv[x[keep, ends]][:, None]
    reads = np.empty((ends.size, ends.size), dtype=bool)
    for blk in row_blocks(ends.size, x.shape[1]):
        reads[:, blk] = x[keep[blk]].take(ends, axis=1).T != 0
    np.fill_diagonal(reads, False)
    waiting = reads.sum(axis=0)  # ends each row reads that are not solved yet
    ready = np.flatnonzero(waiting == 0)
    while ready.size:
        lrows = x[keep[ready]]
        cols = np.flatnonzero(lrows.any(axis=0))
        prod = _mod(lrows[:, cols].astype(dt) @ b[cols], p)
        prod *= scale[ready]
        b[ends[ready]] = _mod(prod, p)
        waiting -= reads[ready].sum(axis=0)
        waiting[ready] = -1
        ready = np.flatnonzero(waiting == 0)
    return b


@_small_on_one_thread
def matmul_u8(a, b, p):
    """(a @ b) mod p for uint8 operands.

    Goes through a float matmul (BLAS) in the dtype that
    ``_float_dtype`` picks for the inner dimension: float32 up to
    (2^24 - p) / (p-1)^2 terms (4.19M at p = 3, 268 at p = 251), float64
    up to about 1.4e11 at p <= 251.  ``b`` is converted once; ``a`` is
    converted and multiplied a block of ``row_blocks`` at a time, with
    blocks of ``a`` and of the float result within ``_CHUNK_ENTRIES``
    entries, and each block is reduced into the uint8 result, so no
    full-size float copy of ``a`` or of the result is made.
    """
    rows, inner = a.shape
    dt = _float_dtype(inner, p)
    bf = b.astype(dt)
    out = np.empty((rows, b.shape[1]), dtype=np.uint8)
    for blk in row_blocks(rows, max(inner, b.shape[1])):
        out[blk] = _mod(a[blk].astype(dt) @ bf, p)
    return out


@_small_on_one_thread
def annihilates_u8(a, basis, free, p):
    """Whether a @ basis = 0 mod p, for a uint8 ``basis`` whose rows
    ``free`` are the identity (the caller checks that).

    With R the other rows, a @ basis = a[:, R] @ basis[R] + a[:, free],
    so the product is taken over R alone: rows(a) |R| k multiply-adds
    instead of rows(a) (|R| + k) k.  It runs in BLAS in the dtype of
    ``_float_dtype(|R| + 1, p)`` (|R| products and one entry of a per
    sum), a block of rows of ``a`` at a time, each converted once, times
    blocks of columns of ``basis[R]``, both from ``row_blocks``; every
    float block has at most ``_CHUNK_ENTRIES`` entries, and the check
    stops at the first block with a nonzero entry.
    """
    rest = np.setdiff1d(np.arange(basis.shape[0]), free, assume_unique=True)
    dt = _float_dtype(rest.size + 1, p)
    for blk in row_blocks(a.shape[0], rest.size):
        rows = a[blk]
        lhs = rows[:, rest].astype(dt)
        # the columns of basis[R] and of the product in blocks too
        for c in row_blocks(free.size, max(rest.size, len(rows))):
            prod = lhs @ basis[rest, c].astype(dt)
            prod += rows[:, free[c]]
            if _mod(prod, p).any():
                return False
    return True


def _row_bytes(words, cols):
    """The little-endian row bytes of a packed GF(2) matrix: column j in
    bit j % 8 of byte j // 8, (cols + 7) // 8 bytes per row.

    A view of ``words`` on a little-endian host; a big-endian host reads
    a byte-swapped copy.
    """
    as_bytes = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return as_bytes[:, :(cols + 7) // 8]


def _row_words(data, rows, cols):
    """Packed words from row bytes, the inverse of ``_row_bytes``.

    ``data`` is a buffer of ``rows`` rows of (cols + 7) // 8 bytes each;
    the result is a fresh (rows, (cols + 63) // 64) uint64 array with
    zero tail bits.  ValueError if the size is wrong or a bit at a
    column >= cols is set.
    """
    rowbytes = (cols + 7) // 8
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size != rows * rowbytes:
        raise ValueError("payload size mismatch")
    raw = raw.reshape(rows, rowbytes)
    if cols % 8 and (raw[:, -1] >> cols % 8).any():
        raise ValueError("nonzero padding bits")
    padded = np.zeros((rows, (cols + 63) // 64 * 8), dtype=np.uint8)
    padded[:, :rowbytes] = raw
    return padded.view("<u8").astype(np.uint64, copy=False)


def _xor_table(table, rows):
    """Fill ``table[b]`` with the XOR of ``rows[t]`` over the set bits t of b.

    By doubling: entries [2^t, 2^(t+1)) are entries [0, 2^t) XORed with
    ``rows[t]``, one row XOR per entry.  ``table[0]`` must be zero, and
    entries from 2^len(rows) on are left as they were.
    """
    for t, row in enumerate(rows):
        np.bitwise_xor(table[:1 << t], row, out=table[1 << t:2 << t])


def _strip_basis(strip):
    """Rows of ``strip`` (a uint8 vector) whose bytes are a basis of its span.

    A byte is a row of 8 columns, column t in bit t, so the pivot of a
    nonzero byte is its lowest set bit.  Returns ``(chosen, echelon)``:
    the bytes ``strip[chosen]`` are a basis, and ``echelon`` lists
    ``(t, mask)`` by ascending pivot t, where the XOR of
    ``strip[chosen[j]]`` over the set bits j of ``mask`` is the reduced
    echelon basis byte with pivot t.
    """
    seen = np.full(256, -1, dtype=np.intp)
    seen[strip] = np.arange(strip.size)  # a row holding each byte value
    basis = {}  # pivot bit -> (byte, mask over chosen)
    chosen = []
    for byte in np.flatnonzero(seen >= 0).tolist():
        v, mask = byte, 1 << len(chosen)
        while v and v & -v in basis:
            bv, bm = basis[v & -v]
            v ^= bv
            mask ^= bm
        if v:
            basis[v & -v] = (v, mask)
            chosen.append(int(seen[byte]))
            if len(chosen) == 8:
                break
    lows = sorted(basis)
    for j, lo in enumerate(lows):  # only lower pivots' bytes can hold bit lo
        v, m = basis[lo]
        for other in lows[:j]:
            ov, om = basis[other]
            if ov & lo:
                basis[other] = (ov ^ v, om ^ m)
    return chosen, [(lo.bit_length() - 1, basis[lo][1]) for lo in lows]


def rref_b2(w, ncols):
    """In-place RREF of a bit-packed GF(2) matrix; returns pivot columns.

    Four-Russians Gauss–Jordan (Albrecht, Bard & Hart, TOMS 2010) on
    strips of 8 columns, one byte of the little-endian rows.  Rows
    ``[rank, rows)`` are the not-yet-pivot rows, zero left of the strip.
    For each strip at column c0:

    1. ``_strip_basis`` picks k <= 8 of those rows whose strip bytes are
       a basis of the span of theirs, with the reduced echelon form of
       that span;
    2. ``tab[m]`` is the XOR of the chosen rows at the set bits of m
       (from word c0 // 64 on), so the reduced pivot rows are k entries
       of ``tab``;
    3. ``combo[b]`` is the entry that clears the pivot bits of byte b:
       the XOR of the reduced pivot rows at b's pivot bits;
    4. every row with a pivot bit in its strip byte XORs in
       ``tab[combo[byte]]``, which zeroes the not-yet-pivot rows on the
       strip and clears the new pivot columns from the earlier pivot
       rows, and the reduced pivot rows are written to rows
       ``[rank, rank + k)`` (the free rows there move to the chosen
       rows' slots, which the update has zeroed).

    So the pivot rows end up in pivot order with no final gather, and
    the only temporaries are the update's, at most one matrix.  Table
    entries are XORs of rows, so tail bits stay zero.  The RREF is
    unique, so the output does not depend on which rows are chosen.
    """
    rows, nw = w.shape
    table = np.zeros((256, nw), dtype=np.uint64)
    combo = np.zeros(256, dtype=np.intp)
    pivots = []
    for c0 in range(0, ncols, 8):
        rank = len(pivots)
        if rank == rows:
            break
        w0, shift = divmod(c0, 64)
        strip = (w[:, w0] >> np.uint64(shift)).astype(np.uint8)
        chosen, echelon = _strip_basis(strip[rank:])
        if not chosen:
            continue
        src = [rank + i for i in chosen]
        tab = table[:, w0:]
        _xor_table(tab, w[src, w0:])
        prow = tab[[mask for _, mask in echelon]]
        by_bit = [0] * 8
        for t, mask in echelon:
            by_bit[t] = mask
        _xor_table(combo, by_bit)
        sel = combo[strip]
        t = _touched(np.flatnonzero(sel), rows)
        w[t, w0:] ^= tab[sel[t]]
        end = rank + len(src)
        movers = [r for r in range(rank, end) if r not in src]
        if movers:
            w[[r for r in src if r >= end]] = w[movers]
        w[rank:end, w0:] = prow
        pivots.extend(c0 + t for t, _ in echelon)
    return np.asarray(pivots, dtype=np.int64)


def matmul_b2(aw, bw, a_cols):
    """GF(2) product of packed matrices, Method of Four Russians.

    Row i of the result is the XOR of the rows of ``bw`` selected by the
    set bits of row i of ``aw``.  For each run of 8 columns of ``aw`` (one
    byte of its little-endian rows) the 256 XOR combinations of the
    matching 8 rows of ``bw`` are tabulated once, and every output row
    XORs in the entry its byte selects (Albrecht, Bard & Hart, TOMS 2010).
    Table entries are XORs of rows of ``bw``, so tail bits stay zero.

    The runs go a block at a time: the block's tables are built together,
    one doubling XOR per bit over a (runs, 256, nw) array, and each chunk
    of output rows gathers its entries as one (runs, rows, nw) array and
    XORs them together by one reduction.  Both sets of blocks come from
    ``row_blocks``, so each array stays within ``_CHUNK_ENTRIES`` bytes
    whenever one run's table fits, and a wide product still works in
    cache-sized pieces.
    """
    rows, nw = aw.shape[0], bw.shape[1]
    out = np.zeros((rows, nw), dtype=np.uint64)
    if rows == 0 or a_cols == 0 or nw == 0:
        return out
    strips = _row_bytes(aw, a_cols).T
    words = _CHUNK_ENTRIES // 8
    run_blocks = list(row_blocks(len(strips), 256 * nw, words))
    step = run_blocks[0].stop  # no block has more runs
    row_chunks = list(row_blocks(rows, step * nw, words))
    table = np.zeros((step, 256, nw), dtype=np.uint64)
    flat = table.reshape(-1, nw)
    # entry b of the block's run j is row 256 j + b of the flat tables
    offset = np.arange(0, 256 * step, 256)[:, None]
    for run in run_blocks:
        n = run.stop - run.start
        src = bw[8 * run.start:8 * run.stop]
        if len(src) < 8 * n:
            # a short last run gets zero rows, which its bytes never
            # select: their tail bits are zero
            src = np.concatenate([src, np.zeros((8 * n - len(src), nw), np.uint64)])
        src = src.reshape(n, 8, 1, nw)
        for t in range(8):
            np.bitwise_xor(table[:n, :1 << t], src[:, t],
                           out=table[:n, 1 << t:2 << t])
        for chunk in row_chunks:
            idx = strips[run, chunk] + offset[:n]
            out[chunk] ^= np.bitwise_xor.reduce(flat.take(idx, axis=0), axis=0)
    return out
