"""Hot linear-algebra kernels over small prime fields.

The inner loops that dominate every resolution computation: row
reduction and matrix products mod p, plus bit-packed GF(2) variants.
Odd-p row reduction is a blocked Gauss–Jordan elimination whose trailing
updates are float64 matrix products, so the bulk of its work runs in
BLAS; the GF(2) kernels take columns in strips of 8, one byte of each
packed row, and XOR in rows from a 256-entry Four-Russians table.

Conventions shared by all kernels:
  * odd-p matrices are C-contiguous uint8 arrays of residues in [0, p);
  * GF(2) matrices are uint64 word arrays, column j living in bit j % 64
    of word j // 64, with unused tail bits always zero (table entries
    are XORs of such rows);
  * rref_* operate in place and return the pivot column indices;
  * results are reduced row echelon forms, which are unique, so they do
    not depend on pivot-row choice, block size or BLAS threading.
"""

from __future__ import annotations

import numpy as np

# Recorded by the benchmark harness; there is no jitted path.
USE_NUMBA = False

# Columns per panel of the blocked elimination in rref_u8; 64 was the
# fastest of 32, 64, 128 and 256 on the resolution matrices of B(3,r).
_PANEL = 64


def _mod(x, p):
    """x mod p for an integer-valued float64 array with |x| < 2^53.

    The rounding error of x / p is below |x / p| 2^-53 < 1/p, and a
    non-multiple of p lies at least 1/p from the nearest integer, so the
    floor is exact.  Several times faster than np.mod on floats.
    """
    q = x / p
    np.floor(q, out=q)
    q *= -p
    q += x
    return q


def _rref_small(work, p):
    """Unblocked in-place RREF of a narrow int64 matrix of residues mod p.

    Returns (pivot columns, row order): after the call, row r of ``work``
    is the reduced row built on original row ``order[r]``, so for r below
    the rank, ``order[r]`` is the row that supplied pivot r.  Reduction is
    delayed: only the pivot row and pivot column are brought into [0, p)
    per step, so entries grow by at most (p-1)^2 per pivot, far from
    2^63 at the panel sizes used here.
    """
    rows = work.shape[0]
    order = np.arange(rows)
    pivots = []
    r = 0
    for c in np.flatnonzero(work.any(axis=0)).tolist():
        if r == rows:
            break
        work[:, c] %= p
        nz = work[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            work[[r, pr]] = work[[pr, r]]
            order[[r, pr]] = order[[pr, r]]
        work[r] %= p
        f = pow(int(work[r, c]), p - 2, p)
        if f != 1:
            work[r] *= f
            work[r] %= p
        col = work[:, c].copy()
        col[r] = 0
        hit = col.nonzero()[0]
        if hit.size > rows // 2:
            work -= col[:, None] * work[r]
        elif hit.size:
            work[hit] -= col[hit, None] * work[r]
        pivots.append(c)
        r += 1
    work %= p
    return pivots, order


def rref_u8(a, p):
    """In-place RREF of a uint8 matrix mod p; returns pivot columns.

    Blocked Gauss–Jordan on one float64 copy of ``a``.  Columns are taken
    in panels of ``_PANEL``.  In each panel the unblocked loop finds the k
    new pivots on the not-yet-pivot rows; with M the k x k block of those
    rows and pivot columns, X = M^-1 A[pivot rows, c0:] mod p replaces the
    pivot rows, and every other row gets A[:, c0:] -= A[:, pivot cols] @ X
    as one GEMM (over the rows with a nonzero multiplier only, when those
    are at most half).  Rows are never swapped: the pivot rows are
    gathered in pivot order at the end, ``_PANEL`` rows at a time so the
    final reduction needs no full-size temporary, and every other row has
    reduced to zero.

    Reduction is delayed: only the panel, the pivot columns and X are
    reduced mod p.  Each update subtracts at most k (p-1)^2 from an entry,
    so trailing entries stay below rank (p-1)^2 + p in absolute value —
    under 2^53, where float64 arithmetic is exact, for any rank below
    1.4e11 at p <= 251 — and the result is reduced once at the end.
    """
    rows, cols = a.shape
    work = a.astype(np.float64)
    is_pivot_row = np.zeros(rows, dtype=bool)
    pivot_rows, pivot_cols = [], []
    for c0 in range(0, cols, _PANEL):
        if len(pivot_rows) == rows:
            break
        free = np.flatnonzero(~is_pivot_row)
        panel = _mod(work[free, c0:c0 + _PANEL], p).astype(np.int64)
        local, order = _rref_small(panel, p)
        k = len(local)
        if k == 0:
            continue
        prow = free[order[:k]]
        pcol = c0 + np.asarray(local, dtype=np.int64)
        m = _mod(work[np.ix_(prow, pcol)], p).astype(np.int64)
        aug = np.concatenate([m, np.eye(k, dtype=np.int64)], axis=1)
        _rref_small(aug, p)
        x = _mod(aug[:, k:].astype(np.float64) @ _mod(work[prow, c0:], p), p)
        lhs = _mod(work[:, pcol], p)
        hit = np.flatnonzero(lhs.any(axis=1))
        if hit.size > rows // 2:
            work[:, c0:] -= lhs @ x
        else:
            work[hit, c0:] -= lhs[hit] @ x
        work[prow, c0:] = x
        is_pivot_row[prow] = True
        pivot_rows.extend(prow.tolist())
        pivot_cols.extend(pcol.tolist())
    rank = len(pivot_rows)
    for r0 in range(0, rank, _PANEL):
        chunk = pivot_rows[r0:r0 + _PANEL]
        a[r0:r0 + len(chunk)] = _mod(work[chunk], p)
    a[rank:] = 0
    return np.asarray(pivot_cols, dtype=np.int64)


def matmul_u8(a, b, p):
    """(a @ b) mod p for uint8 operands.

    Goes through float64 matmul (BLAS) — exact as long as inner products
    stay under 2^53, i.e. for inner dimensions up to ~1.4e11 at p <= 251.
    """
    prod = a.astype(np.float64) @ b.astype(np.float64)
    return _mod(prod, p).astype(np.uint8)


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
        hit = np.flatnonzero(sel)
        if hit.size > rows // 2:
            w[:, w0:] ^= tab[sel]
        else:
            w[hit, w0:] ^= tab[sel[hit]]
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
    """
    rows, nw = aw.shape[0], bw.shape[1]
    out = np.zeros((rows, nw), dtype=np.uint64)
    if rows == 0 or a_cols == 0:
        return out
    a_bytes = np.ascontiguousarray(aw, dtype="<u8").view(np.uint8)
    table = np.zeros((256, nw), dtype=np.uint64)
    for c0 in range(0, a_cols, 8):
        _xor_table(table, bw[c0:c0 + 8])
        # zero tail bits keep a short last run's bytes inside its table
        out ^= table[a_bytes[:, c0 // 8]]
    return out
