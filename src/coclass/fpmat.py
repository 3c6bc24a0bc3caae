"""Dense matrices over F_p with packed storage.

p = 2 packs rows into uint64 words (64 columns per word, tail bits
zero); odd p stores one byte per residue.  The word layout lives in
:mod:`coclass.kernels`, whose ``_row_bytes`` and ``_row_words`` are the
only conversions between words and row bytes.  Values are immutable
after construction; every operation returns a fresh matrix.  Row
reduction and products go through the kernels in :mod:`coclass.kernels`.

:meth:`FpMatrix.kernel` is the one kernel step: it returns the dense
uint8 basis together with its free rows F, which are the elimination's
non-pivot columns, so no caller rescans the basis for them.  At p = 2 the
basis is read off the unpacked pivot rows of the packed echelon form,
with no packed copy of it; at odd p it is the one array built.

The on-disk format (shared with the resolution cache) is:

    magic "FPMX", version u8, p u8, rows u64 LE, cols u64 LE,
    then rows * rowbytes of payload, where a row is (cols+7)//8 bytes of
    LSB-first bits for p = 2 and cols bytes of residues otherwise.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np

from . import kernels
from .intmat import is_prime

_MAGIC = b"FPMX"
_VERSION = 1


def _prime(p):
    p = int(p)
    if p > 251 or not is_prime(p):
        raise ValueError(f"p must be a prime <= 251, got {p}")
    return p


def _pack_bits(dense):
    """uint8 0/1 matrix -> uint64 word matrix (little-endian bit order)."""
    rows, cols = dense.shape
    # packbits keeps the input's memory order, and the codec reads C order
    packed = np.ascontiguousarray(np.packbits(dense, axis=1, bitorder="little"))
    return kernels._row_words(packed, rows, cols)


def _unpack_bits(words, cols):
    return np.unpackbits(kernels._row_bytes(words, cols), axis=1, count=cols,
                         bitorder="little")


def _split_columns_b2(words, cols, *columns):
    """Packed matrices of the columns ``columns[i]`` of the packed GF(2)
    matrix ``words``, unpacked a block of rows at a time
    (:func:`kernels.row_blocks`), so no dense copy of the whole matrix is
    made."""
    rows = words.shape[0]
    out = [np.empty((rows, (len(c) + 63) // 64), dtype=np.uint64) for c in columns]
    for blk in kernels.row_blocks(rows, cols):
        dense = _unpack_bits(words[blk], cols)
        for part, c in zip(out, columns):
            part[blk] = _pack_bits(dense.take(c, axis=1))
    return out


def _freeze(arr):
    arr.flags.writeable = False
    return arr


class Kernel(NamedTuple):
    """The right kernel that :meth:`FpMatrix.kernel` returns: the dense
    uint8 standard ``basis`` (one column per vector) and its ascending
    rows ``free``, where the basis is the identity."""

    basis: np.ndarray
    free: np.ndarray

    @property
    def cols(self):
        """The kernel's dimension, the columns of ``basis`` (as a matrix's
        ``cols``, which perfbench's tracer records)."""
        return self.free.size


class FpMatrix:
    __slots__ = ("p", "rows", "cols", "_d")

    def __init__(self, p, rows, cols, data):
        # internal: use the classmethod constructors
        self.p = p
        self.rows = rows
        self.cols = cols
        self._d = _freeze(data)

    # -- construction -------------------------------------------------

    @classmethod
    def from_dense(cls, p, data):
        p = _prime(p)
        arr = np.asarray(data)
        if arr.dtype == np.uint8:
            # a range check and a copy cost far less than a uint8 remainder;
            # p = 2 packs into a fresh array without the copy
            if arr.max(initial=0) >= p:
                arr = arr % np.uint8(p)
            elif p != 2:
                arr = arr.copy()
        else:
            arr = (arr.astype(np.int64) % p).astype(np.uint8)
        if arr.ndim != 2:
            raise ValueError("2-d input required")
        rows, cols = arr.shape
        if p == 2:
            return cls(p, rows, cols, _pack_bits(arr))
        return cls(p, rows, cols, np.ascontiguousarray(arr))

    # -- views ---------------------------------------------------------

    def to_dense(self, copy=True):
        """The (rows, cols) uint8 array of residues, copied out; with
        ``copy=False``, odd p returns the matrix's own read-only data (p = 2
        unpacks a fresh array either way)."""
        if self.p == 2:
            return _unpack_bits(self._d, self.cols)
        return self._d.copy() if copy else self._d

    def __eq__(self, other):
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self._d, other._d)
        )

    def __repr__(self):
        return f"FpMatrix(p={self.p}, {self.rows}x{self.cols})"

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other):
        if self.p != other.p or self.cols != other.rows:
            raise ValueError("dimension mismatch")
        if self.p == 2:
            out = kernels.matmul_b2(self._d, other._d, self.cols)
            return FpMatrix(2, self.rows, other.cols, out)
        out = kernels.matmul_u8(self._d, other._d, self.p)
        return FpMatrix(self.p, self.rows, other.cols, out)

    def annihilates(self, basis, free):
        """Whether self @ basis = 0, for a dense uint8 ``basis`` whose rows
        ``free`` are the identity (the caller checks that).

        With R the other rows, self @ basis = self[:, R] basis[R] +
        self[:, free], so only basis[R] is multiplied: odd p checks the sum
        in blocks (:func:`kernels.annihilates_u8`), and p = 2 compares the
        packed product self[:, R] basis[R] with self[:, free]."""
        if self.cols != basis.shape[0]:
            raise ValueError("dimension mismatch")
        if self.p != 2:
            return kernels.annihilates_u8(self._d, basis, np.asarray(free), self.p)
        rest = np.setdiff1d(np.arange(self.cols), free, assume_unique=True)
        lhs, want = _split_columns_b2(self._d, self.cols, rest, free)
        return np.array_equal(kernels.matmul_b2(lhs, _pack_bits(basis[rest]), rest.size),
                              want)

    def __sub__(self, other):
        if self.p != other.p or self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch")
        diff = self.to_dense().astype(np.int16) - other.to_dense()
        return FpMatrix.from_dense(self.p, diff)

    def row_select(self, indices):
        idx = np.asarray(indices, dtype=np.int64)
        return FpMatrix(self.p, len(idx), self.cols, np.ascontiguousarray(self._d[idx]))

    @staticmethod
    def hstack(mats):
        mats = list(mats)
        dense = np.concatenate([m.to_dense() for m in mats], axis=1)
        return FpMatrix.from_dense(mats[0].p, dense)

    def is_zero(self):
        return not self._d.any()

    # -- elimination ---------------------------------------------------

    def rref(self):
        """Reduced row echelon form: returns (matrix, pivot column tuple)."""
        if self.rows == 0 or self.cols == 0:
            return self, ()
        work = self._d.copy()
        if self.p == 2:
            piv = kernels.rref_b2(work, self.cols)
        else:
            piv = kernels.rref_u8(work, self.p)
        return FpMatrix(self.p, self.rows, self.cols, work), tuple(int(c) for c in piv)

    def kernel(self):
        """Right kernel {x : self @ x = 0} as a :class:`Kernel`, read off
        the reduced echelon form.

        ``free`` is the elimination's set of non-pivot columns F, ascending,
        and ``basis`` the standard (cols, |F|) uint8 basis: column j is
        e_{F[j]} minus the pivot rows' entries at column F[j], placed at
        the pivot columns.  So the basis is the identity on its rows F, and
        F is the last nonzero row of each vector, known without a rescan.
        The pivot rows are read a block at a time
        (:func:`kernels.row_blocks`; unpacked at p = 2, negated at odd p) and
        written into the basis, the one full-size array made beside the
        echelon form."""
        red, piv = self.rref()
        piv = np.asarray(piv, dtype=np.intp)
        free = np.setdiff1d(np.arange(self.cols), piv, assume_unique=True)
        basis = np.zeros((self.cols, free.size), dtype=np.uint8)
        basis[free, np.arange(free.size)] = 1
        if free.size:
            for blk in kernels.row_blocks(piv.size, self.cols):
                rows = red._d[blk]
                if self.p == 2:
                    # -x = x, so the pivot rows' bits are the entries
                    block = _unpack_bits(rows, self.cols).take(free, axis=1)
                else:
                    block = rows.take(free, axis=1)
                    np.subtract(self.p, block, out=block)
                    np.remainder(block, self.p, out=block)
                basis[piv[blk]] = block
        return Kernel(basis, free)

    # -- serialization ---------------------------------------------------

    def to_bytes(self):
        head = _MAGIC + struct.pack("<BBQQ", _VERSION, self.p, self.rows, self.cols)
        if self.p == 2:
            return head + kernels._row_bytes(self._d, self.cols).tobytes()
        return head + self._d.tobytes()

    @classmethod
    def from_bytes(cls, buf):
        if buf[:4] != _MAGIC or len(buf) < 22:
            raise ValueError("bad magic or short header")
        version, p, rows, cols = struct.unpack("<BBQQ", buf[4:22])
        if version != _VERSION:
            raise ValueError(f"unsupported version {version}")
        p = _prime(p)
        payload = memoryview(buf)[22:]
        if p == 2:
            return cls(2, rows, cols, kernels._row_words(payload, rows, cols))
        if len(payload) != rows * cols:
            raise ValueError("payload size mismatch")
        arr = np.frombuffer(payload, dtype=np.uint8).reshape(rows, cols).copy()
        if arr.size and int(arr.max(initial=0)) >= p:
            raise ValueError("residue out of range")
        return cls(p, rows, cols, arr)
