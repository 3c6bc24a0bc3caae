"""Dense matrices over F_p with packed storage.

p = 2 packs rows into uint64 words (64 columns per word, tail bits
zero); odd p stores one byte per residue.  The word layout lives in
:mod:`coclass.kernels`, whose ``_row_bytes`` and ``_row_words`` are the
only conversions between words and row bytes.  Values are immutable
after construction; every operation returns a fresh matrix.  Row
reduction and products go through the kernels in :mod:`coclass.kernels`.

The on-disk format (shared with the resolution cache) is:

    magic "FPMX", version u8, p u8, rows u64 LE, cols u64 LE,
    then rows * rowbytes of payload, where a row is (cols+7)//8 bytes of
    LSB-first bits for p = 2 and cols bytes of residues otherwise.
"""

from __future__ import annotations

import struct

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


def _freeze(arr):
    arr.flags.writeable = False
    return arr


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
        """Whether self @ basis = 0, for a ``basis`` whose rows ``free``
        are the identity (the caller checks that).  Odd p multiplies by
        the other rows of ``basis`` only, in blocks
        (:func:`kernels.annihilates_u8`); p = 2 takes the packed product."""
        if self.p != basis.p or self.cols != basis.rows:
            raise ValueError("dimension mismatch")
        if self.p == 2:
            return not kernels.matmul_b2(self._d, basis._d, self.cols).any()
        return kernels.annihilates_u8(self._d, basis._d, np.asarray(free), self.p)

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
        """Right kernel: columns form the standard F_p-basis of
        {x : self @ x = 0} read off the reduced echelon form."""
        red, piv = self.rref()
        pivset = set(piv)
        free = [c for c in range(self.cols) if c not in pivset]
        k = np.zeros((self.cols, len(free)), dtype=np.uint8)
        if free:
            pivot_rows = red._d[:len(piv)]
            if self.p == 2:
                pivot_rows = _unpack_bits(pivot_rows, self.cols)
            k[free, np.arange(len(free))] = 1
            # -pivot_rows[:, free] mod p in the one rank x k temporary
            neg = pivot_rows[:, free]
            np.subtract(self.p, neg, out=neg)
            np.remainder(neg, self.p, out=neg)
            k[list(piv), :] = neg
        data = _pack_bits(k) if self.p == 2 else k
        return FpMatrix(self.p, self.cols, len(free), data)

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
