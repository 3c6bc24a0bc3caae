"""Dense matrices over F_p with packed storage.

p = 2 packs rows into uint64 words (64 columns per word, column j in bit
j % 64 of word j // 64, tail bits zero); odd p stores one byte per
residue.  Values are immutable after construction; every operation
returns a fresh matrix.  Row reduction and products go through the
kernels in :mod:`coclass.kernels`.

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


def _words(cols):
    return (cols + 63) // 64


def _pack_bits(dense):
    """uint8 0/1 matrix -> uint64 word matrix (little-endian bit order)."""
    rows, cols = dense.shape
    nw = _words(cols)
    packed_bytes = np.packbits(dense, axis=1, bitorder="little")
    padded = np.zeros((rows, nw * 8), dtype=np.uint8)
    padded[:, : packed_bytes.shape[1]] = packed_bytes
    return np.ascontiguousarray(
        np.frombuffer(padded.tobytes(), dtype="<u8").reshape(rows, nw)
    )


def _unpack_bits(words, cols):
    rows = words.shape[0]
    if cols == 0:
        return np.zeros((rows, 0), dtype=np.uint8)
    as_bytes = np.frombuffer(words.astype("<u8").tobytes(), dtype=np.uint8)
    as_bytes = as_bytes.reshape(rows, words.shape[1] * 8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return np.ascontiguousarray(bits[:, :cols])


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
        p = int(p)
        if p > 251 or not is_prime(p):
            raise ValueError(f"p must be a prime <= 251, got {p}")
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

    def to_dense(self):
        """Copy out as a (rows, cols) uint8 array of residues."""
        if self.p == 2:
            return _unpack_bits(self._d, self.cols)
        return self._d.copy()

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

    def __sub__(self, other):
        if self.p != other.p or self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch")
        if self.p == 2:
            return FpMatrix(2, self.rows, self.cols, self._d ^ other._d)
        diff = (self._d.astype(np.int16) - other._d.astype(np.int16)) % self.p
        return FpMatrix(self.p, self.rows, self.cols, diff.astype(np.uint8))

    def row_select(self, indices):
        idx = np.asarray(indices, dtype=np.int64)
        return FpMatrix(self.p, len(idx), self.cols, np.ascontiguousarray(self._d[idx]))

    @staticmethod
    def hstack(mats):
        mats = list(mats)
        p = mats[0].p
        if p != 2:
            data = np.concatenate([m._d for m in mats], axis=1)
            return FpMatrix(p, data.shape[0], data.shape[1], data)
        dense = np.concatenate([m.to_dense() for m in mats], axis=1)
        return FpMatrix.from_dense(p, dense)

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

    def rank(self):
        return len(self.rref()[1])

    def kernel(self):
        """Right kernel: columns form the standard F_p-basis of
        {x : self @ x = 0} read off the reduced echelon form."""
        red, piv = self.rref()
        pivset = set(piv)
        free = [c for c in range(self.cols) if c not in pivset]
        k = np.zeros((self.cols, len(free)), dtype=np.uint8)
        if free:
            vals = self._pivot_rows_at(red, len(piv), free)
            k[free, np.arange(len(free))] = 1
            k[list(piv), :] = (self.p - vals) % self.p
        data = _pack_bits(k) if self.p == 2 else k
        return FpMatrix(self.p, self.cols, len(free), data)

    @staticmethod
    def _pivot_rows_at(red, npiv, cols):
        """Entries red[r, c] for r < npiv, c in cols, without unpacking."""
        cols = np.asarray(cols, dtype=np.int64)
        if red.p == 2:
            wi = cols >> 6
            sh = (cols & 63).astype(np.uint64)
            sub = red._d[:npiv][:, wi]
            return ((sub >> sh) & np.uint64(1)).astype(np.uint8)
        return red._d[:npiv][:, cols]

    # -- serialization ---------------------------------------------------

    def to_bytes(self):
        head = _MAGIC + struct.pack("<BBQQ", _VERSION, self.p, self.rows, self.cols)
        if self.p == 2:
            rowbytes = (self.cols + 7) // 8
            as_bytes = np.frombuffer(self._d.astype("<u8").tobytes(), dtype=np.uint8)
            as_bytes = as_bytes.reshape(self.rows, self._d.shape[1] * 8)
            payload = as_bytes[:, :rowbytes].tobytes()
        else:
            payload = self._d.tobytes()
        return head + payload

    @classmethod
    def from_bytes(cls, buf):
        if buf[:4] != _MAGIC:
            raise ValueError("bad magic")
        version, p, rows, cols = struct.unpack("<BBQQ", buf[4:22])
        if version != _VERSION:
            raise ValueError(f"unsupported version {version}")
        rowbytes = (cols + 7) // 8 if p == 2 else cols
        payload = buf[22:]
        if len(payload) != rows * rowbytes:
            raise ValueError("payload size mismatch")
        if p == 2:
            nw = _words(cols)
            padded = np.zeros((rows, nw * 8), dtype=np.uint8)
            if rowbytes:
                raw = np.frombuffer(payload, dtype=np.uint8).reshape(rows, rowbytes)
                padded[:, :rowbytes] = raw
            words = np.ascontiguousarray(
                np.frombuffer(padded.tobytes(), dtype="<u8").reshape(rows, nw)
            )
            if cols % 64 and nw:
                mask = np.uint64((1 << (cols % 64)) - 1)
                if ((words[:, -1] & ~mask) != 0).any():
                    raise ValueError("nonzero padding bits")
            return cls(2, rows, cols, words)
        arr = np.frombuffer(payload, dtype=np.uint8).reshape(rows, cols).copy()
        if arr.size and int(arr.max(initial=0)) >= p:
            raise ValueError("residue out of range")
        return cls(p, rows, cols, arr)

