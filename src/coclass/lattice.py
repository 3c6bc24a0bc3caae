"""Full-rank integer lattices in canonical Hermite form.

A lattice is the column span of a square integer matrix.  Storing the
canonical column Hermite form (upper triangular, positive diagonal,
off-diagonal entries reduced modulo the diagonal) makes equality of
lattices literal equality of basis matrices.
"""

from __future__ import annotations

import math

from .intmat import IntMatrix, hnf


class Lattice:
    __slots__ = ("dim", "basis", "det")

    def __init__(self, basis, det):
        # internal: callers go through lattice_from_columns
        self.dim = basis.rows
        self.basis = basis
        self.det = det

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"Lattice(dim={self.dim}, det={self.det})"


def lattice_from_columns(a):
    """Lattice spanned over Z by the columns of ``a`` (full rank required)."""
    if not isinstance(a, IntMatrix):
        a = IntMatrix(a)
    d = a.rows
    if a.cols < d:
        raise ValueError("not full rank")
    h = hnf(a)
    # the leading columns of a rank-deficient HNF are zero; full rank
    # leaves none, which a positive diagonal guarantees
    basis = IntMatrix(row[h.cols - d:] for row in h.data)
    diag = [basis.data[i][i] for i in range(d)]
    if any(v <= 0 for v in diag):
        raise ValueError("not full rank")
    return Lattice(basis, math.prod(diag))


def lattice_contains(lat, vec):
    """Exact membership test: solve the triangular system over Z."""
    vec = [int(x) for x in vec]
    if len(vec) != lat.dim:
        raise ValueError("dimension mismatch")
    b = lat.basis.data
    rem = list(vec)
    for i in range(lat.dim - 1, -1, -1):
        q, r = divmod(rem[i], b[i][i])
        if r != 0:
            return False
        if q:
            for k in range(i + 1):
                rem[k] -= q * b[k][i]
    return all(x == 0 for x in rem)


def lattice_index(big, small):
    """Index [big : small] for a sublattice, as an exact positive integer."""
    if big.dim != small.dim:
        raise ValueError("dimension mismatch")
    for j in range(small.dim):
        if not lattice_contains(big, small.basis.column(j)):
            raise ValueError("not a sublattice")
    q, r = divmod(small.det, big.det)
    if r != 0:
        raise AssertionError("determinant ratio is not integral")
    return q


def scale_lattice(lat, k):
    """The lattice k*L for a positive integer k."""
    k = int(k)
    if k <= 0:
        raise ValueError("positive scale required")
    return lattice_from_columns(k * lat.basis)


def apply_matrix(m, lat):
    """The lattice m*L; m must be square nonsingular."""
    return lattice_from_columns(m @ lat.basis)
