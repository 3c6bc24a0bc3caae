"""Exact integer matrices with Hermite and Smith normal forms.

Entries are arbitrary-precision Python ints throughout, so the
unimodular bookkeeping in HNF/SNF can never overflow silently.  The
matrices involved here are small (dimension is the degree of a
cyclotomic polynomial, rarely above 6); all the heavy mod-p work lives
elsewhere.

One elimination, :func:`hnf`, answers every exact question the lattice
checks ask: an index [Z^d : AZ^d] = |det A| (the Hermite diagonal) and
integrality of k*A^-1 (kZ^d inside AZ^d).  The Smith normal form is the
reference that the closed-form invariants of the quotients are tested
against.
"""

from __future__ import annotations


def xgcd(a, b):
    """Extended gcd: returns (g, s, t) with s*a + t*b == g >= 0."""
    s, next_s = 1, 0
    t, next_t = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        s, next_s = next_s, s - q * next_s
        t, next_t = next_t, t - q * next_t
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, s, t = -g, -s, -t
    return g, s, t


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class IntMatrix:
    """Immutable dense integer matrix."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        data = tuple(tuple(int(x) for x in row) for row in data)
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
        self.data = data

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows, cols):
        return cls(tuple((0,) * cols for _ in range(rows)))

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]})"

    def __add__(self, other):
        self._shape_check(other)
        return IntMatrix(tuple(tuple(a + b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.data, other.data)))

    def __sub__(self, other):
        self._shape_check(other)
        return IntMatrix(tuple(tuple(a - b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.data, other.data)))

    def __mul__(self, scalar):
        scalar = int(scalar)
        return IntMatrix(tuple(tuple(scalar * a for a in r) for r in self.data))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        bt = other.transpose().data
        return IntMatrix(tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                               for row in self.data))

    def __pow__(self, e):
        if e < 0 or self.rows != self.cols:
            raise ValueError("nonnegative powers of square matrices only")
        result = IntMatrix.identity(self.rows)
        base = self
        while e:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result

    def _shape_check(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch")

    def transpose(self):
        return IntMatrix(tuple(tuple(self.data[i][j] for i in range(self.rows))
                               for j in range(self.cols)))

    def column(self, j):
        return tuple(self.data[i][j] for i in range(self.rows))

    def apply(self, vec):
        """Matrix-vector product as a tuple of ints."""
        vec = tuple(int(x) for x in vec)
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * v for a, v in zip(row, vec)) for row in self.data)

    def is_zero(self):
        return all(all(a == 0 for a in row) for row in self.data)

    def to_lists(self):
        return [list(r) for r in self.data]


def _pair(a, b):
    """Unimodular coefficients (w, x, y, z) with w*a + x*b = +-gcd(a, b)
    and y*a + z*b = 0: a swap when a == 0, a transvection when a divides
    b, the extended gcd otherwise."""
    if a == 0:
        return 0, 1, 1, 0
    if b % a == 0:
        return 1, 0, -(b // a), 1
    g, w, x = xgcd(a, b)
    return w, x, -(b // g), a // g


def _cols(mat, c1, c2, w, x, y, z):
    """(col c1, col c2) <- (w*c1 + x*c2, y*c1 + z*c2) in place."""
    for row in mat:
        u, v = row[c1], row[c2]
        row[c1] = w * u + x * v
        row[c2] = y * u + z * v


def _rows(mats, r1, r2, w, x, y, z):
    """(row r1, row r2) <- (w*r1 + x*r2, y*r1 + z*r2) in each matrix."""
    for mat in mats:
        a1, a2 = mat[r1], mat[r2]
        mat[r1] = [w * u + x * v for u, v in zip(a1, a2)]
        mat[r2] = [y * u + z * v for u, v in zip(a1, a2)]


def hnf(a):
    """Column Hermite normal form of ``a``.

    The result h spans the same columns over Z and is in the canonical
    shape for column spans: echelon columns packed to the right, pivots
    positive, every entry to the right of a pivot reduced into
    [0, pivot).  A square nonsingular input yields an upper-triangular h
    with positive diagonal; rank-deficient inputs leave zero columns on
    the left.  Two matrices have equal column span over Z iff their h
    agree up to those leading zero columns.
    """
    h = [list(row) for row in a.data]
    r = a.cols - 1
    pivots = []  # (row, col), discovered bottom-up
    for i in range(a.rows - 1, -1, -1):
        if r < 0:
            break
        for j in range(r):
            if h[i][j]:
                _cols(h, r, j, *_pair(h[i][r], h[i][j]))
        if h[i][r] == 0:
            continue
        if h[i][r] < 0:
            _cols(h, r, r, -1, 0, 0, -1)  # negate column r
        pivots.append((i, r))
        r -= 1
    # canonical reduction: entries right of each pivot into [0, pivot),
    # processed bottom pivot first so later passes cannot disturb it
    for (i, c) in pivots:
        for j in range(c + 1, a.cols):
            q = h[i][j] // h[i][c]
            if q:
                _cols(h, c, j, 1, 0, -q, 1)
    return IntMatrix(h)


def snf(a):
    """Smith normal form: (d, s) with s unimodular and d = s @ a @ t
    diagonal for some unimodular t, each diagonal entry dividing the
    next.  The rows of s are the Smith coordinates of Z^rows / (column
    span of a)."""
    m, n = a.rows, a.cols
    d = [list(row) for row in a.data]
    s = [[int(i == j) for j in range(m)] for i in range(m)]
    for k in range(min(m, n)):
        # deterministic pivot search: first nonzero scanning columns then rows
        pivot = next(((i, j) for j in range(k, n) for i in range(k, m) if d[i][j]),
                     None)
        if pivot is None:
            break
        pi, pj = pivot
        if pj != k:
            _cols(d, k, pj, 0, 1, 1, 0)
        if pi != k:
            _rows((d, s), k, pi, 0, 1, 1, 0)
        if d[k][k] < 0:
            _rows((d, s), k, k, -1, 0, 0, -1)  # negate row k
        while True:
            # divisible entries fall to plain transvections (pivot row and
            # column untouched); otherwise the gcd step strictly shrinks
            # the positive pivot, so the loop terminates
            for i in range(k + 1, m):
                if d[i][k]:
                    _rows((d, s), k, i, *_pair(d[k][k], d[i][k]))
            for j in range(k + 1, n):
                if d[k][j]:
                    _cols(d, k, j, *_pair(d[k][k], d[k][j]))
            if any(d[i][k] for i in range(k + 1, m)):
                continue
            if any(d[k][j] for j in range(k + 1, n)):
                continue
            # divisibility: the pivot must divide the remaining block
            bad = next((i for i in range(k + 1, m)
                        if any(d[i][j] % d[k][k] for j in range(k + 1, n))), None)
            if bad is None:
                break
            _rows((d, s), k, bad, 1, 1, 0, 1)
    return IntMatrix(d), IntMatrix(s)


def poly_eval_matrix(coeffs, a):
    """Horner evaluation of a polynomial (leading coefficient first) at a
    square matrix."""
    n = a.rows
    eye = IntMatrix.identity(n)
    out = IntMatrix.zeros(n, n)
    for c in coeffs:
        out = out @ a + c * eye
    return out
