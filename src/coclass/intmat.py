"""Exact integer matrices with Hermite and Smith normal forms.

Entries are arbitrary-precision Python ints throughout, so the
unimodular bookkeeping in HNF/SNF can never overflow silently.  The
matrices involved here are small (dimension is the degree of a
cyclotomic polynomial, rarely above 6); all the heavy mod-p work lives
elsewhere.
"""

from __future__ import annotations

from fractions import Fraction


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

    @classmethod
    def from_columns(cls, columns):
        columns = [tuple(int(x) for x in c) for c in columns]
        rows = len(columns[0]) if columns else 0
        return cls(tuple(tuple(c[i] for c in columns) for i in range(rows)))

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

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("square matrices only")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def to_lists(self):
        return [list(r) for r in self.data]


def hnf(a):
    """Column Hermite normal form.

    Returns (h, u) with h = a @ u, u unimodular, and h in the canonical
    shape for column spans: echelon columns packed to the right, pivots
    positive, every entry to the right of a pivot reduced into
    [0, pivot).  A square nonsingular input yields an upper-triangular h
    with positive diagonal; rank-deficient inputs leave zero columns on
    the left.  Two matrices have equal column span over Z iff their h
    agree up to those leading zero columns.
    """
    d, n = a.rows, a.cols
    if d == 0 or n == 0:
        return a, IntMatrix.identity(n)
    h = [list(row) for row in a.data]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def colcomb(c1, c2, s, t, p, q):
        # (col c1, col c2) <- (s*c1 + t*c2, p*c1 + q*c2); s*q - t*p = +-1
        for mat, nrows in ((h, d), (u, n)):
            for i in range(nrows):
                x, y = mat[i][c1], mat[i][c2]
                mat[i][c1] = s * x + t * y
                mat[i][c2] = p * x + q * y

    def colsub(dst, src, q):
        for mat, nrows in ((h, d), (u, n)):
            for i in range(nrows):
                mat[i][dst] -= q * mat[i][src]

    r = n - 1
    pivots = []  # (row, col), discovered bottom-up
    for i in range(d - 1, -1, -1):
        if r < 0:
            break
        for j in range(r):
            if h[i][j] == 0:
                continue
            aa, bb = h[i][r], h[i][j]
            if aa == 0:
                colcomb(r, j, 0, 1, 1, 0)
            elif bb % aa == 0:
                colcomb(r, j, 1, 0, -(bb // aa), 1)
            else:
                g, s, t = xgcd(aa, bb)
                colcomb(r, j, s, t, -(bb // g), aa // g)
        if h[i][r] == 0:
            continue
        if h[i][r] < 0:
            for mat, nrows in ((h, d), (u, n)):
                for k in range(nrows):
                    mat[k][r] = -mat[k][r]
        pivots.append((i, r))
        r -= 1
    # canonical reduction: entries right of each pivot into [0, pivot),
    # processed bottom pivot first so later passes cannot disturb it
    for (i, c) in pivots:
        for j in range(c + 1, n):
            q = h[i][j] // h[i][c]
            if q:
                colsub(j, c, q)
    return IntMatrix(h), IntMatrix(u)


def snf(a):
    """Smith normal form: (d, s, t) with d = s @ a @ t diagonal,
    s and t unimodular, and each diagonal entry dividing the next."""
    m, n = a.rows, a.cols
    d = [list(row) for row in a.data]
    s = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def rowcomb(r1, r2, w, x, y, z):
        for mat in (d, s):
            a1, a2 = mat[r1], mat[r2]
            for j in range(len(a1)):
                u, v = a1[j], a2[j]
                a1[j] = w * u + x * v
                a2[j] = y * u + z * v

    def colcomb(c1, c2, w, x, y, z):
        for mat, nr in ((d, m), (t, n)):
            for i in range(nr):
                u, v = mat[i][c1], mat[i][c2]
                mat[i][c1] = w * u + x * v
                mat[i][c2] = y * u + z * v

    for k in range(min(m, n)):
        # deterministic pivot search: first nonzero scanning columns then rows
        pi = pj = -1
        for j in range(k, n):
            for i in range(k, m):
                if d[i][j] != 0:
                    pi, pj = i, j
                    break
            if pi >= 0:
                break
        if pi < 0:
            break
        if pj != k:
            colcomb(k, pj, 0, 1, 1, 0)
        if pi != k:
            rowcomb(k, pi, 0, 1, 1, 0)
        if d[k][k] < 0:
            for mat in (d, s):
                row = mat[k]
                for j in range(len(row)):
                    row[j] = -row[j]
        while True:
            # divisible entries fall to plain transvections (pivot row and
            # column untouched); otherwise the gcd step strictly shrinks
            # the pivot, so the loop terminates
            for i in range(k + 1, m):
                bb = d[i][k]
                if bb != 0:
                    aa = d[k][k]
                    if bb % aa == 0:
                        rowcomb(k, i, 1, 0, -(bb // aa), 1)
                    else:
                        g, w, x = xgcd(aa, bb)
                        rowcomb(k, i, w, x, -(bb // g), aa // g)
            for j in range(k + 1, n):
                bb = d[k][j]
                if bb != 0:
                    aa = d[k][k]
                    if bb % aa == 0:
                        colcomb(k, j, 1, 0, -(bb // aa), 1)
                    else:
                        g, w, x = xgcd(aa, bb)
                        colcomb(k, j, w, x, -(bb // g), aa // g)
            if any(d[i][k] for i in range(k + 1, m)):
                continue
            if any(d[k][j] for j in range(k + 1, n)):
                continue
            # divisibility: the pivot must divide the remaining block
            piv = d[k][k]
            bad = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if d[i][j] % piv != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            rowcomb(k, bad, 1, 1, 0, 1)
        if d[k][k] < 0:
            for mat in (d, s):
                row = mat[k]
                for j in range(len(row)):
                    row[j] = -row[j]
    return IntMatrix(d), IntMatrix(s), IntMatrix(t)


def _rational_inverse(a):
    if a.rows != a.cols:
        raise ValueError("square matrices only")
    n = a.rows
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a.data)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        f = m[c][c]
        m[c] = [x / f for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                g = m[i][c]
                m[i] = [x - g * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def inverse_unimodular(a):
    """Exact inverse of a unimodular integer matrix, as an IntMatrix."""
    inv = _rational_inverse(a)
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return IntMatrix([[int(x) for x in row] for row in inv])


def scaled_inverse(a, scalar):
    """scalar * a^-1, which must be integral (e.g. scalar = det(a))."""
    inv = _rational_inverse(a)
    out = [[x * scalar for x in row] for row in inv]
    if any(x.denominator != 1 for row in out for x in row):
        raise ValueError("scaled inverse is not integral")
    return IntMatrix([[int(x) for x in row] for row in out])


def charpoly(a):
    """Characteristic polynomial coefficients, leading term first.

    Faddeev-LeVerrier over exact rationals; the result is always
    integral for integer input.
    """
    if a.rows != a.cols:
        raise ValueError("square matrices only")
    n = a.rows
    af = [[Fraction(x) for x in row] for row in a.data]

    def matmul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    b = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]
    for i in range(1, n + 1):
        ab = matmul(af, b)
        c = -sum(ab[k][k] for k in range(n)) / i
        coeffs.append(c)
        for k in range(n):
            ab[k][k] += c
        b = ab
    if any(c.denominator != 1 for c in coeffs):
        raise AssertionError("non-integral characteristic polynomial")
    return [int(c) for c in coeffs]


def poly_eval_matrix(coeffs, a):
    """Horner evaluation of a polynomial (leading coefficient first) at a
    square matrix."""
    n = a.rows
    eye = IntMatrix.identity(n)
    out = IntMatrix.zeros(n, n)
    for c in coeffs:
        out = out @ a + c * eye
    return out
