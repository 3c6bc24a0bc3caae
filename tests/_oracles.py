"""Independent textbook oracles used to cross-check the packed kernels.

Everything here is deliberately plain Python on lists so it shares no
code path with the package implementations.
"""

from fractions import Fraction


def naive_rref(rows, p):
    a = [[x % p for x in r] for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    piv = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = None
        for i in range(r, m):
            if a[i][c]:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        piv.append(c)
        r += 1
    return a, piv


def naive_kernel(rows, p):
    """Standard kernel basis (one column per free column of the RREF)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    red, piv = naive_rref(rows, p)
    pivset = set(piv)
    free = [c for c in range(n) if c not in pivset]
    basis = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for k, pc in enumerate(piv):
            v[pc] = (-red[k][f]) % p
        basis.append(v)
    return basis


def naive_rank(rows, p):
    return len(naive_rref(rows, p)[1])


def naive_mul_table(group, table, rows=None):
    """Index tables (mul, inv) of a group in a table's element order: one
    group-law call per product, |G|^2 in all (reference only).  ``rows``
    restricts mul to those left factors."""
    elements, index = table.elements, table.index
    picks = range(len(elements)) if rows is None else rows
    mul = [[index[group.mul(elements[a], b)] for b in elements] for a in picks]
    inv = [index[group.inv(a)] for a in elements]
    return mul, inv


def rational_solve_integral(a_rows, b_cols):
    """Is A^-1 B integral?  A square nonsingular over the rationals."""
    n = len(a_rows)
    width = len(b_cols[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b_cols[i][j]) for j in range(width)]
           for i, row in enumerate(a_rows)]
    for c in range(n):
        pr = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[pr] = aug[pr], aug[c]
        f = aug[c][c]
        aug[c] = [x / f for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                g = aug[i][c]
                aug[i] = [x - g * y for x, y in zip(aug[i], aug[c])]
    return all(aug[i][n + j].denominator == 1
               for i in range(n) for j in range(width))
