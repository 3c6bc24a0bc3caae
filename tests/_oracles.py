"""Independent textbook oracles used to cross-check the packed kernels.

Everything here except ``naive_minimal_resolution`` and
``perturb_filtration_level`` is deliberately plain Python on lists so it
shares no code path with the package implementations (the bar reference
borrows only the canonical element order of ``enumerate_group``).
"""

from fractions import Fraction

import numpy as np


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


def dense_bar_cohomology_dim(group, n):
    """dim H^n(G; F_p) for n in (1, 2) from the full explicit coboundary
    matrices of normalized inhomogeneous cochains (reference only): every
    pair (g1, g2), resp. triple (g1, g2, g3), of non-identity elements
    gives a row, and H^n = dim ker d^n - rank d^(n-1)."""
    from coclass.groups import enumerate_group

    table = enumerate_group(group)
    mul, _inv = naive_mul_table(group, table)
    e = table.index[group.identity]
    nonid = [a for a in range(len(table.elements)) if a != e]
    col = {a: k for k, a in enumerate(nonid)}
    mm = len(nonid)

    def put(row, sign, *args):
        # normalized cochains vanish on the identity
        if e not in args:
            row[sum(col[a] * mm ** k for k, a in enumerate(reversed(args)))] += sign

    # (d^1 f)(g1, g2) = f(g2) - f(g1 g2) + f(g1)
    d1 = []
    for g1 in nonid:
        for g2 in nonid:
            row = [0] * mm
            put(row, 1, g2)
            put(row, -1, mul[g1][g2])
            put(row, 1, g1)
            d1.append(row)
    rank1 = naive_rank(d1, group.p)
    if n == 1:
        return mm - rank1
    # (d^2 F)(g1, g2, g3) = F(g2, g3) - F(g1 g2, g3) + F(g1, g2 g3) - F(g1, g2)
    d2 = []
    for g1 in nonid:
        for g2 in nonid:
            for g3 in nonid:
                row = [0] * (mm * mm)
                put(row, 1, g2, g3)
                put(row, -1, mul[g1][g2], g3)
                put(row, 1, g1, mul[g2][g3])
                put(row, -1, g1, g2)
                d2.append(row)
    return mm * mm - naive_rank(d2, group.p) - rank1


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


def naive_minimal_resolution(group, max_degree, table=None):
    """``(betti, boundaries)`` by the full-height head step (reference only).

    Per degree, [(g-1)K for every table generator g | K] is row-reduced
    with all beta_n*|G| rows; the pivots in the K block pick the new
    generators, and with K a submodule the rank of the (g-1)K part is
    dim rad K.  Uses the package's ``GroupAlgebraContext`` and
    ``FpMatrix``, so it cross-checks the resolution step, not the
    elimination kernels.
    """
    from coclass.fpmat import FpMatrix
    from coclass.resolution import GroupAlgebraContext

    ctx = GroupAlgebraContext(group, table=table)
    p, m = ctx.p, ctx.m
    betti = [1]
    boundaries = []
    cur = FpMatrix.from_dense(p, np.ones((1, m), dtype=np.uint8))
    for _ in range(max_degree):
        beta_n = betti[-1]
        kern = cur.kernel()
        offs = np.arange(beta_n, dtype=np.int64)[:, None] * m
        parts = []
        for g in ctx.gen_idx:
            perm = (offs + ctx.gather[:, g][None, :].astype(np.int64)).ravel()
            parts.append(kern.row_select(perm) - kern)
        _red, piv = FpMatrix.hstack(parts + [kern]).rref()
        rad_cols = kern.cols * len(ctx.gen_idx)
        sel = [c - rad_cols for c in piv if c >= rad_cols]
        if len(sel) != kern.cols - (len(piv) - len(sel)):
            raise AssertionError("minimal generator count mismatch")
        betti.append(len(sel))
        kd = kern.to_dense()
        nxt = np.zeros((beta_n * m, len(sel) * m), dtype=np.uint8)
        for t, scol in enumerate(sel):
            vec = kd[:, scol]
            for b in range(beta_n):
                nxt[b * m:(b + 1) * m, t * m:(t + 1) * m] = \
                    vec[b * m:(b + 1) * m][ctx.gather]
        cur = FpMatrix.from_dense(p, nxt)
        boundaries.append(cur)
    return betti, boundaries


def perturb_filtration_level(monkeypatch, level):
    """Make ``spacegroup.filtration_lattices`` return level ``level`` with
    one basis entry off by one (negative control for the filtration
    checks)."""
    from coclass import spacegroup
    from coclass.intmat import IntMatrix
    from coclass.lattice import lattice_from_columns

    real = spacegroup.filtration_lattices

    def perturbed(params, i_max):
        levels = real(params, i_max)
        rows = [list(r) for r in levels[level].basis.data]
        rows[0][-1] += 1
        levels[level] = lattice_from_columns(IntMatrix(rows))
        return levels

    monkeypatch.setattr(spacegroup, "filtration_lattices", perturbed)
