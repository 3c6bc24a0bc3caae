"""Independent reference computations the tests check the package against.

The textbook oracles (row reduction, kernels, multiplication tables, the
dense bar complex, rational solves and inverses, the Bareiss determinant,
point permutations, the characteristic polynomial) are deliberately plain
Python on lists, so they share no code path with the package
implementations (the dense bar reference borrows only the canonical
element order of ``enumerate_group``).  ``inverse_unimodular`` inverts by
the package's Hermite form, an elimination that the closed-form pi-adic
chart of the quotients never runs.
The low-degree cohomology oracles (Frattini rank, generator-row bar
cochains) and ``naive_minimal_resolution`` run on the package's group
tables and ``FpMatrix``: they cross-check the resolution step, not the
elimination kernels.  ``reference_gather_certificate`` is the group-table
certificate with every check it can make, against which the package's
shorter one is compared.  ``reference_radical`` is the dense |S| k x k
radical that the resolution step once built, against which the factored
head step (:func:`coclass.kernels.radical_heads`) is checked.  The filtration reference reduces p*(C-I)^i with the
package's Hermite form in one step, where the package builds the same
lattice level by level.
"""

from fractions import Fraction

import numpy as np

from coclass import kernels
from coclass.errors import BudgetError
from coclass.fpmat import FpMatrix
from coclass.groups import enumerate_group
from coclass.intmat import IntMatrix, hnf
from coclass.lattice import lattice_from_columns
from coclass.resolution import GroupAlgebraContext


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


def rank(m):
    """Rank of an ``FpMatrix``: its number of reduced-echelon pivots."""
    return len(m.rref()[1])


def naive_mul_table(group, table, rows=None):
    """Index tables (mul, inv) of a group in a table's element order: one
    group-law call per product, |G|^2 in all (reference only).  ``rows``
    restricts mul to those left factors."""
    elements, index = table.elements, table.index
    picks = range(len(elements)) if rows is None else rows
    mul = [[index[group.mul(elements[a], b)] for b in elements] for a in picks]
    inv = [index[group.inv(a)] for a in elements]
    return mul, inv


def reference_gather_certificate(gather, table, ks):
    """Raise AssertionError unless ``gather`` passes the group-table
    certificate in its earlier, longer form (reference only, whole-table
    numpy passes): (P) every column is a permutation, (A) gather[r*s] =
    right_s[gather[r]] for each s in S = the columns ``ks`` of
    ``table.right``, (I) the diagonal is the identity (element 0), (X)
    gather[a*g_k, a] = g_k for every table generator, and equivariance,
    gather[gather[r, g], gather[c, g]] = gather[r, c] for each g in S.
    ``resolution._certify_gather`` checks row 0 (the inverses) in place of
    (P) and has no equivariance pass; the two must refuse the same
    tables."""
    m = len(gather)
    if not (np.sort(gather, axis=0) == np.arange(m)[:, None]).all():
        raise AssertionError("a column of gather is not a permutation")
    for k in ks:
        col = table.right[k]
        if not np.array_equal(gather[col], col[gather]):
            raise AssertionError("x*(r*s) != (x*r)*s for a generator s in S")
    if (np.diagonal(gather) != 0).any():
        raise AssertionError("inv(r)*r is not the identity")
    for k, col in enumerate(table.right):
        if (gather[col, np.arange(m)] != table.index[table.generators[k]]).any():
            raise AssertionError(f"a^-1*(a*g_k) != g_k for table generator k = {k}")
    for k in ks:
        col = gather[:, table.index[table.generators[k]]]
        if not np.array_equal(gather[col[:, None], col], gather):
            raise AssertionError("gather does not commute with translation by "
                                 f"table generator k = {k}")


def reference_radical(kd, free, srcs, p):
    """The stacked radical R of the kernel basis ``kd`` (the identity on its
    free rows ``free``), dense: block g, row j is (g-1)e_j in
    K-coordinates, R[g k + j, i] = kd[srcs[g][i], j] - [i = j] mod p, as a
    C-contiguous (|S| k, k) uint8 matrix, filled a block of columns at a
    time."""
    k = len(free)
    rad = np.empty((len(srcs), k, k), dtype=np.uint8)
    for g, src in enumerate(srcs):
        for blk in kernels.row_blocks(k, k):
            rad[g, :, blk] = kd[src[blk]].T
    diag = np.arange(k)
    rad[:, diag, diag] = (rad[:, diag, diag].astype(np.int16) - 1) % p
    return rad.reshape(-1, k)


def dense_bar_cohomology_dim(group, n):
    """dim H^n(G; F_p) for n in (1, 2) from the full explicit coboundary
    matrices of normalized inhomogeneous cochains (reference only): every
    pair (g1, g2), resp. triple (g1, g2, g3), of non-identity elements
    gives a row, and H^n = dim ker d^n - rank d^(n-1)."""
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


BAR_DIM_BUDGET = 100_000
_TRANSPORT_WORK_BUDGET = 2 * 10 ** 10


def bar_cohomology_dim(group, n, *, budget=BAR_DIM_BUDGET):
    """dim H^n(G; F_p) from normalized inhomogeneous cochains, n <= 2.

    Independent of the resolution path: cocycle spaces are cut out of
    explicit value tables, and H^n = Z^n / B^n with dim B^2 = (|G|-1) -
    dim Z^1.  Each degree keeps only the rows indexed by generators:

    * Z^1 (homomorphisms G -> F_p) is cut out by f(g1*a) = f(g1) + f(a)
      for every g1 and every table generator a.  Every element is a
      positive word in the generators (G is finite), so induction on the
      length of w gives f(g1*w) = f(g1) + f(w) for all w.
    * Z^2 is parametrized row by row through the relation

          F[g1*a, g3] = F[a, g3] + F[g1, a*g3] - F[g1, a],

      with the generator rows F[a, .] free and every other row
      transported onto them; the relations left over at (g1, a) cut out
      the cocycles.  Restricting the middle argument to generators is
      enough because the vanishing of the iterated coboundary propagates
      the cocycle identity to arbitrary middle arguments by induction on
      word length.
    """
    if n < 0 or n > 2:
        raise ValueError("degrees 0..2 only")
    if n == 0:
        return 1
    if group.order == 1:
        return 0
    if (group.order - 1) ** n > budget:
        raise BudgetError(
            f"cochain dimension {(group.order - 1) ** n} exceeds budget {budget}",
            budget=budget)
    table = enumerate_group(group, budget=None)
    ctx = GroupAlgebraContext(group, table=table, budget=None)
    # mul[a, b] = index of a*b, read off gather[r, g] = index of g^-1 * r:
    # row 0 of gather holds the inverses, as index 0 is the identity
    mul = ctx.gather[:, ctx.gather[0]].T
    z1 = _z1_dim(ctx, mul, [table.index[g] for g in table.generators])
    if n == 1:
        return z1
    return _z2_dim_transport(ctx, mul) - ((ctx.m - 1) - z1)


def _z1_dim(ctx, mul, gens):
    """dim Z^1: the cocycle rows (g1, a) for the table generators a, at
    element indices ``gens``."""
    m, p = ctx.m, ctx.p
    rows = []
    for a in gens:
        block = np.zeros((m - 1, m - 1), dtype=np.int16)
        block[np.arange(m - 1), np.arange(m - 1)] += 1          # f(g1)
        block[np.arange(m - 1), a - 1] += 1                     # f(a)
        prod = mul[1:, a]
        hit = prod != 0
        block[np.flatnonzero(hit), prod[hit] - 1] -= 1          # -f(g1*a)
        rows.append(block % p)
    mat = FpMatrix.from_dense(p, np.concatenate(rows))
    return mat.cols - rank(mat)


def _z2_dim_transport(ctx, mul):
    """Cocycle table dimension via row transport onto generator rows (one
    parameter block per generator of ``ctx.gens``)."""
    m, p = ctx.m, ctx.p
    mm = m - 1
    gens = ctx.gens
    P = len(gens) * mm
    work = mm * len(gens) * mm * P * P
    if work > _TRANSPORT_WORK_BUDGET:
        raise BudgetError(
            f"degree-2 cocycle elimination needs ~{work:.1e} operations; "
            f"group too large for the oracle", order=m)
    A = np.zeros((m, mm, P), dtype=np.uint8)
    defined = np.zeros(m, dtype=bool)
    defined[0] = True  # identity row is identically zero
    queue = []
    for gi, a in enumerate(gens):
        if not defined[a]:
            A[a, :, gi * mm:(gi + 1) * mm] = np.eye(mm, dtype=np.uint8)
            defined[a] = True
            queue.append(a)
    pos = 0
    while pos < len(queue):
        g1 = queue[pos]
        pos += 1
        for a in gens:
            h = int(mul[g1, a])
            if h == 0 or defined[h]:
                continue
            A[h] = _row_relation(ctx.p, mul, A, g1, a)
            defined[h] = True
            queue.append(h)
    if not defined.all():
        raise AssertionError("generators do not reach every element")
    blocks = []
    for g1 in range(1, m):
        for a in gens:
            rel = _row_relation(ctx.p, mul, A, g1, a).astype(np.int16)
            h = int(mul[g1, a])
            if h != 0:
                rel = rel - A[h]
            blocks.append(rel % p)
    mat = FpMatrix.from_dense(p, np.concatenate(blocks))
    return P - rank(mat)


def _row_relation(p, mul, A, g1, a):
    """r_a[g3] + r_g1[a*g3] - r_g1[a], as parameter-matrix rows mod p."""
    prod = mul[a, 1:]
    gathered = np.zeros_like(A[a], dtype=np.int16)
    hit = prod != 0
    gathered[np.flatnonzero(hit)] = A[g1][prod[hit] - 1]
    out = A[a].astype(np.int16) + gathered - A[g1][a - 1].astype(np.int16)
    return (out % p).astype(np.uint8)


def subgroup_closure(group, seed_elements):
    """Smallest subgroup containing the given elements (as a frozenset)."""
    seeds = [g for g in seed_elements if g != group.identity]
    seen = {group.identity}
    queue = []
    for g in seeds:
        if g not in seen:
            seen.add(g)
            queue.append(g)
    while queue:
        h = queue.pop()
        for g in seeds:
            y = group.mul(h, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def _commutator(group, a, b):
    return group.mul(group.mul(a, b), group.mul(group.inv(a), group.inv(b)))


def frattini_rank(group):
    """Rank of G/Phi(G) for a p-group G.

    Phi(G) = G^p [G,G] is computed as the subgroup generated by all p-th
    powers together with commutators of the generators, closed under
    conjugation by generators to a fixpoint.  The rank equals the minimal
    number of generators of G.
    """
    table = enumerate_group(group)
    p = group.p
    seeds = set()
    for g in table.elements:
        y = g
        for _ in range(p - 1):
            y = group.mul(y, g)
        seeds.add(y)
    for a in table.generators:
        for b in table.generators:
            seeds.add(_commutator(group, a, b))
    sub = subgroup_closure(group, seeds)
    while True:
        conj = set(sub)
        for c in table.generators:
            c_inv = group.inv(c)
            for h in sub:
                conj.add(group.mul(group.mul(c, h), c_inv))
        if conj == sub:
            break
        sub = subgroup_closure(group, conj)
    quotient = group.order // len(sub)
    rank = 0
    while p ** rank < quotient:
        rank += 1
    if p ** rank != quotient:
        raise AssertionError("Frattini quotient is not a power of p")
    return rank


def rational_solve(a_rows, b_cols):
    """A^-1 B as rows of Fractions, by Gauss-Jordan elimination.  A is
    square nonsingular over the rationals."""
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
    return [row[n:] for row in aug]


def rational_solve_integral(a_rows, b_cols):
    """Is A^-1 B integral?  A square nonsingular over the rationals."""
    return all(x.denominator == 1 for row in rational_solve(a_rows, b_cols)
               for x in row)


def rational_inverse(a):
    """A^-1 of a square nonsingular IntMatrix, as rows of Fractions."""
    return rational_solve(a.data, [[int(i == j) for j in range(a.rows)]
                                   for i in range(a.rows)])


def inverse_unimodular(a):
    """Exact inverse of a unimodular integer matrix, as an IntMatrix.

    The column operations that bring ``a`` to its Hermite form I bring
    the identity stacked above it to a^-1; the lower block coming out as
    exactly I certifies a @ a^-1 = I."""
    eye = IntMatrix.identity(a.cols)
    h = hnf(IntMatrix(eye.data + a.data))
    if h.data[a.cols:] != eye.data:
        raise ValueError("matrix is not unimodular")
    return IntMatrix(h.data[:a.cols])


def det(a):
    """Determinant of a square IntMatrix by fraction-free (Bareiss)
    elimination."""
    if a.rows != a.cols:
        raise ValueError("square matrices only")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.data]
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


def point_perm(p, dim, mat):
    """Index permutation of F_p^dim under the linear map ``mat``, one point
    at a time (first coordinate = least significant digit)."""
    perm = []
    for idx in range(p ** dim):
        v = [idx // p ** k % p for k in range(dim)]
        w = [sum(mat[r][c] * v[c] for c in range(dim)) % p for r in range(dim)]
        perm.append(sum(x * p ** k for k, x in enumerate(w)))
    return perm


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


def naive_minimal_resolution(group, max_degree, table=None):
    """``(betti, boundaries)`` by the full-height head step (reference only).

    Per degree, [(g-1)K for every table generator g | K] is row-reduced
    with all beta_n*|G| rows; the pivots in the K block pick the new
    generators, and with K a submodule the rank of the (g-1)K part is
    dim rad K.  Uses the package's ``GroupAlgebraContext`` and
    ``FpMatrix``, so it cross-checks the resolution step, not the
    elimination kernels.
    """
    ctx = GroupAlgebraContext(group, table=table)
    if table is None:
        table = enumerate_group(group)
    gens = [table.index[g] for g in table.generators]
    p, m = ctx.p, ctx.m
    betti = [1]
    boundaries = []
    cur = FpMatrix.from_dense(p, np.ones((1, m), dtype=np.uint8))
    for _ in range(max_degree):
        beta_n = betti[-1]
        kd, free = cur.kernel()
        offs = np.arange(beta_n, dtype=np.int64)[:, None] * m
        parts = []
        for g in gens:
            perm = (offs + ctx.gather[:, g][None, :].astype(np.int64)).ravel()
            parts.append(kd[perm].astype(np.int16) - kd)
        _red, piv = FpMatrix.from_dense(p, np.concatenate(parts + [kd], axis=1)).rref()
        rad_cols = free.size * len(gens)
        sel = [c - rad_cols for c in piv if c >= rad_cols]
        if len(sel) != free.size - (len(piv) - len(sel)):
            raise AssertionError("minimal generator count mismatch")
        betti.append(len(sel))
        nxt = np.zeros((beta_n * m, len(sel) * m), dtype=np.uint8)
        for t, scol in enumerate(sel):
            vec = kd[:, scol]
            for b in range(beta_n):
                nxt[b * m:(b + 1) * m, t * m:(t + 1) * m] = \
                    vec[b * m:(b + 1) * m][ctx.gather]
        cur = FpMatrix.from_dense(p, nxt)
        boundaries.append(cur)
    return betti, boundaries


def filtration_reference(p, cmat, i):
    """N_i = p*(C-I)^i Z^d from the definition: the Hermite form of the
    i-th power, reduced from scratch with no chain of earlier levels."""
    step = cmat - IntMatrix.identity(cmat.rows)
    return lattice_from_columns(p * step ** i)


def perturb_filtration_level(monkeypatch, level):
    """Make ``spacegroup.filtration_lattices`` return level ``level`` with
    one basis entry off by one (negative control for the filtration
    checks)."""
    from coclass import spacegroup

    real = spacegroup.filtration_lattices

    def perturbed(params, i_max):
        levels = real(params, i_max)
        rows = [list(r) for r in levels[level].basis.data]
        rows[0][-1] += 1
        levels[level] = lattice_from_columns(IntMatrix(rows))
        return levels

    monkeypatch.setattr(spacegroup, "filtration_lattices", perturbed)
