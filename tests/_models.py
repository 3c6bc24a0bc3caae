"""Small group and algebra models that only the tests build.

Abelian groups as extra resolution inputs, a quotient in the Smith
coordinates that cache version 3 was written in, a reordered element table,
the wreath action on mod-p vectors with the cyclic element it embeds,
an integer matrix built from its columns, and the exterior algebra
whose graded dimensions the block cohomology matches.
"""

from itertools import combinations
from math import comb

import numpy as np

from _oracles import inverse_unimodular
from coclass.groups import ElementTable
from coclass.intmat import IntMatrix, snf
from coclass.spacegroup import (
    FiniteGroup,
    SpaceGroupParams,
    WreathElement,
    _block_action_pows,
    _invert_perm,
    companion_cyclotomic,
    filtration,
    quotient_group,
)


def abelian_group(invariants, p=None):
    """Direct product of cyclic groups Z/d_1 x ... x Z/d_k (all d_k must
    be powers of one prime when the group feeds the resolution engine)."""
    invariants = tuple(int(d) for d in invariants)
    if any(d < 2 for d in invariants):
        raise ValueError("cyclic orders must be >= 2")
    if p is None:
        p = _smallest_prime_factor(invariants[0])
    order = 1
    for d in invariants:
        order *= d

    def mul(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, invariants))

    def inv(a):
        return tuple((-x) % d for x, d in zip(a, invariants))

    identity = (0,) * len(invariants)
    gens = [tuple(1 if j == k else 0 for j in range(len(invariants)))
            for k in range(len(invariants))]
    descriptor = {
        "model": "abelian",
        "p": p,
        "order": order,
        "snf": list(invariants),
    }
    return FiniteGroup(descriptor, order, p, identity, gens, mul, inv)


def _smallest_prime_factor(n):
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def smith_chart_quotient(params, level):
    """``quotient_group(params, level)`` with the law it had up to cache
    version 3: coordinates y = s v mod the Smith invariants of the Hermite
    lattice N_level, acted on by s C s^-1.  Same descriptor, same
    generators (unit vectors), another basis and so another element
    order."""
    d, px = params.dim, params.point_order
    diag, s = snf(filtration(params, level).basis)
    invariants = [diag.data[k][k] for k in range(d)]
    act = s @ companion_cyclotomic(params) @ inverse_unimodular(s)
    pows = [(act ** e).data for e in range(px)]

    def move(e, y):
        return tuple(sum(a * b for a, b in zip(row, y)) % m
                     for row, m in zip(pows[e], invariants))

    def mul(a, b):
        moved = move(a[d], b[:d])
        return tuple((u + w) % m for u, w, m in zip(a[:d], moved, invariants)) \
            + ((a[d] + b[d]) % px,)

    def inv(a):
        back = (px - a[d]) % px
        return tuple((-c) % m for c, m in zip(move(back, a[:d]), invariants)) + (back,)

    current = quotient_group(params, level)
    return FiniteGroup(dict(current.descriptor), current.order, params.p,
                       current.identity, current.generators, mul, inv)


def permuted(group, table, perm):
    """``table`` with the non-identity elements reordered by ``perm`` (a
    permutation of 1..n-1).  Index 0 stays the identity, and the generator
    products ``right`` are remapped with the elements."""
    n = len(table.elements)
    if sorted(perm) != list(range(1, n)):
        raise ValueError("perm must rearrange indices 1..n-1")
    order = [0] + list(perm)  # new index j holds old element order[j]
    reordered = [table.elements[k] for k in order]
    new_index = np.argsort(order).astype(np.int32)
    return ElementTable(group, reordered, table.generators,
                        new_index[table.right[:, order]])


# ---------------------------------------------------------------------------
# wreath action on vectors

def odometer_permutation(p, k):
    """The base-p adding machine on p^k points (increment the most
    significant digit, carrying downward): a p^k-cycle lying inside the
    rooted-tree Sylow subgroup."""
    npoints = p ** k
    perm = []
    for n in range(npoints):
        digits = []
        rem = n
        for e in range(k - 1, -1, -1):
            digits.append(rem // p ** e)
            rem %= p ** e
        for t in range(k):
            digits[t] += 1
            if digits[t] < p:
                break
            digits[t] = 0
        perm.append(sum(dig * p ** (k - 1 - t) for t, dig in enumerate(digits)))
    return tuple(perm)


def wreath_act(params, q, v):
    """Action on a mod-p vector of length dim, split into p^{x-1} blocks
    of length p-1: block j of q*v is A^{a_j} applied to block sigma^{-1}(j)."""
    p = params.p
    blk = p - 1
    slots = p ** (params.x - 1)
    v = tuple(int(c) % p for c in v)
    if len(v) != params.dim:
        raise ValueError("length mismatch")
    a, sig = q
    sig_inv = _invert_perm(sig)
    pows = _block_action_pows(params)
    out = []
    for j in range(slots):
        src = v[sig_inv[j] * blk:(sig_inv[j] + 1) * blk]
        mat = pows[a[j] % p]
        out.extend(sum(mat[r][c] * src[c] for c in range(blk)) % p
                   for r in range(blk))
    return tuple(out)


def wreath_action_matrix(params, q):
    """The mod-p matrix of wreath_act(params, q, .)."""
    d = params.dim
    cols = []
    for k in range(d):
        unit = tuple(1 if j == k else 0 for j in range(d))
        cols.append(wreath_act(params, q, unit))
    return int_matrix_from_columns(cols)


def int_matrix_from_columns(columns):
    """The IntMatrix whose j-th column is ``columns[j]``."""
    columns = [tuple(int(x) for x in c) for c in columns]
    rows = len(columns[0]) if columns else 0
    return IntMatrix(tuple(tuple(c[i] for c in columns) for i in range(rows)))


def embed_cyclic(params):
    """A wreath element of order p^x: twist in the first block, adding
    machine on top.  Its mod-p action matrix has the p^x-th cyclotomic
    polynomial as characteristic polynomial."""
    slots = params.p ** (params.x - 1)
    base = (1,) + (0,) * (slots - 1)
    return WreathElement(base, odometer_permutation(params.p, params.x - 1))


# ---------------------------------------------------------------------------
# exterior algebra

class ExteriorAlgebra:
    """Exterior algebra on p-1 degree-one generators over F_p.

    Basis monomials are strictly increasing tuples from 1..p-1; products
    carry the shuffle sign and vanish on repeated generators.  Elements
    are dicts monomial -> nonzero coefficient.
    """

    __slots__ = ("p", "ngen")

    def __init__(self, p):
        self.p = p
        self.ngen = p - 1

    def dims(self):
        return [comb(self.ngen, m) for m in range(self.ngen + 1)]

    def basis(self, degree):
        return [tuple(c) for c in combinations(range(1, self.ngen + 1), degree)]

    def mul_basis(self, m1, m2):
        """(coefficient, monomial) for a product of basis monomials."""
        if set(m1) & set(m2):
            return 0, ()
        sign = 1
        for a in m1:
            sign *= (-1) ** sum(1 for b in m2 if b < a)
        merged = tuple(sorted(m1 + m2))
        return sign % self.p, merged

    def mul(self, e1, e2):
        out = {}
        for m1, c1 in e1.items():
            for m2, c2 in e2.items():
                c, mono = self.mul_basis(m1, m2)
                c = c * c1 * c2 % self.p
                if c:
                    out[mono] = (out.get(mono, 0) + c) % self.p
        return {k: v for k, v in out.items() if v}


def exterior_dims(p):
    """Graded dimensions [binom(p-1, m)] for m = 0..p-1."""
    SpaceGroupParams(p, 1)  # raises unless p is prime
    return ExteriorAlgebra(p).dims()
