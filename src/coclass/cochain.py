"""Cochain-level objects for the product-compatibility identities.

Normalized value-table cochains on elementary abelian p-groups, their
front/back cross product onto the block product group, the wreath action
permuting tensor slots and twisting arguments, and inflation along the
quotient projections.

Cross product convention: the arguments of the product cochain are
consumed front to back, factor j reading its own block coordinate of its
consecutive slice, with no interleaving shuffles; the Koszul sign under
this convention is +1.  The slot bookkeeping (sigma versus its inverse)
is fixed by requiring (q1*q2).f = q1.(q2.f) to hold on the nose.
"""

from __future__ import annotations

import functools
import random

import numpy as np

from .errors import BudgetError
from .spacegroup import (
    QuotientCoords,
    _block_action_pows,
    companion_cyclotomic,
    wreath_group,
    wreath_inv,
    _invert_perm,
)
from .groups import enumerate_group


def point_index(p, vec):
    """Index of a mod-p vector (first coordinate = least significant digit)."""
    idx = 0
    for k, v in enumerate(vec):
        idx += (int(v) % p) * p ** k
    return idx


def index_point(p, dim, idx):
    out = []
    for _ in range(dim):
        out.append(idx % p)
        idx //= p
    return tuple(out)


def _matrix_point_perm(p, dim, mat):
    """Index permutation of F_p^dim induced by a linear map (rows mod p)."""
    digits = p ** np.arange(dim, dtype=np.int64)
    points = np.arange(p ** dim, dtype=np.int64)[:, None] // digits % p
    return points @ np.asarray(mat, dtype=np.int64).reshape(dim, dim).T % p @ digits


class Cochain:
    """Normalized degree-m cochain on F_p^dim with values in F_p.

    Stored as a dense table over point indices; entries with the identity
    in any argument slot are forced to zero.
    """

    __slots__ = ("p", "dim", "degree", "table")

    TABLE_BUDGET = 1 << 24

    def __init__(self, p, dim, degree, table):
        self.p = p
        self.dim = dim
        self.degree = degree
        q = p ** dim
        self._require_budget(q, degree)
        table = np.asarray(table, dtype=np.uint8) % p
        if table.shape != (q,) * degree:
            raise ValueError("table shape mismatch")
        for axis in range(degree):
            sl = [slice(None)] * degree
            sl[axis] = 0
            table[tuple(sl)] = 0
        self.table = table

    @classmethod
    def constant(cls, p, dim, value=1):
        return cls(p, dim, 0, np.asarray(value % p, dtype=np.uint8))

    @classmethod
    def _require_budget(cls, q, degree):
        if degree and q ** degree > cls.TABLE_BUDGET:
            raise BudgetError(
                f"dense cochain table with {q}^{degree} entries exceeds "
                f"budget {cls.TABLE_BUDGET}", entries=q ** degree)

    @classmethod
    def random_normalized(cls, p, dim, degree, rng):
        q = p ** dim
        cls._require_budget(q, degree)  # before drawing q^degree values
        draw = np.random.default_rng(rng.getrandbits(64))
        return cls(p, dim, degree, draw.integers(0, p, (q,) * degree, dtype=np.uint8))

    def eval(self, args):
        if len(args) != self.degree:
            raise ValueError("degree mismatch")
        return int(self.table[tuple(int(a) for a in args)])

    def twist(self, mat):
        """Precompose every argument with the linear map ``mat``."""
        if self.degree == 0:
            return self
        perm = _matrix_point_perm(self.p, self.dim, mat)
        table = self.table[np.ix_(*([perm] * self.degree))]
        return Cochain(self.p, self.dim, self.degree, table)

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.p == other.p
                and self.dim == other.dim and self.degree == other.degree
                and np.array_equal(self.table, other.table))


class ElementaryTensor:
    """A pure tensor of block cochains, one factor per block slot."""

    __slots__ = ("p", "factors",)

    def __init__(self, p, factors):
        self.p = p
        self.factors = tuple(factors)
        for f in self.factors:
            if f.p != p or f.dim != p - 1:
                raise ValueError("factors must be block cochains mod p")

    @property
    def degrees(self):
        return tuple(f.degree for f in self.factors)

    @property
    def total_degree(self):
        return sum(f.degree for f in self.factors)

    def __eq__(self, other):
        return (isinstance(other, ElementaryTensor) and self.p == other.p
                and len(self.factors) == len(other.factors)
                and all(a == b for a, b in zip(self.factors, other.factors)))


def cross_product_eval(tensor, z):
    """Evaluate the cross product of ``tensor`` on a tuple of product-group
    points (each point a tuple of block indices): factor j eats block j of
    its consecutive argument slice."""
    m = tensor.total_degree
    if len(z) != m:
        raise ValueError("degree mismatch")
    p = tensor.p
    val = 1
    pos = 0
    for j, f in enumerate(tensor.factors):
        args = tuple(z[pos + u][j] for u in range(f.degree))
        val = val * f.eval(args) % p
        pos += f.degree
    return val


def act_on_cochain(params, q, tensor):
    """Wreath action on an elementary tensor: slot j receives factor
    sigma^{-1}(j), with arguments twisted by the inverse block action."""
    p = params.p
    a, sig = q
    sig_inv = _invert_perm(sig)
    pows = _block_action_pows(params)
    factors = []
    for j in range(len(tensor.factors)):
        src = tensor.factors[sig_inv[j]]
        factors.append(src.twist(pows[(p - a[j]) % p]))
    return ElementaryTensor(p, factors)


def act_on_point(params, q, point):
    """Wreath action on a product-group point given blockwise by indices."""
    p = params.p
    a, sig = q
    sig_inv = _invert_perm(sig)
    perms = _block_point_perms(params)
    return tuple(int(perms[a[j] % p][point[sig_inv[j]]]) for j in range(len(point)))


@functools.lru_cache(maxsize=None)
def _block_point_perms(params):
    """Point permutations of F_p^(p-1) under each power of the block action."""
    return tuple(_matrix_point_perm(params.p, params.p - 1, mat)
                 for mat in _block_action_pows(params))


def check_eta_equivariance(params, degree, trials, seed):
    """Sample (q, elementary tensor, argument tuple) triples and compare
    acting-then-multiplying against multiplying-then-acting pointwise.
    Returns a report; zero failures is the expected outcome.  The
    identity is only sampled, so at least one trial is required.

    Sampled tensors have one nontrivial factor of full degree (constant 1
    elsewhere).  That is the only shape for which the identity can hold
    at the cochain level: interchanging two positive-degree factors is a
    chain-homotopy-level operation, not a pointwise one, so tensors with
    several active factors genuinely violate the unsigned identity.
    """
    _require_trials(trials)
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    p = params.p
    slots = p ** (params.x - 1)
    qblock = p ** (p - 1)
    rng = random.Random(seed)
    wtable = enumerate_group(wreath_group(params), budget=1 << 14)
    failures = 0
    first = None
    for _ in range(trials):
        q = wtable.elements[rng.randrange(len(wtable.elements))]
        active = rng.randrange(slots)
        degrees = [degree if j == active else 0 for j in range(slots)]
        factors = [
            Cochain.constant(p, p - 1) if d == 0
            else Cochain.random_normalized(p, p - 1, d, rng)
            for d in degrees
        ]
        tensor = ElementaryTensor(p, factors)
        z = tuple(tuple(rng.randrange(qblock) for _ in range(slots))
                  for _ in range(degree))
        qinv = wreath_inv(p, q)
        lhs = cross_product_eval(tensor, tuple(act_on_point(params, qinv, zk)
                                               for zk in z))
        rhs = cross_product_eval(act_on_cochain(params, q, tensor), z)
        if lhs != rhs:
            failures += 1
            if first is None:
                first = {
                    "q": {"base": list(q.base), "top": list(q.top)},
                    "degrees": degrees,
                    "z": [list(zk) for zk in z],
                    "lhs": lhs,
                    "rhs": rhs,
                }
    return {
        "identity": "eta-equivariance",
        "p": params.p,
        "x": params.x,
        "degree": degree,
        "trials": trials,
        "failures": failures,
        "firstCounterexample": first,
        "seed": seed,
    }


def _require_trials(trials):
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}: "
                         "the identity is only checked on samples")


# ---------------------------------------------------------------------------
# inflation

def inflate_eval(f, coords, z):
    """Evaluate a level-0 cochain on level-i arguments through the
    canonical projection (lift the pi-adic coordinates, reduce mod p)."""
    args = tuple(point_index(coords.params.p, coords.project_mod_p(zk))
                 for zk in z)
    return f.eval(args)


def inverse_point_generator_matrix(params):
    """The inverse of the point-generator action on T/pT (rows mod p)."""
    mat = companion_cyclotomic(params) ** (params.point_order - 1)
    return tuple(tuple(v % params.p for v in row) for row in mat.data)


def check_inflation_equivariance(params, level, trials, seed):
    """Acting by the point generator commutes with inflation: random
    degree-1 cochains and arguments, exact comparison.  Sampled only, so
    at least one trial is required."""
    _require_trials(trials)
    p = params.p
    coords = QuotientCoords(params, level)
    rng = random.Random(seed)
    inv_mat = inverse_point_generator_matrix(params)
    failures = 0
    first = None
    for _ in range(trials):
        f = Cochain.random_normalized(p, params.dim, 1, rng)
        y = tuple(rng.randrange(inv) for inv in coords.invariants)
        # act-then-inflate at y: inf(f)(generator^-1 y)
        pre = coords.act(params.point_order - 1, y)
        lhs = inflate_eval(f, coords, (pre,))
        rhs = inflate_eval(f.twist(inv_mat), coords, (y,))
        if lhs != rhs:
            failures += 1
            if first is None:
                first = {"y": list(y), "lhs": lhs, "rhs": rhs}
    return {
        "identity": "inflation-equivariance",
        "p": params.p,
        "x": params.x,
        "level": level,
        "trials": trials,
        "failures": failures,
        "firstCounterexample": first,
        "seed": seed,
    }
