"""Cyclotomic model of the uniserial p-adic space group T x| C_{p^x}.

The translation part T is Z^d with d = (p-1)*p^(x-1), acted on by the
companion matrix C of the p^x-th cyclotomic polynomial.  The invariant
sublattice chain is N_i = p*(C-I)^i * Z^d; the finite quotients are the
groups (T/N_i) x| C_{p^x}, built in closed-form pi-adic coordinates
(:class:`QuotientCoords`).  The chain is built one level at a time from
T_0 = Z^d by T_{j+1} = (C-I)T_j, so every Hermite basis stays reduced
below its index; N_i = T_{d+i} because (C-I)^d Z^d = pZ^d.  A separate
block/wreath model carries the permutation action that the cyclic group
sits inside.

Group elements are plain tuples, so they hash, compare and sort without
ceremony: quotient elements are (y_1, ..., y_d, s) in pi-adic
coordinates, wreath elements are WreathElement(base, top) pairs of tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod
from operator import mul as _mul
from typing import NamedTuple

from .errors import BudgetError
from .intmat import IntMatrix, is_prime, poly_eval_matrix
from .lattice import (
    apply_matrix,
    lattice_from_columns,
    lattice_contains,
    lattice_index,
    scale_lattice,
)

DEFAULT_ENUM_BUDGET = 1 << 20


@dataclass(frozen=True)
class SpaceGroupParams:
    """Prime p and point-group exponent x; the translation rank is
    dim = (p-1) * p^(x-1), the degree of the p^x-th cyclotomic polynomial."""

    p: int
    x: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.x < 1:
            raise ValueError(f"x must be >= 1, got {self.x}")

    @property
    def dim(self):
        return (self.p - 1) * self.p ** (self.x - 1)

    @property
    def point_order(self):
        return self.p ** self.x


def cyclotomic_pp(p, x):
    """Coefficients (leading first) of the p^x-th cyclotomic polynomial,
    i.e. sum of y^(k * p^(x-1)) for k = 0..p-1."""
    step = p ** (x - 1)
    deg = (p - 1) * step
    coeffs = [0] * (deg + 1)
    for k in range(p):
        coeffs[deg - k * step] = 1
    return coeffs


def companion_cyclotomic(params):
    """Companion matrix of the p^x-th cyclotomic polynomial: the integer
    matrix C through which the order-p^x generator acts on T."""
    coeffs = cyclotomic_pp(params.p, params.x)
    d = params.dim
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    # last column holds the negated low-order coefficients
    for i in range(d):
        rows[i][d - 1] -= coeffs[d - i]
    return IntMatrix(rows)


def _zeta_action(params):
    """Multiplication by zeta = 1 + pi on Z[zeta] in the basis pi^0..pi^(d-1):
    I plus the companion matrix of the Eisenstein polynomial Phi_{p^x}(1+y),
    whose coefficient of y^j is sum_k C(k p^(x-1), j)."""
    d, step = params.dim, params.p ** (params.x - 1)
    rows = [[int(k in (j, j - 1)) for k in range(d)] for j in range(d)]
    for j in range(d):
        rows[j][d - 1] -= sum(comb(k * step, j) for k in range(params.p))
    return IntMatrix(rows)


def maximal_class_matrix(p):
    """The (p-1)x(p-1) integer matrix I + N, where N is the companion
    matrix of ((y+1)^p - 1)/y.  Its characteristic polynomial is
    y^(p-1) + ... + y + 1 and it has order p in GL_{p-1}(Z)."""
    return _zeta_action(SpaceGroupParams(p, 1))


def _lattice_chain(cmat, top):
    """The lattices T_0, ..., T_top with T_0 = Z^d and T_{j+1} = (C-I)T_j,
    so T_j = (C-I)^j Z^d.  Filtration level i is N_i = T_{d+i}."""
    step = cmat - IntMatrix.identity(cmat.rows)
    chain = [lattice_from_columns(IntMatrix.identity(cmat.rows))]
    for _ in range(top):
        chain.append(apply_matrix(step, chain[-1]))
    return chain


def filtration(params, i):
    """Level i of the invariant chain: the lattice N_i spanned by p*(C-I)^i."""
    if i < 0:
        raise ValueError(f"level must be >= 0, got {i}")
    return _lattice_chain(companion_cyclotomic(params), params.dim + i)[-1]


def filtration_lattices(params, i_max):
    """Levels N_0..N_{i_max}, read off the one chain T_j = (C-I)^j Z^d."""
    return _lattice_chain(companion_cyclotomic(params), params.dim + i_max)[params.dim:]


# ---------------------------------------------------------------------------
# finite quotients


def _rows_mod(mat, moduli):
    """``mat`` with row k reduced modulo ``moduli[k]``."""
    return IntMatrix(tuple(a % m for a in row) for row, m in zip(mat.data, moduli))


def _invariants(params, level):
    """Invariant factors of T/N_level in the order of :class:`QuotientCoords`."""
    q, r = divmod(level, params.dim)
    return (params.p ** (q + 1),) * (params.dim - r) + (params.p ** (q + 2),) * r


class QuotientCoords:
    """pi-adic chart for T/N_i with the reduced action, in closed form.

    T = Z^d is Z[zeta] (e_j = zeta^j), and pi = zeta - 1 is totally
    ramified (pi^d = p * unit), so in the basis f_k = pi^k every
    N_i = pi^(d+i)Z[zeta] is diagonal: at level i = q*d + r it is p^(q+2)
    on f_0..f_(r-1) and p^(q+1) on f_r..f_(d-1).  Coordinate t holds
    f_(d-1-t), so the invariants ascend as Smith's do.  The maps are
    binomial, so nothing is inverted: ``reduce_vector`` reads
    e_j = (1+pi)^j, S[k][j] = C(j, k), and ``lift`` reads
    f_k = (C-I)^k e_0, P[j][k] = (-1)^(k-j) C(k, j).  The point generator
    acts through A = :func:`_zeta_action`.

    Two certificates make the law well defined: A maps the invariant
    lattice into itself (inv_k * A[j][k] = 0 mod inv_j), and A^(p^x) = I
    modulo the invariants.
    """

    __slots__ = ("params", "invariants", "point_pows", "subgroup_order",
                 "_to_pi", "_from_pi")

    def __init__(self, params, level):
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        d = params.dim
        invariants = _invariants(params, level)
        self.params = params
        self.invariants = invariants
        pis = range(d - 1, -1, -1)  # the power of pi at coordinate t
        self._to_pi = IntMatrix([[comb(j, k) for j in range(d)] for k in pis])
        self._from_pi = IntMatrix([[(-1) ** (k - j) * comb(k, j) for k in pis]
                                   for j in range(d)])
        # reducing row t of A and of every power modulo invariants[t] keeps
        # the action on coordinates once A preserves the invariant lattice
        act = _rows_mod(IntMatrix(row[::-1] for row in _zeta_action(params).data[::-1]),
                        invariants)
        if any(invariants[k] * act.data[j][k] % invariants[j]
               for j in range(d) for k in range(d)):
            raise AssertionError("A does not preserve the invariant lattice")
        pows = []
        cur = IntMatrix.identity(d)
        for _ in range(params.point_order):
            pows.append(cur.data)
            cur = _rows_mod(act @ cur, invariants)
        if cur != IntMatrix.identity(d):
            raise AssertionError("A^(p^x) is not I modulo the invariant factors")
        self.point_pows = tuple(pows)
        self.subgroup_order = prod(invariants)

    def reduce_vector(self, v):
        """Coordinates of an integer vector's class in T/N_i."""
        y = self._to_pi.apply(v)
        return tuple(c % inv for c, inv in zip(y, self.invariants))

    def lift(self, y):
        """An integer vector representing the class with coordinates y."""
        return self._from_pi.apply(y)

    def act(self, s_exp, y):
        """Coordinates of C^s_exp applied to the class y."""
        mat = self.point_pows[s_exp % self.params.point_order]
        return tuple(sum(map(_mul, row, y)) % inv for row, inv in zip(mat, self.invariants))

    def project_mod_p(self, y):
        """Image in T/pT (level 0 block coordinates), a mod-p vector."""
        v = self.lift(y)
        return tuple(c % self.params.p for c in v)


class FiniteGroup:
    """A concrete finite group: tuple elements, total law, explicit inverses."""

    __slots__ = ("descriptor", "order", "p", "identity", "generators",
                 "mul", "inv")

    def __init__(self, descriptor, order, p, identity, generators, mul, inv):
        self.descriptor = descriptor
        self.order = order
        self.p = p
        self.identity = identity
        self.generators = tuple(generators)
        self.mul = mul
        self.inv = inv

    def __repr__(self):
        return f"FiniteGroup({self.descriptor.get('model')}, order={self.order})"


def _quotient(params, level, model, matrix_c, budget):
    """The group (T/N_level) x| C_{p^x} in pi-adic coordinates, described
    as ``model`` with the integer action ``matrix_c``.  Its order is
    p^(dim+x+level) in closed form, so an over-budget group is refused
    before the chart is built; the invariants must then give that
    order."""
    order = params.p ** (params.dim + params.x + level)
    if budget is not None and order > budget:
        raise BudgetError(
            f"group order {order} exceeds enumeration budget {budget}",
            order=order, budget=budget, level=level)
    coords = QuotientCoords(params, level)
    px = params.point_order
    if coords.subgroup_order * px != order:
        raise AssertionError("quotient order mismatch")
    d = params.dim
    invariants, pows = coords.invariants, coords.point_pows

    # (y1, s1)(y2, s2) = (y1 + C^s1 y2, s1 + s2): coordinate k is one sum
    # over row k of C^s1; zip and map stop at the d coordinates of y, so
    # an element's last entry, its point exponent, is never summed
    def mul(e1, e2):
        s1 = e1[d]
        return tuple(sum(map(_mul, row, e2), a) % iv
                     for a, row, iv in zip(e1, pows[s1], invariants)) + ((s1 + e2[d]) % px,)

    # (y, s)^-1 = (-C^-s y, -s)
    def inv(e):
        s_inv = -e[d] % px
        return tuple(-sum(map(_mul, row, e)) % iv
                     for row, iv in zip(pows[s_inv], invariants)) + (s_inv,)

    identity = (0,) * d + (0,)
    gens = [tuple(int(j == k) for j in range(d + 1)) for k in range(d + 1)]
    descriptor = {
        "model": model,
        "p": params.p,
        "x": params.x,
        "i": level,
        "order": order,
        "snf": list(invariants),
        "matrixC": matrix_c.to_lists(),
    }
    return FiniteGroup(descriptor, order, params.p, identity, gens, mul, inv)


def quotient_group(params, i, budget=DEFAULT_ENUM_BUDGET):
    """The order p^(dim+x+i) quotient of the space group at filtration
    level i, with law (v,s)*(w,t) = (v + C^s w, s+t)."""
    if i < 0:
        raise ValueError("level must be >= 0")
    return _quotient(params, i, "quotient", companion_cyclotomic(params), budget)


def b3r(r, budget=DEFAULT_ENUM_BUDGET):
    """The order-3^r member of the maximal-class family: the p = 3, x = 1
    quotient at filtration level r - 3, described by its action
    [[1,-3],[1,-2]] on Z^2 = Z[zeta_3] in the basis 1, pi."""
    if r < 3:
        raise ValueError("r must be >= 3")
    return _quotient(SpaceGroupParams(3, 1), r - 3, "b3r", maximal_class_matrix(3),
                     budget)


# ---------------------------------------------------------------------------
# wreath model


class WreathElement(NamedTuple):
    """(a_1, ..., a_k; sigma): mod-p twists per block plus a block
    permutation from the Sylow p-subgroup of the symmetric group."""

    base: tuple
    top: tuple


def _compose(s, t):
    return tuple(s[t[n]] for n in range(len(s)))


def _invert_perm(s):
    out = [0] * len(s)
    for n, img in enumerate(s):
        out[img] = n
    return tuple(out)


def sylow_tree_generators(p, k):
    """Rooted-tree generators of the Sylow p-subgroup of Sym(p^k):
    generator j increments digit j (most significant first) of a point's
    base-p expansion whenever all earlier digits vanish."""
    npoints = p ** k
    gens = []
    for j in range(1, k + 1):
        perm = []
        for n in range(npoints):
            digits = []
            rem = n
            for e in range(k - 1, -1, -1):
                digits.append(rem // p ** e)
                rem %= p ** e
            if all(digits[t] == 0 for t in range(j - 1)):
                digits[j - 1] = (digits[j - 1] + 1) % p
            perm.append(sum(dig * p ** (k - 1 - t) for t, dig in enumerate(digits)))
        gens.append(tuple(perm))
    return gens


def wreath_mul(p, q1, q2):
    a, sig = q1
    b, tau = q2
    sig_inv = _invert_perm(sig)
    moved = tuple(b[sig_inv[j]] for j in range(len(b)))
    return WreathElement(
        tuple((x + y) % p for x, y in zip(a, moved)),
        _compose(sig, tau),
    )


def wreath_inv(p, q):
    a, sig = q
    sig_inv = _invert_perm(sig)
    return WreathElement(
        tuple((-a[sig[j]]) % p for j in range(len(a))),
        sig_inv,
    )


def wreath_group(params):
    """The iterated wreath product C_p wr ... wr C_p on x levels, modelled
    as base twists (a_1..a_{p^{x-1}}) under a Sylow block permutation."""
    p, x = params.p, params.x
    slots = p ** (x - 1)
    order = p ** ((p ** x - 1) // (p - 1))
    idperm = tuple(range(slots))
    identity = WreathElement((0,) * slots, idperm)
    gens = [WreathElement((1,) + (0,) * (slots - 1), idperm)]
    for t in sylow_tree_generators(p, x - 1):
        gens.append(WreathElement((0,) * slots, t))

    def mul(q1, q2):
        return wreath_mul(p, q1, q2)

    def inv(q):
        return wreath_inv(p, q)

    descriptor = {"model": "wreath", "p": p, "x": x, "order": order}
    return FiniteGroup(descriptor, order, p, identity, gens, mul, inv)


def _block_action_pows(params):
    """Powers of the (p-1)x(p-1) block action matrix, reduced mod p."""
    p = params.p
    a = companion_cyclotomic(SpaceGroupParams(p, 1))
    pows = []
    cur = IntMatrix.identity(p - 1)
    for _ in range(p):
        pows.append(tuple(tuple(v % p for v in row) for row in cur.data))
        cur = a @ cur
    return pows


# ---------------------------------------------------------------------------
# filtration verification


def verify_filtration(params, i_max, trials=200, seed=0):
    """Run every lattice-chain identity up to level i_max and report.

    Checks: the base level, (C-I)^d Z^d, is p*Z^d; successive indices are
    exactly p; (C-I) maps each level into the next with index p, hence
    onto it (and the Hermite form of (I-C)N_i is N_{i+1}) -- with the base
    level this proves N_i = p*(C-I)^i Z^d from the definition;
    multiplication by p climbs dim levels; C has order p^x and is killed
    by the cyclotomic polynomial; [Z^d : (I-C)Z^d] = |det(I-C)| = p; I-C
    commutes with C; pZ^d lies in (I-C)Z^d (p*(I-C)^{-1} is integral); and
    reduction mod N_{i+1} of (I-C)v agrees with the induced map on T/N_i
    for random vectors, also shifted by the Hermite N_i (which checks the
    closed-form pi-adic charts against the chain).
    """
    import random as _random

    if i_max < 0:
        raise ValueError(f"no level to check: i_max = {i_max} < 0")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    p, d = params.p, params.dim
    cmat = companion_cyclotomic(params)
    delta = IntMatrix.identity(d) - cmat
    lats = filtration_lattices(params, i_max + d)

    checks = []

    def check(name, passed, detail=None):
        entry = {"name": name, "passed": bool(passed)}
        if detail is not None:
            entry["detail"] = detail
        checks.append(entry)

    base = lattice_from_columns(p * IntMatrix.identity(d))
    check("base-level-is-p-times-ambient", lats[0] == base)

    def index(i):  # [N_i : N_{i+1}], or 0 when N_{i+1} is not inside N_i
        try:
            return lattice_index(lats[i], lats[i + 1])
        except ValueError:
            return 0

    indices = [index(i) for i in range(i_max + 1)]
    check("successive-index-p", all(k == p for k in indices))
    check("strict-containment", all(k > 1 for k in indices))
    step = cmat - IntMatrix.identity(d)

    def maps_onto_next(i):
        # (C-I)N_i lies in N_{i+1} and both have index p*det N_i in Z^d
        # (|det(C-I)| = p), so containment is equality
        image = step @ lats[i].basis
        return (lats[i + 1].det == p * lats[i].det
                and all(lattice_contains(lats[i + 1], image.column(j))
                        for j in range(d)))

    check("point-shift-maps-level-to-next",
          all(maps_onto_next(i) for i in range(i_max + 1)))
    check("commutator-image-is-next-level",
          all(apply_matrix(delta, lats[i]) == lats[i + 1]
              for i in range(i_max + 1)))
    check("p-scaling-climbs-dim-levels",
          all(scale_lattice(lats[i], p) == lats[i + d] for i in range(i_max + 1)))
    check("point-matrix-order", cmat ** params.point_order == IntMatrix.identity(d))
    check("cyclotomic-annihilation",
          poly_eval_matrix(cyclotomic_pp(params.p, params.x), cmat).is_zero())
    image = lattice_from_columns(delta)
    check("commutator-determinant", image.det == p, detail=image.det)
    check("commutator-commutes-with-point-matrix", delta @ cmat == cmat @ delta)
    check("scaled-inverse-integral",
          all(lattice_contains(image, base.basis.column(j)) for j in range(d)))

    rng = _random.Random(seed)
    diagram_ok = True
    upper = min(i_max, 4)
    try:
        coords = [QuotientCoords(params, i) for i in range(upper + 2)]
        for _ in range(trials):
            i = rng.randrange(upper + 1)
            v = tuple(rng.randrange(-50, 51) for _ in range(d))
            n_shift = lats[i].basis.apply(tuple(rng.randrange(-3, 4) for _ in range(d)))
            y = coords[i].reduce_vector(v)
            induced = coords[i + 1].reduce_vector(delta.apply(coords[i].lift(y)))
            direct = coords[i + 1].reduce_vector(delta.apply(v))
            shifted = coords[i + 1].reduce_vector(
                delta.apply(tuple(a + b for a, b in zip(v, n_shift))))
            if induced != direct or shifted != direct:
                diagram_ok = False
                break
    except (AssertionError, ValueError):
        diagram_ok = False
    check("projection-commutes-with-commutator", diagram_ok)

    failures = sum(1 for c in checks if not c["passed"])
    return {
        "identity": "filtration",
        "p": params.p,
        "x": params.x,
        "iMax": i_max,
        "seed": seed,
        "trials": trials,
        "checks": checks,
        "failures": failures,
    }


_DELTA_CHECKS = frozenset({
    "commutator-image-is-next-level",
    "commutator-determinant",
    "commutator-commutes-with-point-matrix",
    "scaled-inverse-integral",
    "projection-commutes-with-commutator",
})


def check_delta_equivariance(params, i_max, trials=200, seed=0):
    """The commutator-map identities alone, packaged as a report."""
    full = verify_filtration(params, i_max, trials=trials, seed=seed)
    checks = [c for c in full["checks"] if c["name"] in _DELTA_CHECKS]
    failures = sum(1 for c in checks if not c["passed"])
    return {
        "identity": "delta-equivariance",
        "p": full["p"],
        "x": full["x"],
        "iMax": i_max,
        "trials": trials,
        "seed": seed,
        "checks": checks,
        "failures": failures,
    }
