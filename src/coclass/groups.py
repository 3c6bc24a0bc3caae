"""Uniform services over FiniteGroup: enumeration, closures, censuses.

The element ordering contract is frozen because resolution cache keys
depend on element indices: identity first, then breadth-first layers of
right-multiplication by the generators, each layer sorted
lexicographically by coordinates.
"""

from __future__ import annotations

from .errors import BudgetError
from .spacegroup import DEFAULT_ENUM_BUDGET, FiniteGroup


class ElementTable:
    """Canonical element list of a finite group with an index map."""

    __slots__ = ("group", "elements", "index", "generators")

    def __init__(self, group, elements, generators):
        self.group = group
        self.elements = tuple(elements)
        self.index = {g: k for k, g in enumerate(self.elements)}
        self.generators = tuple(generators)
        if len(self.index) != len(self.elements):
            raise AssertionError("duplicate elements in table")
        if group.identity in self.generators or \
                len(set(self.generators)) != len(self.generators):
            raise AssertionError("generators repeat or include the identity")
        if len(self.elements) != group.order:
            raise AssertionError(
                f"closure size {len(self.elements)} != declared order {group.order}")
        if self.elements[0] != group.identity:
            raise AssertionError("the identity is not element 0")

    def __len__(self):
        return len(self.elements)

    def permuted(self, perm):
        """Same group with the non-identity elements reordered by ``perm``
        (a permutation of 1..n-1).  Index 0 stays the identity."""
        n = len(self.elements)
        if sorted(perm) != list(range(1, n)):
            raise ValueError("perm must rearrange indices 1..n-1")
        reordered = [self.elements[0]] + [self.elements[k] for k in perm]
        return ElementTable(self.group, reordered, self.generators)


def enumerate_group(group, budget=DEFAULT_ENUM_BUDGET):
    """Breadth-first closure from the generators in the frozen canonical
    order.  Deterministic: repeated runs give identical tables."""
    gens = []
    for g in group.generators:
        if g != group.identity and g not in gens:
            gens.append(g)
    seen = {group.identity}
    elements = [group.identity]
    layer = [group.identity]
    while layer:
        nxt = set()
        for h in layer:
            for g in gens:
                y = group.mul(h, g)
                if y not in seen:
                    nxt.add(y)
        layer = sorted(nxt)
        seen.update(layer)
        elements.extend(layer)
        if budget is not None and len(elements) > budget:
            raise BudgetError(
                f"enumeration exceeded budget {budget}", budget=budget)
    return ElementTable(group, elements, gens)


def subgroup_closure(group, seed_elements, budget=DEFAULT_ENUM_BUDGET):
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
        if budget is not None and len(seen) > budget:
            raise BudgetError(f"closure exceeded budget {budget}", budget=budget)
    return frozenset(seen)


def element_order(group, g):
    o = 1
    y = g
    while y != group.identity:
        y = group.mul(y, g)
        o += 1
    return o


def order_census(group, budget=DEFAULT_ENUM_BUDGET):
    """Map from element order to the number of elements of that order."""
    table = enumerate_group(group, budget)
    census = {}
    for g in table.elements:
        o = element_order(group, g)
        census[o] = census.get(o, 0) + 1
    return census


def _commutator(group, a, b):
    return group.mul(group.mul(a, b), group.mul(group.inv(a), group.inv(b)))


def frattini_rank(group, budget=DEFAULT_ENUM_BUDGET):
    """Rank of G/Phi(G) for a p-group G.

    Phi(G) = G^p [G,G] is computed as the subgroup generated by all p-th
    powers together with commutators of the generators, closed under
    conjugation by generators to a fixpoint.  The rank equals the minimal
    number of generators of G.
    """
    table = enumerate_group(group, budget)
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
    sub = subgroup_closure(group, seeds, budget)
    while True:
        conj = set(sub)
        for c in table.generators:
            c_inv = group.inv(c)
            for h in sub:
                conj.add(group.mul(group.mul(c, h), c_inv))
        if conj == sub:
            break
        sub = subgroup_closure(group, conj, budget)
    quotient = group.order // len(sub)
    rank = 0
    while p ** rank < quotient:
        rank += 1
    if p ** rank != quotient:
        raise AssertionError("Frattini quotient is not a power of p")
    return rank


def abelian_group(invariants, p=None):
    """Direct product of cyclic groups Z/d_1 x ... x Z/d_k (test oracle
    plumbing; all d_k must be powers of one prime when the group feeds
    the resolution engine)."""
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
