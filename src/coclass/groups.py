"""Uniform services over FiniteGroup: enumeration, element orders, censuses.

The element order is frozen: identity first, then breadth-first layers
of right-multiplication by the generators, each layer sorted
lexicographically by coordinates.  Cache keys come from the descriptor;
this order fixes the cached boundary bytes.  The law is read once per
(element, generator) pair, into ``ElementTable.right``, from which the
resolution builds ``gather``, the one group table it stores.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetError
from .spacegroup import DEFAULT_ENUM_BUDGET


class ElementTable:
    """Canonical element list of a finite group with an index map and
    right[k, a] = index of a*g_k (int32, |generators| x |G|)."""

    __slots__ = ("elements", "index", "generators", "right")

    def __init__(self, group, elements, generators, right):
        self.elements = tuple(elements)
        self.index = {g: k for k, g in enumerate(self.elements)}
        self.generators = tuple(generators)
        self.right = right
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


def enumerate_group(group, budget=DEFAULT_ENUM_BUDGET):
    """Breadth-first closure from the generators in the frozen canonical
    order.  Deterministic: repeated runs give identical tables.  Elements
    are visited in index order, each product's index kept in ``right``."""
    gens = []
    for g in group.generators:
        if g != group.identity and g not in gens:
            gens.append(g)
    index = {group.identity: 0}
    elements = [group.identity]
    right = [[] for _ in gens]
    layer = [group.identity]
    while layer:
        prods = [[group.mul(h, g) for h in layer] for g in gens]
        layer = sorted({y for col in prods for y in col if y not in index})
        index.update((y, len(elements) + k) for k, y in enumerate(layer))
        elements.extend(layer)
        for col, out in zip(prods, right):
            out.extend(index[y] for y in col)
        if budget is not None and len(elements) > budget:
            raise BudgetError(
                f"enumeration exceeded budget {budget}", budget=budget)
    right = np.array(right, dtype=np.int32).reshape(len(gens), len(elements))
    return ElementTable(group, elements, gens, right)


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
