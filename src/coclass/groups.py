"""Uniform services over FiniteGroup: enumeration, element orders, censuses.

The element ordering contract is frozen because resolution cache keys
depend on element indices: identity first, then breadth-first layers of
right-multiplication by the generators, each layer sorted
lexicographically by coordinates.
"""

from __future__ import annotations

from .errors import BudgetError
from .spacegroup import DEFAULT_ENUM_BUDGET


class ElementTable:
    """Canonical element list of a finite group with an index map."""

    __slots__ = ("elements", "index", "generators")

    def __init__(self, group, elements, generators):
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
