import pytest

from _models import abelian_group, permuted
from _oracles import frattini_rank, subgroup_closure
from coclass.errors import BudgetError
from coclass.groups import ElementTable, element_order, enumerate_group, order_census
from coclass.spacegroup import SpaceGroupParams, b3r, quotient_group


def test_enumerate_small_groups():
    assert len(enumerate_group(abelian_group([2, 2]))) == 4
    assert len(enumerate_group(b3r(3))) == 27
    assert len(enumerate_group(quotient_group(SpaceGroupParams(2, 1), 3))) == 32


def test_enumerate_identity_first_and_deterministic():
    g = b3r(3)
    t1 = enumerate_group(g)
    t2 = enumerate_group(g)
    assert t1.elements[0] == g.identity
    assert t1.elements == t2.elements
    assert all(t1.index[e] == k for k, e in enumerate(t1.elements))


def test_enumerate_budget():
    with pytest.raises(BudgetError):
        enumerate_group(b3r(5), budget=100)


def test_permuted_table():
    g = abelian_group([2, 2])
    t = enumerate_group(g)
    t2 = permuted(g, t, [3, 1, 2])
    assert t2.elements[0] == g.identity
    assert sorted(t2.elements) == sorted(t.elements)
    # the generator products follow the elements to their new indices
    for t_ in (t, t2):
        assert t_.right.tolist() == [[t_.index[g.mul(a, gen)] for a in t_.elements]
                                     for gen in t_.generators]
    with pytest.raises(ValueError):
        permuted(g, t, [0, 1, 2])


def test_table_generators_exclude_identity_and_repeats():
    g = abelian_group([2, 2])
    t = enumerate_group(g)
    assert ElementTable(g, t.elements, t.generators, t.right).generators == t.generators
    for gens in (t.generators + (g.identity,), t.generators * 2):
        with pytest.raises(AssertionError, match="generators repeat"):
            ElementTable(g, t.elements, gens, t.right)


def test_table_puts_the_identity_first():
    # the resolution reads generator columns and translations at index 0
    g = abelian_group([2, 2])
    t = enumerate_group(g)
    assert t.elements[0] == g.identity
    with pytest.raises(AssertionError, match="identity is not element 0"):
        ElementTable(g, t.elements[1:] + t.elements[:1], t.generators, t.right)


def test_subgroup_closure_trivial_and_full():
    g = b3r(3)
    assert subgroup_closure(g, [g.identity]) == frozenset([g.identity])
    assert len(subgroup_closure(g, g.generators)) == 27


def test_subgroup_closure_frattini_of_b33_is_center():
    g = b3r(3)
    seeds = []
    for a in g.generators:
        cube = g.mul(g.mul(a, a), a)
        seeds.append(cube)
    for a in g.generators:
        for b in g.generators:
            seeds.append(g.mul(g.mul(a, b), g.mul(g.inv(a), g.inv(b))))
    sub = subgroup_closure(g, seeds)
    assert len(sub) == 3
    # closed under conjugation, i.e. central here
    t = enumerate_group(g)
    for h in sub:
        for c in t.elements:
            assert g.mul(g.mul(c, h), g.inv(c)) in sub


def test_frattini_rank_elementary_abelian():
    for p, k in [(2, 3), (3, 2), (5, 1)]:
        assert frattini_rank(abelian_group([p] * k)) == k


def test_frattini_rank_cyclic4():
    assert frattini_rank(abelian_group([4])) == 1


def test_frattini_rank_maximal_class_quotients():
    for i in range(3):
        assert frattini_rank(quotient_group(SpaceGroupParams(3, 1), i)) == 2
    assert frattini_rank(quotient_group(SpaceGroupParams(2, 1), 2)) == 2


def test_frattini_rank_bound():
    import math
    for g in [abelian_group([8]), abelian_group([2, 4]), b3r(4)]:
        rank = frattini_rank(g)
        assert rank <= round(math.log(g.order, g.p))


def test_order_census_values():
    assert order_census(abelian_group([2, 2])) == {1: 1, 2: 3}
    assert order_census(quotient_group(SpaceGroupParams(2, 1), 1)) == \
        {1: 1, 2: 5, 4: 2}
    assert order_census(b3r(3)) == {1: 1, 3: 26}


def test_element_order():
    g = abelian_group([4])
    assert element_order(g, (0,)) == 1
    assert element_order(g, (1,)) == 4
    assert element_order(g, (2,)) == 2


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        abelian_group([1])
    g = abelian_group([4, 2])
    assert g.order == 8
    assert g.p == 2
