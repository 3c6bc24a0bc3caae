import json
import operator
import random
from math import comb

import pytest

from _models import (
    abelian_group,
    embed_cyclic,
    odometer_permutation,
    wreath_act,
    wreath_action_matrix,
)
from _oracles import (
    charpoly,
    det,
    filtration_reference,
    inverse_unimodular,
    perturb_filtration_level,
    rational_solve_integral,
)
from coclass import intmat, lattice, spacegroup
from coclass.errors import BudgetError
from coclass.intmat import IntMatrix, poly_eval_matrix, snf
from coclass.lattice import apply_matrix, lattice_from_columns, scale_lattice
from coclass.spacegroup import (
    QuotientCoords,
    SpaceGroupParams,
    b3r,
    check_delta_equivariance,
    companion_cyclotomic,
    cyclotomic_pp,
    filtration,
    filtration_lattices,
    maximal_class_matrix,
    quotient_group,
    sylow_tree_generators,
    verify_filtration,
    wreath_group,
    wreath_inv,
    wreath_mul,
)
from coclass.groups import element_order, enumerate_group, order_census


PAIRS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]


def test_params_validation():
    with pytest.raises(ValueError):
        SpaceGroupParams(4, 1)
    with pytest.raises(ValueError):
        SpaceGroupParams(3, 0)
    assert SpaceGroupParams(3, 2).dim == 6


def test_companion_small_cases():
    assert companion_cyclotomic(SpaceGroupParams(2, 1)) == IntMatrix([[-1]])
    assert companion_cyclotomic(SpaceGroupParams(3, 1)) == \
        IntMatrix([[0, -1], [1, -1]])


@pytest.mark.parametrize("p,x", PAIRS)
def test_companion_invariants(p, x):
    params = SpaceGroupParams(p, x)
    c = companion_cyclotomic(params)
    d = params.dim
    assert c ** params.point_order == IntMatrix.identity(d)
    assert poly_eval_matrix(cyclotomic_pp(p, x), c).is_zero()
    assert abs(det(c - IntMatrix.identity(d))) == p


def test_companion_order_exact():
    # no smaller power is the identity
    params = SpaceGroupParams(3, 2)
    c = companion_cyclotomic(params)
    assert (c ** 3) != IntMatrix.identity(6)


def test_maximal_class_matrix_values():
    assert maximal_class_matrix(3) == IntMatrix([[1, -3], [1, -2]])
    assert maximal_class_matrix(2) == IntMatrix([[-1]])


def test_maximal_class_matrix_p5():
    m = maximal_class_matrix(5)
    assert charpoly(m) == [1, 1, 1, 1, 1]
    assert m ** 5 == IntMatrix.identity(4)
    # same characteristic polynomial as the cyclotomic companion model
    assert charpoly(companion_cyclotomic(SpaceGroupParams(5, 1))) == charpoly(m)


@pytest.mark.parametrize("p", [3, 5])
def test_maximal_class_shift_power_divisible(p):
    m = maximal_class_matrix(p)
    n = (m - IntMatrix.identity(p - 1)) ** (p - 1)
    assert all(v % p == 0 for row in n.data for v in row)
    over_p = IntMatrix([[v // p for v in row] for row in n.data])
    assert det(over_p) % p != 0


def test_filtration_base_level():
    for p, x in PAIRS:
        params = SpaceGroupParams(p, x)
        assert filtration(params, 0) == \
            lattice_from_columns(p * IntMatrix.identity(params.dim))


@pytest.mark.parametrize("p,x", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 1), (2, 3)])
def test_filtration_chain_matches_the_definition(p, x):
    params = SpaceGroupParams(p, x)
    cmat = companion_cyclotomic(params)
    lats = filtration_lattices(params, 12)
    assert lats == [filtration_reference(p, cmat, i) for i in range(13)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_maximal_class_chain_matches_the_definition(p):
    m = maximal_class_matrix(p)
    lats = spacegroup._lattice_chain(m, m.rows + 8)[m.rows:]
    assert lats == [filtration_reference(p, m, i) for i in range(9)]


def test_filtration_scaling_law_p3():
    lats = filtration_lattices(SpaceGroupParams(3, 1), 9)
    for i in range(7):
        assert scale_lattice(lats[i], 3) == lats[i + 2]


def test_filtration_negative_level():
    with pytest.raises(ValueError):
        filtration(SpaceGroupParams(3, 1), -1)


def test_commutator_matrix_2_1():
    d = IntMatrix.identity(1) - companion_cyclotomic(SpaceGroupParams(2, 1))
    assert d == IntMatrix([[2]])
    assert det(d) == 2


def test_commutator_image_and_scaled_inverse():
    for p, x in [(2, 1), (3, 1), (3, 2), (5, 1)]:
        params = SpaceGroupParams(p, x)
        d = IntMatrix.identity(params.dim) - companion_cyclotomic(params)
        c = companion_cyclotomic(params)
        assert d @ c == c @ d
        assert rational_solve_integral(d.data, (p * IntMatrix.identity(params.dim)).data)
        lats = filtration_lattices(params, 7)
        for i in range(6):
            assert apply_matrix(d, lats[i]) == lats[i + 1]


@pytest.mark.parametrize("p,x", PAIRS)
def test_verify_filtration_clean(p, x):
    rep = verify_filtration(SpaceGroupParams(p, x), 10, trials=200, seed=1)
    assert rep["failures"] == 0, [c for c in rep["checks"] if not c["passed"]]


def test_verify_filtration_minimal_depth():
    rep = verify_filtration(SpaceGroupParams(3, 1), 0, trials=10, seed=0)
    assert rep["failures"] == 0
    assert rep["checks"][0]["name"] == "base-level-is-p-times-ambient"


@pytest.mark.parametrize("wrong_step", [
    lambda step: step @ step,   # (C-I)N_i is not inside N_{i+1}
    lambda step: IntMatrix.identity(step.rows),   # inside, but index 1
], ids=["squared", "identity"])
def test_verify_filtration_wrong_chain_step_fails(monkeypatch, wrong_step):
    real = spacegroup._lattice_chain

    def wrong(cmat, top):
        eye = IntMatrix.identity(cmat.rows)
        return real(eye + wrong_step(cmat - eye), top)

    monkeypatch.setattr(spacegroup, "_lattice_chain", wrong)
    for p, x in [(3, 1), (2, 2)]:
        rep = verify_filtration(SpaceGroupParams(p, x), 3, trials=0)
        failing = {c["name"] for c in rep["checks"] if not c["passed"]}
        assert "point-shift-maps-level-to-next" in failing


@pytest.mark.parametrize("p,x", [(5, 2), (2, 5)])
def test_verify_filtration_reaches_dimension_16_and_20(p, x):
    rep = verify_filtration(SpaceGroupParams(p, x), 0, trials=0)
    assert rep["failures"] == 0, [c for c in rep["checks"] if not c["passed"]]
    det_check = next(c for c in rep["checks"] if c["name"] == "commutator-determinant")
    assert det_check["detail"] == p


def test_verify_filtration_tamper_negative_control(monkeypatch):
    perturb_filtration_level(monkeypatch, 2)
    rep = verify_filtration(SpaceGroupParams(3, 1), 5, trials=20, seed=1)
    assert rep["failures"] > 0
    failing = {c["name"] for c in rep["checks"] if not c["passed"]}
    assert "successive-index-p" in failing


# a level off by one entry fails every check that reads the chain; the
# checks on I-C alone (index, commutation, p(I-C)^-1) still pass
_PERTURBED_FAILING = {
    "commutator-image-is-next-level",
    "p-scaling-climbs-dim-levels",
    "point-shift-maps-level-to-next",
    "projection-commutes-with-commutator",
    "strict-containment",
    "successive-index-p",
}


@pytest.mark.parametrize("p, x", [(3, 1), (2, 2), (2, 1)])
@pytest.mark.parametrize("level", range(5))
def test_verify_filtration_perturbed_level_failures_are_pinned(monkeypatch, p, x,
                                                               level):
    perturb_filtration_level(monkeypatch, level)
    rep = verify_filtration(SpaceGroupParams(p, x), 4, trials=20, seed=1)
    failing = {c["name"] for c in rep["checks"] if not c["passed"]}
    base = {"base-level-is-p-times-ambient"} if level == 0 else set()
    assert failing == _PERTURBED_FAILING | base
    det_check = next(c for c in rep["checks"] if c["name"] == "commutator-determinant")
    assert det_check["detail"] == p


def test_delta_equivariance_report():
    rep = check_delta_equivariance(SpaceGroupParams(3, 1), 6, trials=100, seed=4)
    assert rep["failures"] == 0
    assert rep["identity"] == "delta-equivariance"


# --- quotient groups -------------------------------------------------------

def test_quotient_2_1_level0_is_klein():
    g = quotient_group(SpaceGroupParams(2, 1), 0)
    assert g.order == 4
    assert order_census(g) == {1: 1, 2: 3}
    t = enumerate_group(g)
    for a in t.elements:
        for b in t.elements:
            assert g.mul(a, b) == g.mul(b, a)


def test_quotient_2_1_level1_is_dihedral8():
    g = quotient_group(SpaceGroupParams(2, 1), 1)
    assert g.order == 8
    assert order_census(g) == {1: 1, 2: 5, 4: 2}


def test_quotient_3_1_level0_extraspecial():
    g = quotient_group(SpaceGroupParams(3, 1), 0)
    assert g.order == 27
    assert order_census(g) == {1: 1, 3: 26}
    t = enumerate_group(g)
    a, b = t.elements[1], t.elements[2]
    assert g.mul(a, b) != g.mul(b, a)


@pytest.mark.parametrize("p,x,i", [(2, 1, 3), (3, 1, 1), (2, 2, 2), (3, 2, 0)])
def test_quotient_order_formula(p, x, i):
    params = SpaceGroupParams(p, x)
    g = quotient_group(params, i)
    assert g.order == p ** (params.dim + x + i)


def test_quotient_group_axioms_random():
    rng = random.Random(2)
    g = quotient_group(SpaceGroupParams(3, 1), 1)
    t = enumerate_group(g)
    els = t.elements
    for _ in range(300):
        a, b, c = (els[rng.randrange(len(els))] for _ in range(3))
        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
        assert g.mul(a, g.inv(a)) == g.identity
        assert g.mul(g.identity, a) == a


@pytest.mark.parametrize("model,p,x,i", [("quotient", 2, 1, 3), ("quotient", 3, 1, 2),
                                         ("quotient", 2, 2, 2), ("quotient", 3, 2, 0),
                                         ("quotient", 5, 1, 0), ("b3r", 3, 1, 1)])
def test_quotient_law_is_the_integer_semidirect_product(model, p, x, i):
    # (v, s)(w, t) = (v + C^s w, s + t) and (v, s)^-1 = (-C^-s v, -s) on
    # Z^d x Z, read through lift and reduce_vector, on random elements
    params = SpaceGroupParams(p, x)
    group = b3r(3 + i) if model == "b3r" else quotient_group(params, i, budget=None)
    coords = QuotientCoords(params, i)
    d, px = params.dim, params.point_order
    pows = [companion_cyclotomic(params) ** s for s in range(px)]
    rng = random.Random(24)

    def element():
        return tuple(rng.randrange(n) for n in coords.invariants) + (rng.randrange(px),)

    for _ in range(200):
        a, b = element(), element()
        v, w = coords.lift(a[:d]), pows[a[d]].apply(coords.lift(b[:d]))
        assert group.mul(a, b) == coords.reduce_vector(
            tuple(map(operator.add, v, w))) + ((a[d] + b[d]) % px,)
        back = pows[-a[d] % px].apply(v)
        assert group.inv(a) == coords.reduce_vector(tuple(-c for c in back)) + (-a[d] % px,)


def test_quotient_budget():
    with pytest.raises(BudgetError):
        quotient_group(SpaceGroupParams(2, 1), 5, budget=64)


def test_over_budget_quotient_is_refused_before_the_lattice(monkeypatch):
    def unreachable(*args):
        raise AssertionError("lattice built for a refused group")

    monkeypatch.setattr(spacegroup, "_lattice_chain", unreachable)
    monkeypatch.setattr(spacegroup, "QuotientCoords", unreachable)
    with pytest.raises(BudgetError, match="exceeds enumeration budget"):
        quotient_group(SpaceGroupParams(251, 1), 0)
    with pytest.raises(BudgetError):
        b3r(30)


def test_quotient_order_is_certified_against_the_invariants(monkeypatch):
    # invariants one level too deep give a group p times too large
    real = spacegroup._invariants
    monkeypatch.setattr(spacegroup, "_invariants",
                        lambda params, level: real(params, level + 1))
    with pytest.raises(AssertionError, match="quotient order mismatch"):
        quotient_group(SpaceGroupParams(3, 1), 1)


def test_quotients_are_built_without_hermite_or_smith_forms(monkeypatch):
    def unreachable(*args):
        raise AssertionError("elimination on the build path")

    for owner in (intmat, lattice):
        monkeypatch.setattr(owner, "hnf", unreachable)
    monkeypatch.setattr(intmat, "snf", unreachable)
    monkeypatch.setattr(spacegroup, "_lattice_chain", unreachable)
    assert len(enumerate_group(quotient_group(SpaceGroupParams(2, 2), 3))) == 128
    assert len(enumerate_group(b3r(5))) == 243
    assert QuotientCoords(SpaceGroupParams(7, 2), 2).invariants == (7,) * 40 + (49,) * 2


def _pi_basis(d):
    """(S, P) of the pi-adic chart from the binomial formulas, coordinate t
    holding pi^(d-1-t): S[t][j] = C(j, d-1-t) reads e_j = (1+pi)^j, and
    column t of P is pi^(d-1-t) = (zeta-1)^(d-1-t) in the basis zeta^j."""
    s = IntMatrix([[comb(j, d - 1 - t) for j in range(d)] for t in range(d)])
    lift = IntMatrix([[(-1) ** (d - 1 - t - j) * comb(d - 1 - t, j) for t in range(d)]
                      for j in range(d)])
    return s, lift


# every family this file builds: PAIRS, (2, 3) of the chain test, p = 7 of
# the maximal-class chains and dimensions 16 and 20 of the deep filtrations
FAMILIES = PAIRS + [(2, 3), (7, 1), (5, 2), (2, 5)]


@pytest.mark.parametrize("p,x", FAMILIES)
def test_closed_form_chart_matches_the_hermite_and_smith_forms(p, x):
    params = SpaceGroupParams(p, x)
    d = params.dim
    s, lift = _pi_basis(d)
    assert s @ lift == IntMatrix.identity(d)
    assert inverse_unimodular(s) == lift
    for i, lat in enumerate(filtration_lattices(params, 12)):
        coords = QuotientCoords(params, i)
        diag, _ = snf(lat.basis)
        assert coords.invariants == tuple(diag.data[k][k] for k in range(d))
        scaled = IntMatrix([[a * inv for a, inv in zip(row, coords.invariants)]
                            for row in lift.data])
        assert lattice_from_columns(scaled) == lat == filtration(params, i)
        for t in range(d):
            unit = tuple(int(k == t) for k in range(d))
            assert coords.lift(unit) == lift.column(t)
            assert coords.reduce_vector(unit) == tuple(
                a % inv for a, inv in zip(s.column(t), coords.invariants))


@pytest.mark.parametrize("p,x", FAMILIES)
def test_point_action_in_pi_coordinates_is_the_zeta_action(p, x):
    # S C P multiplies by zeta = 1 + pi; read in the order pi^0..pi^(d-1)
    # it is I + the companion matrix of the Eisenstein polynomial, which at
    # x = 1 is maximal_class_matrix(p), the action b3r is described by
    params = SpaceGroupParams(p, x)
    d = params.dim
    s, lift = _pi_basis(d)
    act = s @ companion_cyclotomic(params) @ lift
    natural = IntMatrix([[act.data[d - 1 - j][d - 1 - k] for k in range(d)]
                         for j in range(d)])
    assert natural == spacegroup._zeta_action(params)
    if x == 1:
        assert natural == maximal_class_matrix(p)


@pytest.mark.parametrize("r", range(3, 7))
def test_b3r_is_the_p3_quotient_under_its_own_descriptor(r):
    g = b3r(r)
    q = quotient_group(SpaceGroupParams(3, 1), r - 3)
    gt, qt = enumerate_group(g), enumerate_group(q)
    assert gt.elements == qt.elements
    assert (gt.right == qt.right).all()
    assert g.descriptor == {**q.descriptor, "model": "b3r",
                            "matrixC": [[1, -3], [1, -2]]}


@pytest.mark.parametrize("p,x,i", [(2, 1, 3), (3, 1, 1), (2, 2, 1)])
def test_translation_subgroup_matches_snf(p, x, i):
    # elements with trivial point part form an abelian subgroup of order
    # p^(dim+i) whose invariant factors are the lattice SNF
    params = SpaceGroupParams(p, x)
    g = quotient_group(params, i)
    t = enumerate_group(g)
    translations = [e for e in t.elements if e[-1] == 0]
    assert len(translations) == p ** (params.dim + i)
    for a in translations:
        for b in translations:
            assert g.mul(a, b) == g.mul(b, a)
    census = {}
    for e in translations:
        census[element_order(g, e)] = census.get(element_order(g, e), 0) + 1
    from coclass.groups import order_census as oc
    model = abelian_group(g.descriptor["snf"])
    assert census == oc(model)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_quotient_coords_reduced_powers_match_the_unreduced_ones(level):
    # the unreduced powers of A = S C P, reduced row by row modulo the
    # invariant factors only at the end, against the loop that reduces A
    # and every power
    params = SpaceGroupParams(5, 2)
    s, lift = _pi_basis(params.dim)
    coords = QuotientCoords(params, level)
    act = s @ companion_cyclotomic(params) @ lift
    cur = IntMatrix.identity(params.dim)
    for got in coords.point_pows:
        assert got == tuple(tuple(a % inv for a in row)
                            for row, inv in zip(cur.data, coords.invariants))
        cur = act @ cur
    assert len(coords.point_pows) == params.point_order


def test_quotient_coords_certifies_the_point_order(monkeypatch):
    # y^2 + 3y + 6 is still Eisenstein, so its companion preserves every
    # pi-adic lattice, but its roots are not 1 + (a primitive cube root)
    real = spacegroup._zeta_action

    def corrupted(params):
        rows = [list(row) for row in real(params).data]
        rows[0][-1] -= params.p  # a_0 = 3 becomes 6
        return IntMatrix(rows)

    monkeypatch.setattr(spacegroup, "_zeta_action", corrupted)
    params = SpaceGroupParams(3, 1)
    QuotientCoords(params, 0)  # modulo 3, a_0 = 6 acts as a_0 = 3
    with pytest.raises(AssertionError, match="not I modulo the invariant"):
        QuotientCoords(params, 2)


@pytest.mark.parametrize("p,x", [(3, 1), (2, 2), (5, 1)])
def test_quotient_coords_certifies_the_invariant_lattice(monkeypatch, p, x):
    # the invariants in the order pi^0..pi^(d-1), against coordinates that
    # hold pi^(d-1) first: zeta * pi^(d-2) = pi^(d-2) + pi^(d-1) leaves the
    # lattice whenever the two invariants differ
    real = spacegroup._invariants
    monkeypatch.setattr(spacegroup, "_invariants",
                        lambda params, level: real(params, level)[::-1])
    params = SpaceGroupParams(p, x)
    QuotientCoords(params, params.dim)  # all invariants equal
    with pytest.raises(AssertionError, match="does not preserve the invariant lattice"):
        QuotientCoords(params, 1)


def test_b3r_family():
    assert b3r(3).order == 27
    assert b3r(4).descriptor["snf"] == [3, 9]
    assert b3r(5).descriptor["snf"] == [9, 9]
    with pytest.raises(ValueError):
        b3r(2)


def test_b3r_extension_shape_general():
    # translation subgroup is C_{3^k} x C_{3^k} at r = 2k+1, C_{3^k} x C_{3^(k-1)} at r = 2k
    for r in range(3, 10):
        snf = b3r(r, budget=None).descriptor["snf"]
        if r % 2 == 1:
            k = (r - 1) // 2
            assert snf == [3 ** k, 3 ** k]
        else:
            k = r // 2
            assert snf == [3 ** (k - 1), 3 ** k]


# --- wreath model ----------------------------------------------------------

def test_sylow_generators_order():
    # closure sizes of the tree generators alone
    import itertools

    def closure(perms):
        n = len(perms[0])
        idp = tuple(range(n))
        seen = {idp}
        frontier = [idp]
        while frontier:
            nxt = []
            for s in frontier:
                for t in perms:
                    c = tuple(s[t[i]] for i in range(n))
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
            frontier = nxt
        return len(seen)

    assert closure(sylow_tree_generators(2, 2)) == 8
    assert closure(sylow_tree_generators(3, 1)) == 3
    assert closure(sylow_tree_generators(2, 3)) == 128


def test_odometer_is_long_cycle_inside_sylow():
    for p, k in [(2, 1), (2, 2), (3, 1), (2, 3)]:
        o = odometer_permutation(p, k)
        seen = set()
        n = 0
        for _ in range(p ** k):
            seen.add(n)
            n = o[n]
        assert len(seen) == p ** k


@pytest.mark.parametrize("p,x,order", [(2, 2, 8), (3, 2, 81), (2, 3, 128)])
def test_wreath_group_order_enumerated(p, x, order):
    w = wreath_group(SpaceGroupParams(p, x))
    assert w.order == order
    assert len(enumerate_group(w)) == order


def test_wreath_act_identity_and_x1():
    p31 = SpaceGroupParams(3, 1)
    w = wreath_group(p31)
    v = (1, 2)
    assert wreath_act(p31, w.identity, v) == v
    gen = w.generators[0]
    c = companion_cyclotomic(p31)
    expect = tuple(x % 3 for x in c.apply(v))
    assert wreath_act(p31, gen, v) == expect


def test_wreath_act_is_homomorphism():
    rng = random.Random(7)
    p32 = SpaceGroupParams(3, 2)
    t = enumerate_group(wreath_group(p32))
    for _ in range(500):
        q1 = t.elements[rng.randrange(81)]
        q2 = t.elements[rng.randrange(81)]
        v = tuple(rng.randrange(3) for _ in range(6))
        assert wreath_act(p32, wreath_mul(3, q1, q2), v) == \
            wreath_act(p32, q1, wreath_act(p32, q2, v))


def test_wreath_action_matrices_generate_faithful_image():
    p32 = SpaceGroupParams(3, 2)
    w = wreath_group(p32)
    gens = [wreath_action_matrix(p32, g) for g in w.generators]

    def modmul(a, b):
        m = a @ b
        return IntMatrix([[v % 3 for v in row] for row in m.data])

    seen = {IntMatrix.identity(6)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                y = modmul(m, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    assert len(seen) == 81


def test_embed_cyclic_orders_and_charpoly():
    p31 = SpaceGroupParams(3, 1)
    q = embed_cyclic(p31)
    assert q.top == (0,)
    assert element_order(wreath_group(p31), q) == 3

    p32 = SpaceGroupParams(3, 2)
    q32 = embed_cyclic(p32)
    w32 = wreath_group(p32)
    assert element_order(w32, q32) == 9
    cp = [c % 3 for c in charpoly(wreath_action_matrix(p32, q32))]
    assert cp == [c % 3 for c in cyclotomic_pp(3, 2)]

    p22 = SpaceGroupParams(2, 2)
    q22 = embed_cyclic(p22)
    w22 = wreath_group(p22)
    table = enumerate_group(w22)
    assert q22 in table.index
    assert element_order(w22, q22) == 4


def test_wreath_inverse():
    rng = random.Random(13)
    p32 = SpaceGroupParams(3, 2)
    t = enumerate_group(wreath_group(p32))
    for _ in range(100):
        q = t.elements[rng.randrange(81)]
        qi = wreath_inv(3, q)
        prod = wreath_mul(3, q, qi)
        assert prod == t.elements[0] or prod == wreath_group(p32).identity


def test_wreath_act_length_mismatch():
    p32 = SpaceGroupParams(3, 2)
    w = wreath_group(p32)
    with pytest.raises(ValueError):
        wreath_act(p32, w.identity, (1, 2, 3))


def test_descriptor_json_canonical():
    g = quotient_group(SpaceGroupParams(3, 1), 0)
    j1 = json.dumps(g.descriptor, sort_keys=True, separators=(",", ":"))
    j2 = json.dumps(quotient_group(SpaceGroupParams(3, 1), 0).descriptor,
                    sort_keys=True, separators=(",", ":"))
    assert j1 == j2
    assert '"model":"quotient"' in j1
