import random

import pytest

from _models import int_matrix_from_columns
from _oracles import det
from coclass.intmat import IntMatrix
from coclass.lattice import (
    lattice_contains,
    lattice_from_columns,
    lattice_index,
    scale_lattice,
)
from coclass.spacegroup import SpaceGroupParams, companion_cyclotomic, filtration_lattices


def test_scaled_identity_lattice():
    for p, d in [(2, 1), (3, 2), (5, 4)]:
        lat = lattice_from_columns(p * IntMatrix.identity(d))
        assert lat.det == p ** d
        assert lat.basis == p * IntMatrix.identity(d)


def test_permuted_columns_same_canonical_basis():
    a = IntMatrix([[2, 1, 0], [0, 3, 1], [0, 0, 4]])
    perm = int_matrix_from_columns([a.column(2), a.column(0), a.column(1)])
    assert lattice_from_columns(a) == lattice_from_columns(perm)


def test_unimodular_change_of_basis_same_lattice():
    rng = random.Random(19)
    shear = IntMatrix([[1, 2, 0], [0, 1, -1], [0, 0, 1]])
    done = 0
    while done < 10:
        a = IntMatrix([[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)])
        if det(a) == 0:
            continue
        assert lattice_from_columns(a) == lattice_from_columns(a @ shear)
        done += 1


def test_level_one_determinant():
    c = companion_cyclotomic(SpaceGroupParams(3, 1))
    step = c - IntMatrix.identity(2)
    lat = lattice_from_columns(3 * step)
    # index p^dim for the scaling times p for one commutator step
    assert lat.det == 27


def test_rank_deficient_rejected():
    with pytest.raises(ValueError, match="not full rank"):
        lattice_from_columns(IntMatrix([[1, 2], [2, 4]]))


def test_contains_zero_and_unit():
    lat = lattice_from_columns(2 * IntMatrix.identity(3))
    assert lattice_contains(lat, (0, 0, 0))
    assert not lattice_contains(lat, (1, 0, 0))
    assert lattice_contains(lat, (2, -4, 6))


def test_contains_constructed_member():
    rng = random.Random(3)
    done = 0
    while done < 20:
        a = IntMatrix([[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)])
        if det(a) == 0:
            continue
        lat = lattice_from_columns(a)
        coeffs = [rng.randint(-5, 5) for _ in range(3)]
        v = tuple(sum(a.data[i][j] * coeffs[j] for j in range(3)) for i in range(3))
        assert lattice_contains(lat, v)
        done += 1


def test_contains_dimension_mismatch():
    lat = lattice_from_columns(IntMatrix.identity(2))
    with pytest.raises(ValueError):
        lattice_contains(lat, (1, 2, 3))


def test_index_self_and_scaled():
    lat = lattice_from_columns(IntMatrix.identity(3))
    assert lattice_index(lat, lat) == 1
    assert lattice_index(lat, scale_lattice(lat, 2)) == 8


def test_index_not_sublattice():
    big = lattice_from_columns(2 * IntMatrix.identity(2))
    amb = lattice_from_columns(IntMatrix.identity(2))
    with pytest.raises(ValueError, match="not a sublattice"):
        lattice_index(big, amb)


def test_successive_filtration_index_is_p():
    lats = filtration_lattices(SpaceGroupParams(3, 1), 9)
    for i in range(9):
        assert lattice_index(lats[i], lats[i + 1]) == 3
