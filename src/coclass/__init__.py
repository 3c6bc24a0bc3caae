"""Finite quotients of uniserial p-adic space groups with cyclic point
group: exact lattice filtrations, concrete group models, minimal free
resolutions over F_p[G] with their Betti numbers, and the cochain-level
product identities, all verified by exact arithmetic."""

from .errors import BudgetError
from .intmat import IntMatrix, hnf, is_prime, snf, xgcd
from .lattice import (
    Lattice,
    apply_matrix,
    lattice_contains,
    lattice_from_columns,
    lattice_index,
    scale_lattice,
)
from .fpmat import FpMatrix
from .spacegroup import (
    FiniteGroup,
    QuotientCoords,
    SpaceGroupParams,
    WreathElement,
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
from .groups import (
    ElementTable,
    element_order,
    enumerate_group,
    order_census,
)
from .resolution import (
    GroupAlgebraContext,
    Resolution,
    betti_numbers,
    clear_cache,
    list_cache,
    load_resolution,
    minimal_resolution,
    resolution_cache_key,
    save_resolution,
    verify_theorem,
)
from .cochain import (
    Cochain,
    ElementaryTensor,
    act_on_cochain,
    act_on_point,
    check_eta_equivariance,
    check_inflation_equivariance,
    cross_product_eval,
    inflate_eval,
    point_index,
    index_point,
)

__version__ = "0.1.0"
