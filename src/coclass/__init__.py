"""Finite quotients of uniserial p-adic space groups with cyclic point
group: exact lattice filtrations, concrete group models, minimal free
resolutions over F_p[G] with their Betti numbers, and the cochain-level
product identities, all verified by exact arithmetic."""

__version__ = "0.1.0"
