"""Brute-force verifiers, independent of the closed-form theory.

``subgroups`` searches SL2(o) directly for finite subgroups of the three
non-cyclic types within a height bound.  ``localtree`` re-counts the local
embedding numbers by enumerating vertices of the tree of maximal orders of
M2 over a ramified local field and intersecting exactly.  Both compute
through ``ring``, the one exact arithmetic of 2x2 matrices over a quadratic
ring.
"""

from .localtree import count_maximal_orders_local
from .subgroups import find_subgroup, verify_witness
