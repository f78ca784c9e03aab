"""Exact arithmetic of finite subgroups of Bianchi groups.

Decides which of the three non-cyclic finite group types (3-dihedral,
tetrahedral, maximal 2-dihedral) embed in PSL2(o) for o the ring of
integers of an imaginary quadratic field, and in the unit groups of
maximal orders of quaternion algebras over that field, and computes their
conjugacy class counts. Two independent brute-force oracles validate the
closed-form criteria.

The package re-exports nothing: each name is imported from the module that
defines it, such as ``bianchi.classify.classify_report``.
"""
