"""Symbolic-numeric certification of quantized sphere algebra identities.

The package certifies the defining relations, spectral decompositions and
equivalence-chain identities of a one-parameter family of q-deformed sphere
algebras and their graded extensions, using truncated banded representations
with padded (hence exact) interior windows.
"""

__version__ = "0.1.0"
