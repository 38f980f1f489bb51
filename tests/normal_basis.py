"""Membership in the normal-form monomial basis, for tests that check where
rewriting lands: a word is a basis monomial when `ncalg.basis_words` lists
it among the monomials up to its own length.  Each presentation's set is
built once per length."""

import functools

from qsphere.ncalg import basis_words


@functools.lru_cache(maxsize=None)
def _basis(pres, degree: int) -> frozenset:
    return frozenset(basis_words(pres, degree))


def in_basis(word, pres) -> bool:
    return tuple(word) in _basis(pres, len(word))
