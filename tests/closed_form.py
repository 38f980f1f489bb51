"""The closed-form Casimir eigenvectors as dense vectors, for tests that
compare against dense products."""

import numpy as np

from qsphere.casimir import closed_form_eigvec


def eigvec_vector(p, x, sign, branch, k, N):
    """`closed_form_eigvec`'s entries scattered into a 2N vector."""
    v = np.zeros(2 * N, dtype=np.complex128)
    for slot, val in closed_form_eigvec(p, x, sign, branch, k, N):
        v[slot] = val
    return v
