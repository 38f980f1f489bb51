"""The closed-form Casimir eigenvectors as dense vectors, for tests that
compare against dense products."""

import numpy as np

from qsphere.casimir import closed_form_eigvecs


def eigvec_vector(p, x, sign, branch, k, N):
    """Vector k of `closed_form_eigvecs` scattered into a 2N vector."""
    v = np.zeros(2 * N, dtype=np.complex128)
    for slot, val in closed_form_eigvecs(p, x, sign, branch, N)[k]:
        v[slot] = val
    return v
