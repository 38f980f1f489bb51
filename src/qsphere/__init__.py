"""Symbolic-numeric certification of quantized sphere algebra identities.

The package certifies the defining relations, spectral decompositions and
equivalence-chain identities of a one-parameter family of q-deformed sphere
algebras and their graded extensions, using truncated banded representations
with padded (hence exact) interior windows.
"""

from .qcore import QParams, tau, q_pochhammer
from .ncalg import (
    NCPoly,
    Presentation,
    RewriteCapError,
    make_presentation,
    normal_form,
    parse,
    format_poly,
    grade,
    basis_words,
    is_basis_word,
    random_words,
)
from .reps import (
    rep_podles,
    rep_bl,
    spin_half,
    evaluate,
    relation_check,
    dump_matrix,
    load_matrix,
)
from .casimir import (
    casimir_matrix,
    closed_form_eigvec,
    compress_identify,
    numeric_interior_spectrum,
)
from .action import (
    DependentMonomialsError,
    casimir_invariance,
    invariance_defects,
    invariant_subspace,
    spin2l_check,
)
from .morita import (
    a0_block,
    basis_change,
    orbit_equivalent,
    picard_group,
    podles_part_compression,
    rp2_suite,
)
from .report import VerificationReport, canonical_json

__version__ = "0.1.0"
