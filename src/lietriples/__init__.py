"""Exact-arithmetic Lie theory toolkit.

Checks transitive and spherical triples of real Lie algebras, computes the
degree-two embedding of invariant differential operators through Casimir
elements, and prints the banded Laplacian spectrum of the compact Lorentzian
quotients, all over exact rational arithmetic.
"""

from .ratlin import (
    RatMatrix,
    SubspaceBasis,
    rank,
    kernel,
    solve,
    signature,
    subspace_sum,
    subspace_intersection,
)
from .liealg import (
    LieAlgebra,
    from_matrix_basis,
    so,
    u,
    su,
    sl,
    g2_split,
    direct_sum,
    diagonal_subalgebra,
    killing_form,
    restrict_form,
    centralizer,
    is_subalgebra,
)
from .pairs import (
    Involution,
    TripleDescriptor,
    TripleReport,
    NotTransitiveTriple,
    eigenspace_split,
    check_transitive_triple,
)
from .parabolic import (
    RestrictedRootSystem,
    ParabolicSubalgebra,
    IrrationalSpectrum,
    maximal_abelian_in_s,
    restricted_roots,
    minimal_parabolic,
    is_spherical_triple,
)
from .env2 import (
    Quad2,
    DegenerateForm,
    NotInvariant,
    NotTransitive,
    casimir,
    bracket_with,
    reduce_mod_left_ideal,
    iota_embed,
    equals_mod_ideal,
    decompose_in_span,
)
from .spectra import SpectrumReport, lorentzian_spectrum_report

__all__ = [
    # ratlin
    "RatMatrix",
    "SubspaceBasis",
    "rank",
    "kernel",
    "solve",
    "signature",
    "subspace_sum",
    "subspace_intersection",
    # liealg
    "LieAlgebra",
    "from_matrix_basis",
    "so",
    "u",
    "su",
    "sl",
    "g2_split",
    "direct_sum",
    "diagonal_subalgebra",
    "killing_form",
    "restrict_form",
    "centralizer",
    "is_subalgebra",
    # pairs
    "Involution",
    "TripleDescriptor",
    "TripleReport",
    "NotTransitiveTriple",
    "eigenspace_split",
    "check_transitive_triple",
    # parabolic
    "RestrictedRootSystem",
    "ParabolicSubalgebra",
    "IrrationalSpectrum",
    "maximal_abelian_in_s",
    "restricted_roots",
    "minimal_parabolic",
    "is_spherical_triple",
    # env2
    "Quad2",
    "DegenerateForm",
    "NotInvariant",
    "NotTransitive",
    "casimir",
    "bracket_with",
    "reduce_mod_left_ideal",
    "iota_embed",
    "equals_mod_ideal",
    "decompose_in_span",
    # spectra
    "SpectrumReport",
    "lorentzian_spectrum_report",
]
