"""Exact-arithmetic Lie theory toolkit.

Checks transitive and spherical triples of real Lie algebras, computes the
degree-two embedding of invariant differential operators through Casimir
elements, and prints the banded Laplacian spectrum of the compact Lorentzian
quotients, all over exact rational arithmetic.
"""

from importlib import import_module as _import_module

# Each module and the public names it defines.  Nothing is imported here:
# a name is looked up in its module on first access (PEP 562), so that
# `import lietriples` stays cheap and a CLI verb loads only the modules it
# runs.  The modules themselves resolve as attributes too.
_EXPORTS = {
    "ratlin": (
        "RatMatrix",
        "SubspaceBasis",
        "rank",
        "kernel",
        "solve",
        "signature",
        "subspace_sum",
        "subspace_intersection",
        "IrrationalSpectrum",
    ),
    "liealg": (
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
    ),
    "pairs": (
        "Involution",
        "TripleDescriptor",
        "TripleReport",
        "NotTransitiveTriple",
        "eigenspace_split",
        "check_transitive_triple",
    ),
    "parabolic": (
        "RestrictedRootSystem",
        "maximal_abelian_in_s",
        "restricted_roots",
        "is_spherical_triple",
    ),
    "env2": (
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
    ),
    "spectra": ("SpectrumReport", "lorentzian_spectrum_report"),
}

# name -> the module that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
