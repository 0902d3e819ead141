"""Maximal abelian subspaces, restricted roots, and sphericity.

The sphericity verdict needs a and one centralizer, and no eigenvalue.  The
restricted roots of a, evidence only, must be rational: ratlin's
rational_joint_spectrum reads them and their multiplicities off
characteristic polynomials, and any failure to split raises
IrrationalSpectrum rather than approximating.
"""

from __future__ import annotations

from typing import NamedTuple

from .liealg import LieAlgebra, centralizer, check_ambient
from .pairs import NotTransitiveTriple, TripleDescriptor
from .ratlin import (
    IrrationalSpectrum,
    RatMatrix,
    SubspaceBasis,
    # not called here: bound so that perfbench/tracer.py's target
    # ("parabolic", "char_poly") wraps the calls ratlin makes
    char_poly,
    rational_joint_spectrum,
    subspace_sum,
)


class RestrictedRootSystem(NamedTuple):
    a_basis: SubspaceBasis
    roots: tuple
    multiplicities: tuple  # multiplicities[k] is the dimension of roots[k]'s space


def maximal_abelian_in_s(
    l_alg: LieAlgebra, s_l: SubspaceBasis, reverse: bool = False
) -> SubspaceBasis:
    """Greedy maximal abelian subspace of s_l.

    Starts from the first canonical basis vector of s_l (last when reverse
    is set) and keeps extending inside the commutant until no element of
    s_l outside the current subspace commutes with all of it.  The
    commutant z of the chosen vectors in s_l shrinks one vector at a time:
    the next z is the centralizer of the vector just chosen inside the
    last z, the same subspace as the centralizer of all of them in s_l.
    """
    check_ambient(l_alg, s_l)
    if s_l.dim == 0:
        return s_l
    chosen, z = [], s_l
    ext = s_l.int_rows[-1 if reverse else 0]
    while ext is not None:
        chosen.append(ext)
        a = SubspaceBasis(l_alg.dim, chosen)
        z = centralizer(l_alg, SubspaceBasis(l_alg.dim, [ext]), within=z)
        candidates = reversed(z.int_rows) if reverse else z.int_rows
        ext = next((v for v in candidates if not a.contains(v)), None)
    return a


def restricted_roots(l_alg: LieAlgebra, a: SubspaceBasis) -> RestrictedRootSystem:
    """The nonzero joint eigenvalues of ad(a) on l, as coordinate rows in
    the canonical basis of a, increasing, each with the dimension of its
    root space: ad(a) is symmetric for B_theta, so that is its multiplicity
    as a root of a characteristic polynomial.  Raises IrrationalSpectrum
    when ad(a) does not split over the rationals, or a is not abelian.
    """
    check_ambient(l_alg, a)
    # ad of each canonical basis vector, int row over its pivot entry
    ads = [l_alg.int_ad(v, v[p]) for v, p in zip(a.int_rows, a.pivots())]
    spectrum = rational_joint_spectrum(ads) if ads else []
    multiplicity = {root: m for root, m in spectrum if any(root)}
    roots = tuple(multiplicity)
    # opposite roots must pair with equal multiplicities
    for r in roots:
        if multiplicity.get(tuple(-x for x in r)) != multiplicity[r]:
            raise IrrationalSpectrum(f"root {r} has no matching opposite root space")
    return RestrictedRootSystem(a, roots, tuple(multiplicity.values()))


def cartan_split_of_l(
    t: TripleDescriptor,
) -> tuple[LieAlgebra, RatMatrix, SubspaceBasis, SubspaceBasis]:
    """l as its own algebra plus its Cartan split, from the ambient theta.

    Returns (l_alg, P, k_l, s_l) with P the column frame of l in ambient
    coordinates and k_l, s_l in l-coordinates.  Requires theta(l) = l.
    """
    k_l, s_l = t.cartan_split
    return t.l_alg, t.l_frame, k_l, s_l


def is_spherical_triple(
    t: TripleDescriptor, reverse: bool = False
) -> tuple[bool, dict]:
    """Sphericity through the open-orbit count p_L + (l cap h) = l.

    With a the greedy maximal abelian subspace of s_l and m = z_{k_l}(a),
    l = k_l + a + n and p_L cap k_l = m; l cap h is theta-stable and
    compact, so inside k_l, and the count is m + (l cap h) = k_l.  dim n
    follows from l = m + a + n + theta(n).  Returns (verdict, evidence):
    every dimension of the count, and the restricted roots of a, or roots
    None and roots_note when ad(a) does not split over the rationals.
    Requires a transitive triple.
    """
    report = t.triple_report
    if not report.is_transitive_triple:
        failed = ", ".join(report.failed_conditions())
        raise NotTransitiveTriple(f"not a transitive triple; failed: {failed}")
    l_alg, _, k_l, s_l = cartan_split_of_l(t)
    a = maximal_abelian_in_s(l_alg, s_l, reverse=reverse)
    m = centralizer(l_alg, a, within=k_l)
    lh = t.l_cap_h_in_l
    m_plus_lh = subspace_sum(m, lh).dim
    dim_n = (l_alg.dim - m.dim - a.dim) // 2
    evidence = {
        "dim_l": l_alg.dim,
        "dim_k_l": k_l.dim,
        "dim_s_l": s_l.dim,
        "dim_a": a.dim,
        "dim_m": m.dim,
        "dim_n": dim_n,
        "dim_p": m.dim + a.dim + dim_n,
        "dim_l_cap_h": lh.dim,
        "dim_p_plus_l_cap_h": m_plus_lh + a.dim + dim_n,
    }
    try:
        rrs = restricted_roots(l_alg, a)
    except IrrationalSpectrum as exc:
        evidence["roots"] = None
        evidence["roots_note"] = f"restricted roots not rational for this a: {exc}"
    else:
        evidence["roots"] = [
            {"root": [str(x) for x in root], "multiplicity": mult}
            for root, mult in zip(rrs.roots, rrs.multiplicities)
        ]
    return m_plus_lh == k_l.dim, evidence
