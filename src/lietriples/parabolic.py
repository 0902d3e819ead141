"""Maximal abelian subspaces, restricted roots, and sphericity.

The sphericity verdict needs a and one centralizer, and no eigenvalue.  The
restricted roots of a, evidence only, must be rational: they come from
ratlin.rational_eigenspaces, and any failure to split raises
IrrationalSpectrum rather than approximating.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .liealg import LieAlgebra, centralizer
from .pairs import NotTransitiveTriple, TripleDescriptor
from .ratlin import (
    RatMatrix,
    SubspaceBasis,
    # not called here: bound so that perfbench/tracer.py's target
    # ("parabolic", "char_poly") wraps the calls ratlin makes
    char_poly,
    combination,
    rational_eigenspaces,
    restrict_operator,
    subspace_sum,
)


class IrrationalSpectrum(ArithmeticError):
    """An ad-action failed to diagonalize over the rationals."""


class RestrictedRootSystem(NamedTuple):
    a_basis: SubspaceBasis
    roots: tuple
    root_spaces: dict
    zero_space: SubspaceBasis


def _not_preserved(_) -> IrrationalSpectrum:
    return IrrationalSpectrum("operator does not preserve the subspace")


def joint_eigenspaces(
    ambient_dim: int, operators: Sequence[RatMatrix]
) -> list[tuple[tuple, SubspaceBasis]]:
    """Simultaneous rational eigenspace decomposition of commuting operators.

    An operator acts on the whole space as itself, and its eigenspaces there
    are already in ambient coordinates; only on a proper subspace is it
    restricted and are its eigenspaces lifted back.  Raises
    IrrationalSpectrum when the eigenspaces of any operator fail to fill the
    space it acts on, or when one does not preserve the spaces before it.
    """
    if not operators:
        return [((), SubspaceBasis.full(ambient_dim))]
    spaces: list = [((), None)]  # None: the whole space, never built
    for op in operators:
        refined = []
        for tag, space in spaces:
            if space is None or space.dim == ambient_dim:
                dim, restricted = ambient_dim, op
            else:
                dim, restricted = space.dim, restrict_operator(op, space.vectors, _not_preserved)
            covered = 0
            for lam, sub in rational_eigenspaces(restricted):
                covered += sub.dim
                if restricted is not op:
                    lifted = (combination(v, space.vectors) for v in sub.vectors)
                    sub = SubspaceBasis(ambient_dim, lifted)
                refined.append((tag + (lam,), sub))
            if covered != dim:
                raise IrrationalSpectrum(
                    "ad action does not split over the rationals "
                    f"(covered {covered} of {dim} dimensions)"
                )
        spaces = refined
    return spaces


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
    if s_l.dim == 0:
        return s_l
    chosen, z = [], s_l
    ext = s_l.vectors[-1 if reverse else 0]
    while ext is not None:
        chosen.append(ext)
        a = SubspaceBasis(l_alg.dim, chosen)
        z = centralizer(l_alg, SubspaceBasis(l_alg.dim, [ext]), within=z)
        candidates = reversed(z.vectors) if reverse else z.vectors
        ext = next((v for v in candidates if not a.contains(v)), None)
    return a


def restricted_roots(l_alg: LieAlgebra, a: SubspaceBasis) -> RestrictedRootSystem:
    """Joint ad(a) eigenspace decomposition of l with rational functionals.

    Roots are coordinate row vectors with respect to the canonical basis of
    a; the zero functional's space is kept separately as zero_space.
    """
    if a.dim == 0:
        return RestrictedRootSystem(
            a_basis=a,
            roots=(),
            root_spaces={},
            zero_space=SubspaceBasis.full(l_alg.dim),
        )
    operators = [l_alg.ad(v) for v in a.vectors]
    decomposition = joint_eigenspaces(l_alg.dim, operators)
    root_spaces = {}
    zero_space = SubspaceBasis.zero(l_alg.dim)
    for tag, space in decomposition:
        if all(x == 0 for x in tag):
            zero_space = space
        else:
            root_spaces[tag] = space
    roots = tuple(sorted(root_spaces.keys()))
    # opposite roots must pair with equal multiplicities
    for r in roots:
        neg = tuple(-x for x in r)
        if neg not in root_spaces or root_spaces[neg].dim != root_spaces[r].dim:
            raise IrrationalSpectrum(f"root {r} has no matching opposite root space")
    total = zero_space.dim + sum(sp.dim for sp in root_spaces.values())
    if total != l_alg.dim:
        raise IrrationalSpectrum("root space decomposition does not fill the algebra")
    return RestrictedRootSystem(
        a_basis=a, roots=roots, root_spaces=root_spaces, zero_space=zero_space
    )


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
            {"root": [str(x) for x in root], "multiplicity": rrs.root_spaces[root].dim}
            for root in rrs.roots
        ]
    return m_plus_lh == k_l.dim, evidence
