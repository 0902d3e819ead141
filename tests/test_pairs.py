import random

import pytest
from conftest import ENTRY_NAMES
from helpers import dense_involution_validate
from test_cli import _FLIP_H1, _NEG_TRANSPOSE_FIRST

from lietriples import catalog

from lietriples.liealg import (
    diagonal_subalgebra,
    direct_sum,
    killing_form,
    restrict_form,
    sl,
    so,
)
from lietriples.pairs import (
    Involution,
    TripleDescriptor,
    check_transitive_triple,
    conjugation_involution,
    eigenspace_split,
    involution_from_images,
    is_compact_subalgebra,
    is_infinitesimally_transitive,
    is_reductively_embedded,
    negative_transpose_involution,
    swap_involution,
)
from lietriples.ratlin import (
    RatMatrix,
    SubspaceBasis,
    signature,
    subspace_intersection,
    subspace_sum,
)


def test_identity_involution_split():
    g = sl(2)
    ident = Involution(RatMatrix.identity(3))
    plus, minus = eigenspace_split(g, ident)
    assert plus == SubspaceBasis.full(3)
    assert minus.dim == 0


def test_swap_split_gives_diagonal_and_antidiagonal():
    g = direct_sum(sl(2), sl(2))
    sigma = swap_involution(g)
    sigma.validate(g)
    plus, minus = eigenspace_split(g, sigma)
    assert plus == diagonal_subalgebra(g)
    assert minus.dim == 3
    for v in minus.vectors:
        assert list(v[:3]) == [-x for x in v[3:]]


def test_so24_sigma_fixes_so14():
    g = so(2, 4)
    sigma = conjugation_involution(g, RatMatrix.diagonal([-1, 1, 1, 1, 1, 1]))
    sigma.validate(g)
    plus, minus = eigenspace_split(g, sigma)
    assert plus.dim == 10  # so(1,4)
    assert minus.dim == 5


def test_so24_theta_fixes_so2_plus_so4():
    g = so(2, 4)
    theta = conjugation_involution(g, RatMatrix.diagonal([1, 1, -1, -1, -1, -1]))
    plus, minus = eigenspace_split(g, theta)
    assert plus.dim == 1 + 6  # so(2) + so(4)
    assert minus.dim == 8


def test_graded_bracket_inclusions():
    g = direct_sum(sl(2), sl(2))
    sigma = swap_involution(g)
    plus, minus = eigenspace_split(g, sigma)
    for a in plus.vectors:
        for b in plus.vectors:
            assert plus.contains(g.bracket(a, b))
        for b in minus.vectors:
            assert minus.contains(g.bracket(a, b))
    for a in minus.vectors:
        for b in minus.vectors:
            assert plus.contains(g.bracket(a, b))


def test_involution_validation_rejects_non_automorphism():
    g = sl(2)
    # swapping E and F while fixing H is not an automorphism (sign fails)
    bad = involution_from_images(g, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    with pytest.raises(ValueError):
        bad.validate(g)


def test_reductive_embedding_cases():
    g = sl(2)
    assert is_reductively_embedded(g, SubspaceBasis.full(3))
    assert not is_reductively_embedded(g, SubspaceBasis(3, [[0, 1, 0]]))


def test_reductive_u12_in_so24(built_catalog):
    bt = built_catalog["lorentzian-2"]
    assert is_reductively_embedded(bt.g, bt.descriptor.l)


def test_transitivity_group_case():
    g = direct_sum(sl(2), sl(2))
    h = diagonal_subalgebra(g)
    l = SubspaceBasis(6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    assert is_infinitesimally_transitive(g, h, l)
    assert is_infinitesimally_transitive(g, h, SubspaceBasis.full(6))


def test_transitivity_dimension_count_lorentzian(built_catalog):
    bt = built_catalog["lorentzian-2"]
    d = bt.descriptor
    lh = subspace_intersection(d.l, d.h)
    assert (d.l.dim, d.h.dim, lh.dim) == (9, 10, 4)
    assert d.l.dim + d.h.dim - lh.dim == 15
    assert is_infinitesimally_transitive(bt.g, d.h, d.l)


def test_compactness_cases():
    g = sl(2)
    assert is_compact_subalgebra(g, SubspaceBasis.zero(3))
    assert is_compact_subalgebra(g, SubspaceBasis(3, [[0, 1, -1]]))  # span{E-F}
    assert not is_compact_subalgebra(g, SubspaceBasis(3, [[1, 0, 0]]))


def test_compact_intersection_u2(built_catalog):
    bt = built_catalog["lorentzian-2"]
    d = bt.descriptor
    lh = subspace_intersection(d.l, d.h)
    assert lh.dim == 4
    assert is_compact_subalgebra(bt.g, lh)


def test_diagonal_sl2_not_compact():
    g = direct_sum(sl(2), sl(2))
    assert not is_compact_subalgebra(g, diagonal_subalgebra(g))


def test_check_transitive_triple_catalog(built_catalog):
    expected_dims = {
        "group": (6, 3, 3, 0),
        "group-compact": (6, 3, 4, 1),
        "lorentzian-2": (15, 10, 9, 4),
        "lorentzian-3": (28, 21, 16, 9),
        "g2": (21, 11, 14, 4),
    }
    for name, bt in built_catalog.items():
        report = check_transitive_triple(bt.descriptor)
        assert report.verdict == "TransitiveTriple", name
        d = report.dims
        assert (d["g"], d["h"], d["l"], d["l_cap_h"]) == expected_dims[name]
        assert d["l"] + d["h"] - d["l_cap_h"] == d["g"]
        # the descriptor decides the conditions once and keeps the report
        assert check_transitive_triple(bt.descriptor) is report


def test_broken_descriptor_reports_failure():
    g = sl(2)
    ident = Involution(RatMatrix.identity(3))
    theta = negative_transpose_involution(g)
    broken = TripleDescriptor(
        g=g, sigma=ident, theta=theta, l=SubspaceBasis(3, [[0, 1, 0]]), name="broken"
    )
    report = check_transitive_triple(broken)
    assert not report.reductive
    assert report.verdict == "NotTransitiveTriple"


def test_catalog_theta_minus_space_positive(built_catalog):
    for name, bt in built_catalog.items():
        d = bt.descriptor
        s = d.s
        gram = restrict_form(killing_form(bt.g), s)
        assert signature(gram) == (s.dim, 0, 0), name


def test_descriptor_h_q_derived(built_catalog):
    for bt in built_catalog.values():
        d = bt.descriptor
        assert d.h.dim + d.q.dim == bt.g.dim
        assert subspace_sum(d.h, d.q).dim == bt.g.dim


def test_graded_inclusions_all_catalog_involutions(built_catalog):
    # [plus,plus] in plus, [plus,minus] in minus, [minus,minus] in plus,
    # for both involutions of every entry
    for name, bt in built_catalog.items():
        g = bt.g
        for inv in (bt.descriptor.sigma, bt.descriptor.theta):
            plus, minus = eigenspace_split(g, inv)
            assert plus.dim + minus.dim == g.dim, name
            for a in plus.vectors:
                for b in plus.vectors:
                    assert plus.contains(g.bracket(a, b)), name
                for b in minus.vectors:
                    assert minus.contains(g.bracket(a, b)), name
            for a in minus.vectors:
                for b in minus.vectors:
                    assert plus.contains(g.bracket(a, b)), name


def _validation_outcome(check, inv, g):
    """None when the check passes, else its message."""
    try:
        check(inv, g)
    except ValueError as exc:
        return str(exc)
    return None


def _sparse_check(inv, g):
    inv.validate(g)


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_sparse_involution_check_matches_the_dense_loop(built_catalog, name):
    """Same verdict and same first failing pair on the shipped involutions,
    on transpositions of two basis vectors and on single sign flips (both
    square to the identity, so the pair loop decides)."""
    d = built_catalog[name].descriptor
    g = d.g
    rng = random.Random(f"involution/{name}")
    cases = [d.sigma, d.theta]
    for _ in range(3):
        i, j = rng.sample(range(g.dim), 2)
        cols = [[int(r == k) for r in range(g.dim)] for k in range(g.dim)]
        cols[i], cols[j] = cols[j], cols[i]
        cases.append(involution_from_images(g, cols))
        flip = [[int(r == k) for r in range(g.dim)] for k in range(g.dim)]
        flip[i][i] = -1
        cases.append(involution_from_images(g, flip))
    outcomes = []
    for inv in cases:
        dense = _validation_outcome(dense_involution_validate, inv, g)
        assert _validation_outcome(_sparse_check, inv, g) == dense
        outcomes.append(dense)
    assert outcomes[:2] == [None, None]
    assert all(o is None or "basis pair" in o for o in outcomes)
    assert any(o is not None for o in outcomes)


def test_sparse_involution_check_matches_the_dense_loop_on_the_rejected_files():
    g = catalog.BuiltTriple(catalog.builtin_entries()["group-compact"]).g
    for recipe in (_FLIP_H1, _NEG_TRANSPOSE_FIRST):
        inv = catalog._build_involution(g, recipe, "sigma")
        dense = _validation_outcome(dense_involution_validate, inv, g)
        assert _validation_outcome(_sparse_check, inv, g) == dense
    # the flip is rejected at (0, 1); the partial transpose is an automorphism
    flip = catalog._build_involution(g, _FLIP_H1, "theta")
    assert _validation_outcome(_sparse_check, flip, g) == (
        "involution is not an automorphism at basis pair (0,1)"
    )
    partial = catalog._build_involution(g, _NEG_TRANSPOSE_FIRST, "theta")
    assert _validation_outcome(_sparse_check, partial, g) is None
