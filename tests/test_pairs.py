import random

import pytest
from conftest import ENTRY_NAMES
from helpers import (
    ambient_signatures,
    cayley_conjugated_entry,
    congruence_signature,
    dense,
    dense_involution_validate,
    fraction_involution_validate,
    intersected_l_cap_h,
    intersected_l_cap_s_cap_q,
    involution_from_images,
    rebased_entry,
    restricted_theta_split,
    sparse,
    twisted_gram,
    unit,
)
from test_cli import _FLIP_H1, _NEG_TRANSPOSE_FIRST
import probes

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
    DescriptorError,
    Involution,
    TripleDescriptor,
    check_transitive_triple,
    conjugation_involution,
    eigenspace_split,
    negative_transpose_involution,
    swap_involution,
)
from lietriples.ratlin import (
    RatMatrix,
    SubspaceBasis,
    inverse,
    signature,
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
        w = dense(v, 6)
        assert w[:3] == [-x for x in w[3:]]


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


def _sl2_descriptor(vectors):
    """sl(2) with sigma = identity, so h = g and l cap h = l."""
    g = sl(2)
    return TripleDescriptor(
        g=g,
        sigma=Involution(RatMatrix.identity(3)),
        theta=negative_transpose_involution(g),
        l_frame=SubspaceBasis(3, map(sparse, vectors)).matrix(),
    )


def _group_descriptor(l):
    """sl(2) + sl(2) with h the diagonal."""
    g = direct_sum(sl(2), sl(2))
    return TripleDescriptor(
        g=g,
        sigma=swap_involution(g),
        theta=negative_transpose_involution(g),
        l_frame=l.matrix(),
    )


def test_an_empty_frame_has_the_empty_gram():
    d = _group_descriptor(SubspaceBasis.zero(6))
    assert (d.l_frame.rows, d.l_frame.cols) == (6, 0)
    assert d.frame_gram == RatMatrix.zeros(0, 0)
    assert d.triple_report.dims["l"] == 0 and not d.triple_report.transitive


_FIRST_FACTOR = [[int(k == i) for k in range(6)] for i in range(3)]

# name -> (descriptor, (i), (ii), (iii), Killing signature on l, on l cap h);
# sl(2) has the basis (H, E, F), B(H, H) = 8 and B(E, F) = 4
_REPORT_CASES = {
    "sl2-line-E": (lambda: _sl2_descriptor([[0, 1, 0]]), False, True, False, (0, 0, 1), (0, 0, 1)),
    "sl2-line-H": (lambda: _sl2_descriptor([[1, 0, 0]]), True, True, False, (1, 0, 0), (1, 0, 0)),
    "sl2-E-minus-F": (lambda: _sl2_descriptor([[0, 1, -1]]), True, True, True, (0, 1, 0), (0, 1, 0)),
    "sl2-zero": (lambda: _sl2_descriptor([]), True, True, True, (0, 0, 0), (0, 0, 0)),
    "sl2-full": (
        lambda: _sl2_descriptor([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        True, True, False, (2, 1, 0), (2, 1, 0),
    ),
    "sl2-squared-first-factor": (
        lambda: _group_descriptor(SubspaceBasis(6, map(sparse, _FIRST_FACTOR))),
        True, True, True, (2, 1, 0), (0, 0, 0),
    ),
    # l = g, so l cap h is the diagonal sl(2)
    "sl2-squared-full": (
        lambda: _group_descriptor(SubspaceBasis.full(6)),
        True, True, False, (4, 2, 0), (2, 1, 0),
    ),
}


@pytest.mark.parametrize("name", list(_REPORT_CASES))
def test_triple_report_decides_each_condition(name):
    build, reductive, transitive, compact, sig_l, sig_lh = _REPORT_CASES[name]
    report = build().triple_report
    assert (report.reductive, report.transitive, report.compact_intersection) == (
        reductive, transitive, compact,
    )
    assert (report.signature_on_l, report.signature_on_l_cap_h) == (sig_l, sig_lh)


def test_theta_that_moves_l_gives_no_cartan_split():
    # l = sl(2) + span{(0, E - 4F)}: a transitive triple, but -X^T leaves l
    tilted = _group_descriptor(
        SubspaceBasis(6, map(sparse, [*_FIRST_FACTOR, [0, 0, 0, 0, 1, -4]]))
    )
    with pytest.raises(DescriptorError) as err:
        tilted.cartan_split
    assert (err.value.field, str(err.value)) == (
        "theta", "theta does not preserve l; no Cartan split available",
    )
    assert tilted.triple_report.is_transitive_triple


@pytest.mark.parametrize("name", [*ENTRY_NAMES, "lorentzian-4"])
def test_subspaces_and_forms_of_l_match_the_ambient_routes(built_catalog, name):
    # each subspace of l is one kernel in the frame and each form on l reads
    # the frame's Gram; the routes through g and the theta-twisted Gram agree
    bt = built_catalog.get(name) or catalog.build(catalog._lorentzian_entry(4))
    d = bt.descriptor
    assert d.cartan_split == restricted_theta_split(d)
    assert d.l_cap_h_in_l == intersected_l_cap_h(d)
    assert bt.generator_subspace("omega_l_cap_s_cap_q") == intersected_l_cap_s_cap_q(d)
    report = d.triple_report
    assert (report.signature_on_l, report.signature_on_l_cap_h) == ambient_signatures(d)
    twisted = twisted_gram(d)
    for gen, sub, form in bt._normalized_subspaces:
        gram = d.frame_gram if gen == "omega_l" else twisted
        assert form == restrict_form(gram, sub), (name, gen)


@pytest.mark.parametrize("name", [*ENTRY_NAMES, "lorentzian-4", "lorentzian-5"])
def test_signatures_of_the_grams_the_verbs_read_match_the_congruence_oracle(
    built_catalog, name
):
    # the Killing Gram on g, k and s, the frame's Gram and its restrictions
    # to l cap h and to l cap s cap q
    if name in built_catalog:
        d = built_catalog[name].descriptor
    else:
        d = catalog.build(catalog._lorentzian_entry(int(name[-1]))).descriptor
    b, f = d.killing, d.frame_gram
    grams = [
        b,
        restrict_form(b, d.k),
        restrict_form(b, d.s),
        f,
        restrict_form(f, d.l_cap_h_in_l),
        restrict_form(f, d.in_l(theta=-1, sigma=-1)),
    ]
    for gram in grams:
        assert signature(gram) == congruence_signature(gram), name
    if name.startswith("lorentzian-"):
        # u(1, n) in so(2, 2n): a noncompact part of dimension 2n, and
        # l cap h = u(n) compact
        n = int(name[-1])
        report = d.triple_report
        assert report.signature_on_l == (2 * n, (n + 1) ** 2 - 2 * n, 0)
        assert report.signature_on_l_cap_h == (0, n * n, 0)


def test_triple_report_u12_in_so24(built_catalog):
    report = built_catalog["lorentzian-2"].descriptor.triple_report
    assert report.is_transitive_triple
    d = report.dims
    assert (d["g"], d["h"], d["l"], d["l_cap_h"]) == (15, 10, 9, 4)
    # u(1, 2): noncompact part 4, compact part u(1) + u(2); l cap h = u(2)
    assert report.signature_on_l == (4, 5, 0)
    assert report.signature_on_l_cap_h == (0, 4, 0)


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
        g=g,
        sigma=ident,
        theta=theta,
        l_frame=RatMatrix.from_columns(3, [[0, 1, 0]]),
        name="broken",
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


def _corruptions(inv, rng):
    """Seeded corruptions of an involution: two columns swapped and one
    column times 2, as they are (mostly no longer involutions) and as
    conjugations by that transposition and that scaling, which still square
    to the identity, so that the pair loop decides."""
    m = inv.matrix
    n = m.rows
    i, j = rng.sample(range(n), 2)
    swapped, scaled = m.columns(), m.columns()
    swapped[i], swapped[j] = swapped[j], swapped[i]
    scaled[i] = [2 * x for x in scaled[i]]
    p = RatMatrix.from_columns(n, [unit(n, {i: j, j: i}.get(k, k)) for k in range(n)])
    two = RatMatrix.diagonal([2 if k == i else 1 for k in range(n)])
    mats = [RatMatrix.from_columns(n, swapped), RatMatrix.from_columns(n, scaled)]
    return [Involution(x) for x in (*mats, p @ m @ p, two @ m @ inverse(two))]


# The inputs of test_metamorphic: a rebased frame leaves sigma and theta as
# shipped, so one seed per entry; Cayley conjugates give theta Fraction entries
_AUTOMORPHISM_CASES = [
    *((name, source, 1) for source in ("shipped", "rebased") for name in ENTRY_NAMES),
    *((name, "cayley", seed) for name in ("lorentzian-2", "g2") for seed in range(6)),
]


@pytest.mark.parametrize("name, source, seed", _AUTOMORPHISM_CASES)
def test_integer_automorphism_check_matches_the_fraction_loop(tmp_path, name, source, seed):
    """Involution.validate, in ints, gives the Fraction loop's verdict and
    first failing pair on sigma and theta of every shipped entry, of its
    rebased frame and, for lorentzian-2 and g2, of its Cayley conjugates
    (theta with Fraction entries), and on seeded corruptions of each."""
    entry = catalog.builtin_entries()[name]
    if source == "shipped":
        d = catalog.build(entry).descriptor
    else:
        rewrite = rebased_entry if source == "rebased" else cayley_conjugated_entry
        d = probes.built(probes.write(tmp_path, name, rewrite(entry, seed))).descriptor
    rng = random.Random(f"automorphism/{name}/{source}/{seed}")
    cases = [d.sigma, d.theta, *_corruptions(d.sigma, rng), *_corruptions(d.theta, rng)]
    outcomes = []
    for inv in cases:
        want = _validation_outcome(fraction_involution_validate, inv, d.g)
        assert _validation_outcome(_sparse_check, inv, d.g) == want
        outcomes.append(want)
    assert outcomes[:2] == [None, None]
    assert all(any(o and why in o for o in outcomes) for why in ("square", "basis pair")), outcomes
