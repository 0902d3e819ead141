"""Acceptance suite: every criterion runs at its stated (exact) tolerance
and prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`
to see the lines as they complete.
"""

import time
from fractions import Fraction

from helpers import adjoint_casimir_matrix, invariant_form_space, restricted_root_spaces
from lietriples.env2 import IdealReducer, bracket_with
from lietriples.liealg import g2_matrices, killing_form, so, su
from lietriples.parabolic import (
    cartan_split_of_l,
    is_spherical_triple,
    maximal_abelian_in_s,
    restricted_roots,
)
from lietriples.pairs import check_transitive_triple
from lietriples.ratlin import RatMatrix, signature, subspace_sum
from lietriples.spectra import lorentzian_spectrum_report

ENTRIES = ("group", "group-compact", "lorentzian-2", "lorentzian-3", "g2")

GOLDEN_COEFFICIENTS = {
    "group": (Fraction(2), Fraction(0), Fraction(0)),
    "group-compact": (Fraction(2), Fraction(-1), Fraction(0)),
    "lorentzian-2": (Fraction(2), Fraction(-1), Fraction(0)),
    "lorentzian-3": (Fraction(2), Fraction(-1), Fraction(0)),
    "g2": (Fraction(3), Fraction(-3, 2), Fraction(2)),
}

GOLDEN_SPHERICAL = {
    "group": False,
    "group-compact": True,
    "lorentzian-2": True,
    "lorentzian-3": True,
    "g2": False,
}


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{status} :: {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_golden_embedding_formulas(built_catalog):
    times = []
    for name in ENTRIES:
        bt = built_catalog[name]
        t0 = time.time()
        rep = bt.embedding_report()
        elapsed = time.time() - t0
        times.append(f"{name}={elapsed:.1f}s")
        coeffs = rep["coefficients"]
        assert coeffs is not None, name
        assert tuple(coeffs) == GOLDEN_COEFFICIENTS[name], (
            f"{name}: got {tuple(str(c) for c in coeffs)}"
        )
        assert rep["residual_zero"], name
        assert any(len(m) == 2 for m in bt.iota_of_casimir().terms), name  # of degree two
        assert elapsed < 60, f"{name} exceeded the 60 s budget"
    report(
        "criterion 1: casimir embed reproduces (2,0,0)/(2,-1,0)x3/(3,-3/2,2) "
        "with zero residual",
        True,
        ", ".join(times),
    )


def test_criterion_2_sphericity_classification(built_catalog):
    for name in ENTRIES:
        verdict, _ = is_spherical_triple(built_catalog[name].descriptor)
        assert verdict == GOLDEN_SPHERICAL[name], name
    report(
        "criterion 2: sphericity matches (group no, group-compact yes, "
        "lorentzian-2/3 yes, g2 no)",
        True,
    )


def test_criterion_3_transitive_triples(built_catalog):
    for name in ENTRIES:
        rep = check_transitive_triple(built_catalog[name].descriptor)
        assert rep.reductive and rep.transitive and rep.compact_intersection, name
        d = rep.dims
        assert d["l"] + d["h"] - d["l_cap_h"] == d["g"], name
        if name == "lorentzian-2":
            assert (d["l"], d["h"], d["l_cap_h"], d["g"]) == (9, 10, 4, 15)
    report(
        "criterion 3: all five entries are transitive triples with exact "
        "dimension identities",
        True,
    )


def test_criterion_4_spectrum_reproduction():
    rep2 = lorentzian_spectrum_report(2, 50)
    assert [v for _, v in rep2.discrete_positive] == [5, 12, 21, 32, 45]
    b1, b2, b3 = rep2.bands
    assert "unitary principal series" in b1.attribution
    assert "limits of discrete series" in b1.attribution
    assert "complementary series" in b2.attribution
    assert "ends of complementary series" in b2.attribution
    assert "non-integrable discrete series" in b2.attribution
    assert "integrable discrete series" in b3.attribution
    rep3 = lorentzian_spectrum_report(3, 100)
    assert [v for _, v in rep3.discrete_positive] == [7, 16, 27, 40, 55, 72, 91]
    report(
        "criterion 4: spectrum n=2/cutoff=50 and n=3/cutoff=100 match, with "
        "the three series attributions",
        True,
    )


def _catalog_algebras(built_catalog):
    out = {}
    for name in ENTRIES:
        bt = built_catalog[name]
        out[f"{name}:g"] = bt.g
        out[f"{name}:l"] = bt.l_alg
    return out


def test_criterion_5a_jacobi_and_ad_invariance(built_catalog):
    checks = 0
    for label, g in _catalog_algebras(built_catalog).items():
        g.check_jacobi()  # exhaustive over basis triples, raises on failure
        gram = killing_form(g)
        brackets = {}
        for i in range(g.dim):
            for j in range(g.dim):
                brackets[(i, j)] = g.bracket_basis_sparse(i, j)
        for i in range(g.dim):
            for j in range(g.dim):
                bij = brackets[(i, j)]
                for k in range(g.dim):
                    lhs = sum((c * gram[m, k] for m, c in bij.items()), Fraction(0))
                    rhs = sum(
                        (c * gram[j, m] for m, c in brackets[(i, k)].items()),
                        Fraction(0),
                    )
                    assert lhs + rhs == 0, (label, i, j, k)
                    checks += 1
    report(
        "criterion 5a: Jacobi and Killing ad-invariance, exhaustive over "
        "basis triples for every catalog algebra",
        True,
        f"{checks} ad-invariance triples",
    )


def test_criterion_5b_casimir_centrality(built_catalog):
    checks = 0
    seen = set()
    for name in ENTRIES:
        bt = built_catalog[name]
        for g, omega in (
            (bt.g, bt.omega_g),
            (bt.l_alg, dict(bt.generators)["omega_l"]),
        ):
            if id(g) in seen:
                continue
            seen.add(id(g))
            for i in range(g.dim):
                assert bracket_with(omega, i).is_zero(), (name, i)
                checks += 1
    report(
        "criterion 5b: Casimir centrality [Omega, X_i] = 0 exactly",
        True,
        f"{checks} basis brackets",
    )


def test_criterion_5c_h_invariance_of_images(built_catalog):
    checks = 0
    for name in ENTRIES:
        bt = built_catalog[name]
        image = bt.iota_of_casimir()
        reducer = IdealReducer(bt.l_alg, bt.l_cap_h)
        for x in bt.l_cap_h.vectors:
            assert reducer.reduce(bracket_with(image, x)).is_zero(), name
            checks += 1
    report(
        "criterion 5c: iota(Omega_G) is invariant under l cap h modulo the "
        "left ideal",
        True,
        f"{checks} basis elements",
    )


def test_criterion_5d_complement_independence(built_catalog):
    for name in ENTRIES:
        bt = built_catalog[name]
        base = bt.iota_of_casimir()
        for seed in range(5):
            assert bt.iota_of_casimir(complement_seed=seed) == base, (name, seed)
    report(
        "criterion 5d: iota_embed is identical across 5 seeded random "
        "complements for every entry",
        True,
    )


def test_criterion_5e_restricted_root_structure(built_catalog):
    for name in ENTRIES:
        bt = built_catalog[name]
        l_alg, _, k_l, s_l = cartan_split_of_l(bt.descriptor)
        a = maximal_abelian_in_s(l_alg, s_l)
        rrs = restricted_root_spaces(l_alg, a)
        total = rrs.zero_space
        for sp in rrs.root_spaces.values():
            total = subspace_sum(total, sp)
        assert total.dim == l_alg.dim, name
        for root in rrs.roots:
            neg = tuple(-x for x in root)
            assert neg in rrs.root_spaces, (name, root)
            assert rrs.root_spaces[neg].dim == rrs.root_spaces[root].dim, (name, root)
        # the library reads the same roots and dimensions off char_poly
        got = restricted_roots(l_alg, a)
        assert got.roots == rrs.roots, name
        assert got.multiplicities == tuple(rrs.root_spaces[r].dim for r in rrs.roots), name
    report(
        "criterion 5e: restricted root spaces fill l and pair with equal "
        "multiplicities",
        True,
    )


def test_criterion_5f_sphericity_order_invariance(built_catalog):
    for name in ENTRIES:
        bt = built_catalog[name]
        forward, _ = is_spherical_triple(bt.descriptor)
        backward, _ = is_spherical_triple(bt.descriptor, reverse=True)
        assert forward == backward == GOLDEN_SPHERICAL[name], name
    report(
        "criterion 5f: sphericity verdict unchanged under reversed greedy "
        "order",
        True,
    )


def test_criterion_6_oracles(built_catalog):
    # Killing form of so(p, q) equals (m - 2) tr(XY) entrywise
    for p, q in ((2, 4), (2, 6), (4, 3)):
        g = built_catalog[
            {"(2, 4)": "lorentzian-2", "(2, 6)": "lorentzian-3", "(4, 3)": "g2"}[
                str((p, q))
            ]
        ].g
        m = p + q
        gram = killing_form(g)
        for i in range(g.dim):
            for j in range(g.dim):
                assert gram[i, j] == (m - 2) * (g.matrices[i] @ g.matrices[j]).trace()
    # adjoint Casimir with Killing normalization is the identity
    for g in (su(2, 0), so(3, 0)):
        assert adjoint_casimir_matrix(g) == RatMatrix.identity(g.dim)
    # invariant form of the G2 seven-dimensional representation
    forms = invariant_form_space(g2_matrices()[0])
    assert len(forms) == 1
    assert signature(forms[0]) in ((4, 3, 0), (3, 4, 0))
    report(
        "criterion 6: so(m) Killing closed form, adjoint Casimir identity "
        "for su(2)/so(3), G2 form signature (4,3)",
        True,
    )
