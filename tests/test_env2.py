import gc
import random
import re
import sys
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from conftest import ENTRY_NAMES
import probes
from helpers import (
    basis_solver_split,
    dense,
    dense_greedy_complement,
    eager_seeded_candidates,
    echelon_split,
    involution_from_images,
    percall_transfer_split,
    random_quad2,
    sparse,
    structure_table,
    termwise_bracket_with,
    termwise_casimir,
    termwise_product_of_linear,
    termwise_reduce,
    termwise_reduce_split,
    unit,
)
from lietriples import catalog, env2, ratlin
from lietriples.env2 import (
    DegenerateForm,
    IdealReducer,
    NotInvariant,
    NotTransitive,
    Quad2,
    _reduce_split,
    _transfer_split,
    bracket_with,
    casimir,
    check_h_invariant,
    decompose_in_span,
    equals_mod_ideal,
    ideal_reducer,
    iota_embed,
    reduce_mod_left_ideal,
    symmetrized_casimir,
)
from lietriples.liealg import (
    LieAlgebra,
    direct_sum,
    from_matrix_basis,
    g2_split,
    killing_form,
    restrict_form,
    sl,
    so,
)
from lietriples.pairs import (
    DescriptorError,
    TripleDescriptor,
    negative_transpose_involution,
)
from lietriples.ratlin import RatMatrix, SubspaceBasis


def sl2_casimir():
    g = sl(2)
    return g, casimir(g, SubspaceBasis.full(3), killing_form(g))


def test_casimir_rank_one():
    g = from_matrix_basis([RatMatrix([[1, 0], [0, -1]])])
    omega = casimir(g, SubspaceBasis.full(1), RatMatrix([[5]]))
    assert omega == Quad2(g, {(0, 0): Fraction(1, 5)})


def test_casimir_sl2_golden():
    g, omega = sl2_casimir()
    # (1/8) H^2 + (1/4)(EF + FE), normal-ordered to (1/8) H^2 + (1/2) EF - (1/4) H
    expected = Quad2(g, {(0, 0): Fraction(1, 8), (1, 2): Fraction(1, 2), (0,): Fraction(-1, 4)})
    assert omega == expected


def test_casimir_degenerate_form():
    g = sl(2)
    line = SubspaceBasis(3, [{1: 1}])
    with pytest.raises(DegenerateForm):
        casimir(g, line, RatMatrix([[0]]))


def test_casimir_zero_subspace_is_zero():
    g = sl(2)
    assert casimir(g, SubspaceBasis.zero(3), RatMatrix([])).is_zero()


def test_casimir_basis_independence():
    g, omega = sl2_casimir()
    b = killing_form(g)
    scrambled = SubspaceBasis(3, [{0: 1, 1: 1}, {1: 2, 2: 1}, {0: 1, 2: 1}])
    assert scrambled.dim == 3
    gram = restrict_form(b, scrambled)
    assert casimir(g, scrambled, gram) == omega


def test_symmetrized_casimir_equal():
    g, omega = sl2_casimir()
    b = killing_form(g)
    assert symmetrized_casimir(g, SubspaceBasis.full(3), b) == omega
    g2 = g2_split()
    b2 = killing_form(g2)
    sub = SubspaceBasis(14, [{t: 1} for t in (0, 1, 2, 8)])
    gram = restrict_form(b2, sub)
    assert symmetrized_casimir(g2, sub, gram) == casimir(g2, sub, gram)


def test_floats_are_refused_by_quad2():
    g = sl(2)
    assert Quad2(g, {(0,): 1, (2,): Fraction(1, 3)}) == Quad2(g, {(0,): 1, (2,): "1/3"})
    for make in (
        lambda: Quad2(g, {(0,): 0.1}),
        lambda: Quad2(g, {(0, 1): 0.1}),
        lambda: Quad2(g, {(): 0.1}),
    ):
        with pytest.raises(TypeError, match="not an exact rational"):
            make()


def test_floats_are_refused_by_quad2_scale():
    with pytest.raises(TypeError, match="not an exact rational"):
        Quad2(sl(2), {(0,): 1}).scale(0.1)


@pytest.mark.parametrize(
    "key", [(99,), (2, 1), (0, 1, 2), (0.5,)], ids=["range", "order", "length", "type"]
)
def test_monomials_off_the_algebra_are_refused_by_quad2(key):
    """An index past the basis, a pair out of normal order, a word of length
    three and an index that is no int.  The first and the last were once
    accepted: bracket_with returned 0 on them, while the reduction and repr
    raised."""
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        Quad2(sl(2), {key: 1})


@pytest.mark.parametrize("x, key", [(99, "99"), ({7: 1}, "7")], ids=["index-99", "key-7"])
def test_indices_off_the_algebra_are_refused_by_bracket_with(x, key):
    """Once bracket_with(q, 99) and bracket_with(q, {7: 1}) on sl(2)
    returned 0, where Quad2 refuses the same index in a monomial."""
    with pytest.raises(ValueError, match=f"^{key} is not a basis index"):
        bracket_with(Quad2(sl(2), {(1,): 1}), x)


def test_bracket_with_casimir_is_central():
    g, omega = sl2_casimir()
    for i in range(3):
        assert bracket_with(omega, i).is_zero()


def test_bracket_with_abelian_square():
    g = from_matrix_basis([RatMatrix([[1, 0], [0, 0]]), RatMatrix([[0, 0], [0, 1]])])
    q = Quad2(g, {(0, 0): 1})
    assert bracket_with(q, 0).is_zero() and bracket_with(q, 1).is_zero()


def test_bracket_with_weight_zero_monomial():
    g = sl(2)
    ef = Quad2(g, {(1, 2): 1})
    assert bracket_with(ef, 0).is_zero()  # [EF, H] = 0


def test_bracket_with_degree_preserved():
    g = sl(2)
    e_sq = Quad2(g, {(1, 1): 1})
    # [E^2, F] = E H + H E = 2 HE + [E, H] = 2 HE - 2 E
    out = bracket_with(e_sq, 2)
    assert out == Quad2(g, {(0, 1): 2, (1,): -2})


def test_reduce_golden_sl2_mod_e():
    g, omega = sl2_casimir()
    h = SubspaceBasis(3, [{1: 1}])  # span{E}
    reduced = reduce_mod_left_ideal(omega, h)
    assert reduced == Quad2(g, {(0, 0): Fraction(1, 8), (0,): Fraction(1, 4)})


def test_reduce_untouched_without_h_factors():
    g = sl(2)
    h = SubspaceBasis(3, [{1: 1}])
    q = Quad2(g, {(0, 0): 3, (2,): 1, (): 7})  # H^2, F, const
    assert reduce_mod_left_ideal(q, h) == q


def test_reduce_kills_products_ending_in_h():
    g = sl(2)
    h = SubspaceBasis(3, [{1: 1}])
    fe = termwise_product_of_linear(g, unit(3, 2), unit(3, 1))  # F * E
    assert reduce_mod_left_ideal(fe, h).is_zero()


def test_reduce_requires_subalgebra():
    g = sl(2)
    bad = SubspaceBasis(3, [{1: 1}, {2: 1}])  # span{E, F}, not closed
    with pytest.raises(ValueError):
        reduce_mod_left_ideal(Quad2.zero(g), bad)


def test_ideal_reducer_runs_no_elimination(built_catalog, monkeypatch):
    """The reduction reads h off its echelon form; it never eliminates."""
    cases = [(bt.g, bt.descriptor.h, bt.omega_g) for bt in built_catalog.values()]
    called = []
    for name in ("_rref", "_bareiss_rank", "inverse", "rank"):
        original = getattr(ratlin, name)

        def recorded(*args, _name=name, _original=original, **kwargs):
            called.append(_name)
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "lietriples" and (
                getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, recorded)
    for g, h, omega_g in cases:
        assert not IdealReducer(g, h).reduce(omega_g).is_zero()
    assert called == []


def test_equals_mod_ideal():
    g = sl(2)
    h = SubspaceBasis(3, [{1: 1}])
    a = Quad2(g, {(0, 0): 1})
    assert equals_mod_ideal(a, a, h)
    he = termwise_product_of_linear(g, unit(3, 0), unit(3, 1))  # H * E, in the ideal
    assert equals_mod_ideal(a + he, a, h)
    assert not equals_mod_ideal(a, a.scale(2), h)


def test_decompose_trivial_and_failure():
    g, omega = sl2_casimir()
    h = SubspaceBasis.zero(3)
    coeffs = decompose_in_span(omega, [omega, Quad2.zero(g)], h)
    assert coeffs == [Fraction(1), Fraction(0)]
    target = Quad2(g, {(1, 1): 1})  # E^2 is not a multiple of omega
    assert decompose_in_span(target, [omega], h) is None


def group_triple():
    g = direct_sum(sl(2), sl(2))
    from lietriples.pairs import swap_involution

    sigma = swap_involution(g)
    theta = negative_transpose_involution(g)
    cols = [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]
    frame = RatMatrix.from_columns(6, cols)
    return TripleDescriptor(g=g, sigma=sigma, theta=theta, l_frame=frame, name="t")


def test_iota_group_case_is_twice_omega_l():
    t = group_triple()
    g = t.g
    omega_g = casimir(g, SubspaceBasis.full(6), killing_form(g))
    image = iota_embed(t, omega_g)
    # Omega_L over l in its own coordinates, normalized by B_g restricted
    frame = t.l_frame
    gram = frame.transpose() @ killing_form(g) @ frame
    omega_l = casimir(image.algebra, SubspaceBasis.full(3), gram)
    assert image == omega_l.scale(2)


def test_iota_complement_seeds_agree_group():
    t = group_triple()
    g = t.g
    omega_g = casimir(g, SubspaceBasis.full(6), killing_form(g))
    base = iota_embed(t, omega_g)
    for seed in range(5):
        assert iota_embed(t, omega_g, complement_seed=seed) == base


def test_iota_not_transitive():
    t = group_triple()
    small = TripleDescriptor(
        g=t.g,
        sigma=t.sigma,
        theta=t.theta,
        l_frame=RatMatrix.from_columns(6, [[1, 0, 0, 0, 0, 0]]),
        name="small",
    )
    omega_g = casimir(t.g, SubspaceBasis.full(6), killing_form(t.g))
    with pytest.raises(NotTransitive):
        iota_embed(small, omega_g)


def torus_triple(g):
    """sigma fixing the torus only: h = span{H}; l is all of sl(2)."""
    sigma = involution_from_images(g, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    theta = negative_transpose_involution(g)
    return TripleDescriptor(
        g=g, sigma=sigma, theta=theta, l_frame=RatMatrix.identity(3), name="torus"
    )


def test_iota_not_invariant():
    # q = E is not H-invariant
    g = sl(2)
    t = torus_triple(g)
    t.validate()
    assert not check_h_invariant(Quad2(g, {(1,): 1}), t.h)
    with pytest.raises(NotInvariant):
        iota_embed(t, Quad2(g, {(1,): 1}))


def test_h_invariance_of_casimir():
    t = group_triple()
    omega_g = casimir(t.g, SubspaceBasis.full(6), killing_form(t.g))
    assert check_h_invariant(omega_g, t.h)


# -- normal ordering round trip ----------------------------------------------


def eval_terms(g, terms):
    """terms: list of (coeff, factors) with factors a list of 0..2 indices."""
    total = Quad2.zero(g)
    for coeff, factors in terms:
        if len(factors) == 0:
            total = total + Quad2(g, {(): coeff})
        elif len(factors) == 1:
            total = total + Quad2(g, {(factors[0],): coeff})
        else:
            i, j = factors
            total = total + termwise_product_of_linear(g, unit(g.dim, i), unit(g.dim, j)).scale(coeff)
    return total


def swap_rewrite(g, terms, rng):
    """Rewrite a random quadratic term X_i X_j as X_j X_i + [X_i, X_j]."""
    out = []
    quad_positions = [k for k, (_, f) in enumerate(terms) if len(f) == 2]
    if not quad_positions:
        return list(terms)
    pos = rng.choice(quad_positions)
    for k, (coeff, factors) in enumerate(terms):
        if k != pos:
            out.append((coeff, list(factors)))
            continue
        i, j = factors
        out.append((coeff, [j, i]))
        for t, c in g.bracket_basis_sparse(i, j).items():
            out.append((coeff * c, [t]))
    return out


@pytest.mark.parametrize("algebra_maker", [sl, lambda n=None: so(2, 2), g2_split])
def test_normal_order_round_trip(algebra_maker):
    g = algebra_maker(2) if algebra_maker is sl else algebra_maker()
    rng = random.Random(9000 + g.dim)
    rounds = 40
    for _ in range(rounds):
        terms = []
        for _ in range(rng.randint(1, 5)):
            kind = rng.randint(0, 2)
            coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if kind == 0:
                terms.append((coeff, []))
            elif kind == 1:
                terms.append((coeff, [rng.randrange(g.dim)]))
            else:
                terms.append((coeff, [rng.randrange(g.dim), rng.randrange(g.dim)]))
        value = eval_terms(g, terms)
        rewritten = terms
        for _ in range(rng.randint(1, 4)):
            rewritten = swap_rewrite(g, rewritten, rng)
        assert eval_terms(g, rewritten) == value


def test_iota_is_unital():
    t = group_triple()
    five = Quad2(t.g, {(): 5})
    image = iota_embed(t, five)
    assert image.terms == {(): 5}


# -- the transfer's split -------------------------------------------------


def test_transfer_split_not_transitive():
    t = group_triple()
    line = SubspaceBasis(6, [{0: 1}])
    h_vecs = [dense(v, 6) for v in t.h.vectors]
    assert dense_greedy_complement(6, [dense(v, 6) for v in line.vectors], h_vecs) is None
    small = TripleDescriptor(
        g=t.g, sigma=t.sigma, theta=t.theta, l_frame=line.matrix(), name="small"
    )
    omega_g = casimir(t.g, SubspaceBasis.full(6), killing_form(t.g))
    for seed in (None, 3):
        with pytest.raises(NotTransitive, match="l \\+ h does not fill g"):
            _transfer_split(small, seed)
        with pytest.raises(NotTransitive):
            iota_embed(small, omega_g, complement_seed=seed)


# -- work the descriptor owns ------------------------------------------------


def test_quad2_hash_agrees_with_equality():
    g, omega = sl2_casimir()
    g_again, omega_again = sl2_casimir()  # a second algebra with the same labels
    equal_pairs = [
        (omega, omega_again),
        (omega, symmetrized_casimir(g, SubspaceBasis.full(3), killing_form(g))),
        (Quad2(g, {(0, 0): Fraction(2, 4), (1,): 0}), Quad2(g, {(0, 0): "1/2"})),
        (Quad2(g, {(0,): 1, (2,): 3}), Quad2(g, {(2,): 3, (0,): 1})),
        (Quad2(g, {(): 2}), Quad2.zero(g) + Quad2(g, {(): Fraction(4, 2)})),
        (omega - omega, Quad2.zero(g_again)),
    ]
    for a, b in equal_pairs:
        assert a == b and hash(a) == hash(b)
    assert len({omega, omega_again, omega.scale(2)}) == 2


def test_memoized_invariance_still_rejects_a_non_invariant_element():
    """The (g, h) reducer keeps one verdict per value, by its terms."""
    g, omega = sl2_casimir()
    t = torus_triple(g)
    iota_embed(t, omega)
    verdicts = ideal_reducer(g, t.h)._h_invariant
    assert verdicts == {frozenset(omega.terms.items()): True}
    e = Quad2(g, {(1,): 1})
    for seed in (None, 4):
        with pytest.raises(NotInvariant):
            iota_embed(t, e, complement_seed=seed)
    assert verdicts == {frozenset(omega.terms.items()): True, frozenset(e.terms.items()): False}
    # an equal value built anew reads the memo; it is still invariant
    assert iota_embed(t, Quad2(g, dict(omega.terms))) == iota_embed(t, omega)
    assert len(verdicts) == 2
    # so does a multiple over a twin of g, on the (g, h) reducer
    assert iota_embed(t, sl2_casimir()[1].scale(3)) == iota_embed(t, omega).scale(3)


def counted_reducers(monkeypatch) -> list:
    """(id(algebra), h) of each IdealReducer built from now on."""
    built, init = [], IdealReducer.__init__

    def counted_init(self, algebra, h):
        built.append((id(algebra), h))
        init(self, algebra, h)

    monkeypatch.setattr(IdealReducer, "__init__", counted_init)
    return built


def test_a_transfer_over_a_twin_builds_no_reducer(monkeypatch):
    """An element over a twin of g (same labels and table, another object)
    is asked about on the (g, h) reducer, not on a (twin, h) one."""
    g, omega = sl2_casimir()
    t = torus_triple(g)
    expected = iota_embed(t, omega).scale(3)
    reducers = counted_reducers(monkeypatch)
    twin, twin_omega = sl2_casimir()
    assert twin is not g and iota_embed(t, twin_omega.scale(3)) == expected
    assert reducers == [] and twin._reducers == {}


def test_a_second_invariance_check_hashes_no_fraction(built_catalog, monkeypatch):
    """The reducer lookup reads h's hash and the memo lookup the element's
    key, both computed once: asking again about omega_g hashes no Fraction."""
    built = built_catalog["lorentzian-2"]
    omega, h = built.omega_g, built.descriptor.h
    assert check_h_invariant(omega, h)
    hashes, original = [], Fraction.__hash__

    def counted_hash(self):
        hashes.append(self)
        return original(self)

    monkeypatch.setattr(Fraction, "__hash__", counted_hash)
    assert hash(Fraction(1, 3)) == original(Fraction(1, 3)) and len(hashes) == 1
    hashes.clear()
    assert check_h_invariant(omega, h)
    assert hashes == []


def test_transfers_check_invariance_and_build_the_reducer_once(monkeypatch):
    built = catalog.BuiltTriple(catalog.builtin_entries()["lorentzian-2"])
    built.validate()
    d = built.descriptor
    calls = {"is_subalgebra": 0, "h_invariant": 0, "_is_invariant": 0}
    for owner, name in ((env2, "is_subalgebra"), (IdealReducer, "h_invariant"),
                        (IdealReducer, "_is_invariant")):

        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    reducers = counted_reducers(monkeypatch)
    for seed in (None, 1, 2, 3):
        built.iota_of_casimir(complement_seed=seed)
    # a lookup on the (g, h) reducer per transfer and one invariance
    # computation, for the one value omega_g; two reducers, kept on g and
    # l_alg: on a validated descriptor h and l cap h are subalgebras, so
    # neither is checked
    assert calls == {"is_subalgebra": 0, "h_invariant": 4, "_is_invariant": 1}
    assert reducers == [(id(d.g), d.h), (id(d.l_alg), d.l_cap_h_in_l)]
    # later transfers, of omega_g or an equal value built anew, compute none
    calls.update(dict.fromkeys(calls, 0))
    built.iota_of_casimir(complement_seed=4)
    iota_embed(d, Quad2(d.g, dict(built.omega_g.terms)))
    assert calls == {"is_subalgebra": 0, "h_invariant": 2, "_is_invariant": 0}
    assert len(reducers) == 2


def test_transfer_validates_the_descriptor_first():
    """The transfer keeps its reducers unchecked only because validate()
    has shown sigma to be an automorphism; a sigma that is not one is
    refused before any reducer is kept."""
    t = group_triple()
    # swaps E_1 and F_1: an involution, but no automorphism, since it fixes
    # H_1 = [E_1, F_1] while [F_1, E_1] = -H_1
    bad = TripleDescriptor(
        g=t.g,
        sigma=involution_from_images(t.g, [unit(6, i) for i in (0, 2, 1, 3, 4, 5)]),
        theta=t.theta,
        l_frame=RatMatrix.identity(6),
        name="bad",
    )
    omega_g = casimir(t.g, SubspaceBasis.full(6), killing_form(t.g))
    with pytest.raises(DescriptorError) as exc:
        iota_embed(bad, omega_g)
    assert exc.value.field == "sigma"
    assert t.g._reducers == {}


def combination_of(gens, coeffs, algebra):
    combo = Quad2.zero(algebra)
    for c, gen in zip(coeffs, gens):
        combo = combo + gen.scale(c)
    return combo


def test_built_triple_is_freed_without_the_cycle_collector():
    """The reducers the algebras keep, and their memos, form no reference
    cycle: from a clean start with the collector off, dropping a used triple
    frees it and leaves the collector nothing to find."""
    entry = catalog.builtin_entries()["lorentzian-2"]
    gc.collect()
    gc.disable()
    try:
        built = catalog.BuiltTriple(entry)
        d = built.descriptor
        image = built.iota_of_casimir(complement_seed=7)
        built.embedding_report()
        gens = [q for _, q in built.generators]
        coeffs = decompose_in_span(image, gens, built.l_cap_h)
        assert equals_mod_ideal(image, combination_of(gens, coeffs, built.l_alg), built.l_cap_h)
        assert check_h_invariant(image, built.l_cap_h)
        assert d.h in d.g._reducers and d.l_cap_h_in_l in d.l_alg._reducers
        assert "transfer_split" in vars(d)
        assert d.g._reducers[d.h]._h_invariant
        ref = weakref.ref(d)
        del built, d, image, gens, coeffs
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["lorentzian-2", "g2"])
def test_decompositions_build_each_reducer_once_and_reduce_each_generator_once(
    monkeypatch, name
):
    """Ten seeded transfers, each decomposed and compared modulo the ideal,
    on a fresh validated build: one reducer per (algebra, h), for (g, h) and
    for (l_alg, l cap h), no subalgebra check, and one reduction per
    generator."""
    built = catalog.BuiltTriple(catalog.builtin_entries()[name])
    built.validate()
    d = built.descriptor
    gens = [q for _, q in built.generators]
    checked, reduced = [], Counter()
    is_subalgebra, reduce = env2.is_subalgebra, IdealReducer.reduce

    def counted_check(algebra, h):
        checked.append((id(algebra), h))
        return is_subalgebra(algebra, h)

    def counted_reduce(self, q):
        reduced[id(q)] += 1  # the generators stay alive, so their ids are theirs
        return reduce(self, q)

    monkeypatch.setattr(env2, "is_subalgebra", counted_check)
    monkeypatch.setattr(IdealReducer, "reduce", counted_reduce)
    reducers = counted_reducers(monkeypatch)
    for seed in range(200, 210):
        image = built.iota_of_casimir(complement_seed=seed)
        coeffs = decompose_in_span(image, gens, built.l_cap_h)
        combo = combination_of(gens, coeffs, built.l_alg)
        assert equals_mod_ideal(image, combo, built.l_cap_h), seed
    assert checked == []
    assert reducers == [(id(d.g), d.h), (id(d.l_alg), d.l_cap_h_in_l)]
    assert [reduced[id(q)] for q in gens] == [1] * len(gens)


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_memoized_coordinates_and_comparisons_match_the_termwise_reduction(
    built_catalog, name
):
    """On 10 seeded elements per (algebra, h): the memoized coordinates are
    those of termwise_reduce, read again by value, and equals_mod_ideal(a,
    b) is termwise_reduce(a - b).is_zero(), on pairs equal modulo the ideal,
    pairs that are not, and pairs over two algebra objects with one set of
    labels."""
    d = built_catalog[name].descriptor
    rng = random.Random(f"coordinates/{name}")
    for algebra, h in ((d.g, d.h), (d.l_alg, d.l_cap_h_in_l)):
        reducer = ideal_reducer(algebra, h)
        twin = LieAlgebra(algebra.basis_labels, structure_table(algebra))
        for _ in range(10):
            a, b = random_quad2(algebra, rng), random_quad2(algebra, rng)
            coordinates = reducer.coordinates(a)
            assert coordinates == termwise_reduce(a, h).terms
            assert reducer.coordinates(Quad2(algebra, a.terms)) is coordinates
            pairs = [(a, b), (b, a), (a, a.scale(2))]
            if h.dim:
                x = {i: rng.randint(-2, 2) for i in range(algebra.dim)}
                # a + x y with y in h: equal to a modulo U(g) h
                y = dense(rng.choice(h.vectors), algebra.dim)
                equal = a + termwise_product_of_linear(algebra, dense(x, algebra.dim), y)
                pairs += [(a, equal), (equal, a)]
                assert equals_mod_ideal(a, equal, h)
            pairs += [(Quad2(twin, u.terms), v) for u, v in pairs]
            for u, v in pairs:
                assert equals_mod_ideal(u, v, h) == termwise_reduce(u - v, h).is_zero()
            assert not equals_mod_ideal(a, b, h)


def test_reducer_rejects_an_element_of_another_algebra(built_catalog):
    """The (g, h) reducer of lorentzian-2 (dim 15) once reduced omega_l over
    l_alg (dim 9) into a Quad2 over so(2,4)'s labels, with no error."""
    bt = built_catalog["lorentzian-2"]
    d = bt.descriptor
    omega_l = dict(bt.generators)["omega_l"]
    for reducer in (IdealReducer(d.g, d.h), ideal_reducer(d.g, d.h)):
        for read in (reducer.reduce, reducer.coordinates):
            with pytest.raises(ValueError, match="not over the reducer's algebra"):
                read(omega_l)


def test_algebras_with_one_set_of_labels_and_two_tables_do_not_mix():
    """sl(2) and so(3) on their matrices are both labelled X0..X2, with two
    different tables: their elements differ, and no sum, comparison,
    decomposition or reduction takes one for the other, not even after the
    same terms over the first were memoized."""
    a, b = from_matrix_basis(sl(2).matrices), from_matrix_basis(so(3, 0).matrices)
    assert a.basis_labels == b.basis_labels == ("X0", "X1", "X2")
    assert a.int_table != b.int_table
    qa, qb = Quad2(a, {(0, 1): 1}), Quad2(b, {(0, 1): 1})
    assert qa != qb and qb != qa
    assert qa == Quad2(from_matrix_basis(sl(2).matrices), {(0, 1): 1})
    h = SubspaceBasis(3, [{0: 1}])
    reducer = ideal_reducer(a, h)
    assert reducer.coordinates(qa) == reduce_mod_left_ideal(qa, h).terms
    assert check_h_invariant(qa, h) == reducer.h_invariant(qa)
    mixes = [
        lambda: qa + qb,
        lambda: qb + qa,
        lambda: qa - qb,
        lambda: equals_mod_ideal(qa, qb, h),
        lambda: equals_mod_ideal(qb, qa, h),
        lambda: decompose_in_span(qa, [qb], h),
        lambda: decompose_in_span(qb, [qa], h),
    ]
    for mix in mixes:
        with pytest.raises(ValueError):
            mix()
    for read in (reducer.reduce, reducer.coordinates, reducer.h_invariant):
        with pytest.raises(ValueError, match="not over the reducer's algebra"):
            read(qb)


def test_transfer_refuses_the_ambient_labels_over_another_table(built_catalog):
    """Omega_G's terms over an abelian algebra on so(2,4)'s labels compare
    unequal to Omega_G and are refused by the transfer, before and after
    Omega_G's verdict is memoized."""
    bt = built_catalog["lorentzian-2"]
    t, omega_g = bt.descriptor, bt.omega_g
    abelian = Quad2(LieAlgebra(t.g.basis_labels, {}), omega_g.terms)
    assert abelian != omega_g
    for _ in range(2):
        for seed in (None, 1):
            with pytest.raises(ValueError, match="not an element over the ambient algebra"):
                iota_embed(t, abelian, complement_seed=seed)
        iota_embed(t, omega_g)


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_seeded_transfers_pin_the_canonical_image(built_catalog, name):
    bt = built_catalog[name]
    base = bt.iota_of_casimir()
    for seed in range(100, 110):
        assert bt.iota_of_casimir(complement_seed=seed) == base, seed


# -- the bilinear split against the termwise one ----------------------------


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_casimir_and_bracket_match_the_termwise_products(built_catalog, name):
    bt = built_catalog[name]
    g, gram = bt.g, bt.descriptor.killing
    full = SubspaceBasis.full(g.dim)
    assert casimir(g, full, gram) == termwise_casimir(g, full, gram)
    rng = random.Random(f"bracket/{name}")
    for _ in range(5):
        q = random_quad2(g, rng)
        x = [rng.randint(-2, 2) for _ in range(g.dim)]
        assert bracket_with(q, sparse(x)) == termwise_bracket_with(q, x)
        i = rng.randrange(g.dim)
        assert bracket_with(q, i) == termwise_bracket_with(q, i)


def family_or_shipped(built_catalog, name):
    """A shipped entry from the session's catalog, or a family triple of
    probes.FAMILY (lorentzian-4, su-3), built and validated."""
    if name in built_catalog:
        return built_catalog[name]
    family, n = name.rsplit("-", 1)
    bt = catalog.BuiltTriple(catalog.entry_from_json_dict(probes.family_entry(family, int(n))))
    bt.validate()
    return bt


@pytest.mark.parametrize("name", [*ENTRY_NAMES, "lorentzian-4", "su-3"])
def test_the_int_invariance_check_and_bracket_with_match_the_termwise_oracle(
    built_catalog, name
):
    """The verdict on a fresh reducer, computed in ints, equals the termwise
    reduction of the termwise [q, y] over the basis of h: true on omega_g,
    and on seeded elements whatever it is.  A non-invariant element is
    refused on every transfer, the verdict memoized or not.  bracket_with
    equals the termwise bracket with x an index, a Fraction vector, and the
    same vector as "p/q" strings."""
    bt = family_or_shipped(built_catalog, name)
    d = bt.descriptor
    g, h = d.g, d.h
    rng = random.Random(f"invariance/{name}")
    elements = [bt.omega_g, *(random_quad2(g, rng) for _ in range(3))]

    def oracle(q):
        return all(termwise_reduce(termwise_bracket_with(q, dense(y, g.dim)), h).is_zero()
                   for y in h.vectors)

    verdicts = [IdealReducer(g, h).h_invariant(q) for q in elements]
    assert verdicts == [oracle(q) for q in elements]
    assert verdicts[0] is True and False in verdicts
    for q, verdict in zip(elements, verdicts):
        if not verdict:
            for seed in (None, 5, None, 6):
                with pytest.raises(NotInvariant):
                    iota_embed(d, q, complement_seed=seed)
    for q in elements[:2]:
        i = rng.randrange(g.dim)
        assert bracket_with(q, i) == termwise_bracket_with(q, i)
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(g.dim)]
        expected = termwise_bracket_with(q, x)
        assert bracket_with(q, sparse(x)) == expected
        assert bracket_with(q, {k: str(c) for k, c in sparse(x).items()}) == expected


def test_bracket_with_brackets_each_index_of_q_once(built_catalog, monkeypatch):
    """One _table_bracket per distinct index of q, not one per occurrence
    of an index in q's monomials."""
    seen = []
    original = env2._table_bracket

    def counted(table, v, w):
        seen.append(v)
        return original(table, v, w)

    monkeypatch.setattr(env2, "_table_bracket", counted)
    rng = random.Random("bracket-once")
    for name in ENTRY_NAMES:
        bt = built_catalog[name]
        for q in (bt.omega_g, random_quad2(bt.g, rng)):
            indices = {i for m in q.terms for i in m}
            assert sum(map(len, q.terms)) > len(indices), name  # an index recurs
            for x in (rng.randrange(bt.g.dim), {0: 1, bt.g.dim - 1: Fraction(-1, 2)}):
                seen.clear()
                bracket_with(q, x)
                assert sorted(seen, key=list) == [{i: 1} for i in sorted(indices)], name


def assert_canonical(q: Quad2, terms: dict) -> None:
    """q, built unchecked, equals the checked Quad2(q.algebra, terms) term
    for term, hashes alike and holds nonzero Fractions only."""
    checked = Quad2(q.algebra, terms)
    assert q.terms == checked.terms and q == checked and hash(q) == hash(checked)
    assert all(type(c) is Fraction and c != 0 for c in q.terms.values())


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_unchecked_quad2_results_stay_canonical(built_catalog, name):
    """Sums (with terms that cancel), differences, multiples and _over of
    int rows holding zeros build their Quad2 unchecked; each is canonical."""
    bt = built_catalog[name]
    rng = random.Random(f"canonical/{name}")
    for alg in (bt.g, bt.l_alg):
        a, b = random_quad2(alg, rng), random_quad2(alg, rng)
        partly_cancelling = a.scale(-1) + b
        for x, y in ((a, b), (a, partly_cancelling), (b, a.scale(-1)), (a, a)):
            keys = {*x.terms, *y.terms}
            assert_canonical(x + y, {m: x.terms.get(m, 0) + y.terms.get(m, 0) for m in keys})
            assert_canonical(x - y, {m: x.terms.get(m, 0) - y.terms.get(m, 0) for m in keys})
        for c in (0, 1, -1, Fraction(-3, 2)):
            assert_canonical(a.scale(c), {m: c * v for m, v in a.terms.items()})
        assert a - a == Quad2.zero(alg) and (a - a).terms == {} and hash(a - a) == hash(Quad2.zero(alg))
        assert a.scale(0).is_zero()
        n = alg.dim
        quad = {i: {j: rng.randint(-1, 1) for j in range(i, n, 3)} for i in range(0, n, 2)}
        lin = {k: rng.randint(-2, 2) for k in range(n)}
        d_quad, d_lin = rng.randint(1, 6), rng.randint(1, 6)
        for const in (0, Fraction(-5, 3)):
            expected = {(i, j): Fraction(c, d_quad) for i, row in quad.items() for j, c in row.items()}
            expected.update({(k,): Fraction(c, d_lin) for k, c in lin.items()})
            expected[()] = const
            assert_canonical(env2._over(alg, quad, d_quad, lin, d_lin, const), expected)
        for out in (bracket_with(a, rng.randrange(n)), reduce_mod_left_ideal(a, SubspaceBasis.zero(n))):
            assert_canonical(out, out.terms)


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_ideal_reduction_matches_the_termwise_split(built_catalog, name):
    bt = built_catalog[name]
    d = bt.descriptor
    rng = random.Random(f"reduce/{name}")
    for algebra, h, reducer in (
        (d.g, d.h, IdealReducer(d.g, d.h)),
        (d.l_alg, d.l_cap_h_in_l, ideal_reducer(d.l_alg, d.l_cap_h_in_l)),
    ):
        for _ in range(10):
            q = random_quad2(algebra, rng)
            assert reducer.reduce(q) == termwise_reduce(q, h)
    assert IdealReducer(d.g, d.h).reduce(bt.omega_g) == termwise_reduce(bt.omega_g, d.h)


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_transfer_split_splits_every_basis_vector_along_l_and_h(built_catalog, name):
    """frame f_k + eta_k = e_k with eta_k in h, for the canonical split and
    20 seeded ones, each given in ints over its denominators d_f and d_e."""
    d = built_catalog[name].descriptor
    n = d.g.dim
    frame_cols = [list(col) for col in d.l_frame.columns()]
    for seed in [None, *range(20)]:
        front, d_f, eta, d_e = _transfer_split(d, seed)
        assert all(type(x) is int for v in [*front, *eta] for x in v.values()), seed
        for k in range(n):
            total = [Fraction(0)] * n
            for a, x in front[k].items():
                for i, y in enumerate(frame_cols[a]):
                    total[i] += Fraction(x, d_f) * y
            for i, x in eta[k].items():
                total[i] += Fraction(x, d_e)
            assert total == [Fraction(int(i == k)) for i in range(n)], (seed, k)
            assert d.h.contains(eta[k]), (seed, k)


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_transfer_split_reduces_like_the_complement_split(built_catalog, name):
    """Modulo U(l)(l cap h), the bilinear reduction over the section split
    equals the termwise one over the BasisSolver split that a complement w
    of l inside h defines, the complement drawn with the same seed."""
    bt = built_catalog[name]
    d = bt.descriptor
    frame_cols = [list(col) for col in d.l_frame.columns()]
    reduce = ideal_reducer(d.l_alg, d.l_cap_h_in_l).reduce
    rng = random.Random(f"transfer/{name}")
    for seed in [None, *range(20)]:
        split = _transfer_split(d, seed)
        h_vecs = [dense(v, d.g.dim) for v in d.h.vectors]
        candidates = h_vecs if seed is None else eager_seeded_candidates(d.h, seed)
        w_vecs = dense_greedy_complement(d.g.dim, frame_cols, candidates)
        old = basis_solver_split(d.g, frame_cols, w_vecs)
        # the ambient Casimir on a few splits, seeded elements on all
        elements = [random_quad2(d.g, rng)]
        if seed is None or seed < 3:
            elements.append(bt.omega_g)
        for q in elements:
            new_image = reduce(_reduce_split(q, d.l_alg, split))
            assert new_image == reduce(termwise_reduce_split(q, d.l_alg, *old)), seed


# the first transfer on each entry: the vectors of its one BasisSolver,
# dim g - dim h, and its coordinates calls, dim g
FIRST_TRANSFER_SOLVES = {
    "group": (3, 6),
    "group-compact": (3, 6),
    "lorentzian-2": (5, 15),
    "lorentzian-3": (7, 28),
    "g2": (10, 21),
}


def test_transfer_split_solves_once_per_descriptor(monkeypatch):
    """On a fresh descriptor the first transfer builds one BasisSolver, on
    dim g - dim h vectors, and asks it for the coordinates of each of the
    dim g classes pi(e_k); every later transfer, canonical or seeded,
    builds and solves nothing."""
    calls = {"solvers": 0, "coordinates": 0, "inverse": 0, "solve": 0}
    sizes = []
    original_init = ratlin.BasisSolver.__init__

    def counted_init(self, basis):
        calls["solvers"] += 1
        sizes.append(len(basis))
        original_init(self, basis)

    original_coordinates = ratlin.BasisSolver.coordinates

    def counted_coordinates(self, vec):
        calls["coordinates"] += 1
        return original_coordinates(self, vec)

    monkeypatch.setattr(ratlin.BasisSolver, "__init__", counted_init)
    monkeypatch.setattr(ratlin.BasisSolver, "coordinates", counted_coordinates)
    for fn_name in ("inverse", "solve"):
        original = getattr(ratlin, fn_name)

        def counted(*args, _original=original, _name=fn_name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "lietriples" and (
                getattr(module, fn_name, None) is original
            ):
                monkeypatch.setattr(module, fn_name, counted)
    for index, name in enumerate(ENTRY_NAMES):
        bt = catalog.BuiltTriple(catalog.builtin_entries()[name])
        d = bt.descriptor
        # built before the count: Omega_g inverts the Killing form, and l_alg
        # solves its structure constants
        omega_g = bt.omega_g
        d.l_alg
        assert "transfer_split" not in vars(d), name
        calls.update(dict.fromkeys(calls, 0))
        first_seed = None if index % 2 else 11  # the first transfer seeded or not
        first = iota_embed(d, omega_g, complement_seed=first_seed)
        solved = {"solvers": 1, "coordinates": d.g.dim, "inverse": 0, "solve": 0}
        assert calls == solved, name
        assert sizes[-1] == d.g.dim - d.h.dim, name
        assert (sizes[-1], calls["coordinates"]) == FIRST_TRANSFER_SOLVES[name]
        for seed in (None, 11, 1, 2, None):
            assert iota_embed(d, omega_g, complement_seed=seed) == first, (name, seed)
            _transfer_split(d, seed)
        assert calls == solved, name


@pytest.mark.parametrize("name", [*ENTRY_NAMES, "lorentzian-4"])
def test_transfer_split_equals_the_percall_split(name):
    """The canonical split and the seeded shifts of seeds 1-20 equal the
    split rebuilt per call, entry for entry; after seeded transfers and an
    embedding report the descriptor's split is still the canonical one."""
    if name == "lorentzian-4":
        entry = catalog._lorentzian_entry(4)
    else:
        entry = catalog.builtin_entries()[name]
    bt = catalog.BuiltTriple(entry)
    d = bt.descriptor
    for seed in [None, *range(1, 21)]:
        front, d_f, eta, d_e = _transfer_split(d, seed)
        expected_front, expected_eta = percall_transfer_split(d, seed)
        assert as_fractions(front, d_f) == expected_front, seed
        assert as_fractions(eta, d_e) == expected_eta, seed
    for seed in range(1, 21):
        bt.iota_of_casimir(complement_seed=seed)
    bt.embedding_report()
    front, basis, d_f, eta, images, d_e = d.transfer_split
    assert (as_fractions(front, d_f), as_fractions(eta, d_e)) == percall_transfer_split(d)
    assert as_fractions(basis, d_f) == list(d.l_cap_h_in_l.vectors)
    assert as_fractions(images, d_e) == [
        ratlin.combination(u, d.frame_vectors) for u in d.l_cap_h_in_l.vectors
    ]


def as_fractions(vectors, d):
    """Int vectors divided by their denominator d, as Fraction vectors."""
    return [{i: Fraction(x, d) for i, x in v.items()} for v in vectors]


# -- the integer tables of _reduce_split against the Fraction terms --------


def dense_split(split, front_dim, n):
    """An int split (front, d_f, eta, d_e) in the dense Fraction form
    termwise_reduce_split reads, with to_front the front map y -> sum_k y_k
    f_k."""
    front, d_f, eta, d_e = split
    front, eta = as_fractions(front, d_f), as_fractions(eta, d_e)

    def to_front(y):
        return dense(ratlin.combination(sparse(y), front), front_dim)

    return [dense(f, front_dim) for f in front], [dense(e, n) if e else None for e in eta], to_front


def coefficients(q):
    return list(q.terms.values())


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_integer_tables_match_the_termwise_split_on_seeded_transfers(built_catalog, name):
    """On the transfer splits of seeds 1-10, the reduction modulo U(l)(l cap
    h) of the integer-table split equals that of the termwise one; the two
    differ before it by the front parts of [eta_i, eta_j], in l cap h."""
    bt = built_catalog[name]
    d = bt.descriptor
    rng = random.Random(f"integer-tables/{name}")
    for seed in range(1, 11):
        split = _transfer_split(d, seed)
        old = dense_split(split, d.l_alg.dim, d.g.dim)
        for q in (bt.omega_g, random_quad2(d.g, rng)):
            new = _reduce_split(q, d.l_alg, split)
            assert all(type(c) is Fraction for c in coefficients(new)), seed
            expected = termwise_reduce(termwise_reduce_split(q, d.l_alg, *old), d.l_cap_h_in_l)
            assert termwise_reduce(new, d.l_cap_h_in_l) == expected, seed


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_integer_tables_with_large_coprime_denominators(built_catalog, name):
    """Coefficients over 10^12 + 39 and 997 and an empty quad: on the echelon
    split of h the integer tables equal the termwise split exactly; on a
    split whose f_k are moved by seeded elements of h with those
    denominators, brought over one denominator d_f = d_e, both equal q
    modulo U(g) h."""
    d = built_catalog[name].descriptor
    g, h = d.g, d.h
    big, small = 10**12 + 39, 997
    rng = random.Random(f"coprime/{name}")

    def over(c):
        return c / rng.choice([big, small, big * small])

    elements = []
    for _ in range(3):
        q = random_quad2(g, rng)
        elements.append(Quad2(g, {m: c if len(m) == 1 else over(c) for m, c in q.terms.items()}))
    elements.append(Quad2(g, {(0,): Fraction(1, big), (g.dim - 1,): Fraction(2, small), (): 3}))
    split = env2._echelon_split(h)
    front, d_f, eta, d_e = split
    front, eta = as_fractions(front, d_f), as_fractions(eta, d_e)
    moved = []
    for k in range(g.dim):
        u = {}
        if rng.random() < 0.5:
            c = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([big, small]))
            u = {i: c * x for i, x in rng.choice(h.vectors).items()}
        moved.append(ratlin.combination({0: 1, 1: 1}, [front[k], u]))
        moved.append(ratlin.combination({0: 1, 1: -1}, [eta[k], u]))
    moved, d = ratlin.over_one_denominator(dict(enumerate(moved)))
    moved = list(moved.values())
    moved_split = (moved[0::2], d, moved[1::2], d)
    assert d % big == 0 and d % small == 0
    old = echelon_split(g, h)
    moved_old = dense_split(moved_split, g.dim, g.dim)
    for q in elements:
        new = _reduce_split(q, g, split)
        assert all(type(c) is Fraction for c in coefficients(new))
        assert new == termwise_reduce_split(q, g, *old)
        moved = _reduce_split(q, g, moved_split)
        assert all(type(c) is Fraction for c in coefficients(moved))
        expected = termwise_reduce(termwise_reduce_split(q, g, *moved_old), h)
        assert termwise_reduce(moved, h) == expected == termwise_reduce(q, h)
