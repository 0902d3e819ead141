import gc
import random
import sys
import weakref
from fractions import Fraction

import pytest
from conftest import ENTRY_NAMES
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
    termwise_bracket_with,
    termwise_casimir,
    termwise_reduce,
    termwise_reduce_split,
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
    iota_embed,
    product_of_linear,
    reduce_mod_left_ideal,
    symmetrized_casimir,
)
from lietriples.liealg import (
    direct_sum,
    from_matrix_basis,
    g2_split,
    killing_form,
    restrict_form,
    sl,
    so,
)
from lietriples.pairs import (
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
    assert omega == Quad2(g, quad={(0, 0): Fraction(1, 5)})


def test_casimir_sl2_golden():
    g, omega = sl2_casimir()
    # (1/8) H^2 + (1/4)(EF + FE), normal-ordered to (1/8) H^2 + (1/2) EF - (1/4) H
    expected = Quad2(
        g,
        quad={(0, 0): Fraction(1, 8), (1, 2): Fraction(1, 2)},
        lin={0: Fraction(-1, 4)},
    )
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
    for make in (
        lambda: Quad2(g, lin={0: 0.1}),
        lambda: Quad2(g, quad={(0, 1): 0.1}),
        lambda: Quad2(g, const=0.1),
    ):
        with pytest.raises(TypeError, match="not an exact rational"):
            make()


def test_floats_are_refused_by_quad2_scale():
    with pytest.raises(TypeError, match="not an exact rational"):
        Quad2.basis_element(sl(2), 0).scale(0.1)


def test_floats_are_refused_by_quad2_linear():
    g = sl(2)
    assert Quad2.linear(g, {0: 1, 2: Fraction(1, 3)}) == Quad2(g, lin={0: 1, 2: "1/3"})
    with pytest.raises(TypeError, match="not an exact rational"):
        Quad2.linear(g, {0: 0.1})


def test_bracket_with_casimir_is_central():
    g, omega = sl2_casimir()
    for i in range(3):
        assert bracket_with(omega, i).is_zero()


def test_bracket_with_abelian_square():
    g = from_matrix_basis([RatMatrix([[1, 0], [0, 0]]), RatMatrix([[0, 0], [0, 1]])])
    q = Quad2(g, quad={(0, 0): 1})
    assert bracket_with(q, 0).is_zero() and bracket_with(q, 1).is_zero()


def test_bracket_with_weight_zero_monomial():
    g = sl(2)
    ef = Quad2(g, quad={(1, 2): 1})
    assert bracket_with(ef, 0).is_zero()  # [EF, H] = 0


def test_bracket_with_degree_preserved():
    g = sl(2)
    e_sq = Quad2(g, quad={(1, 1): 1})
    # [E^2, F] = E H + H E = 2 HE + [E, H] = 2 HE - 2 E
    out = bracket_with(e_sq, 2)
    assert out == Quad2(g, quad={(0, 1): 2}, lin={1: -2})


def test_reduce_golden_sl2_mod_e():
    g, omega = sl2_casimir()
    h = SubspaceBasis(3, [{1: 1}])  # span{E}
    reduced = reduce_mod_left_ideal(omega, h)
    assert reduced == Quad2(
        g, quad={(0, 0): Fraction(1, 8)}, lin={0: Fraction(1, 4)}
    )


def test_reduce_untouched_without_h_factors():
    g = sl(2)
    h = SubspaceBasis(3, [{1: 1}])
    q = Quad2(g, quad={(0, 0): 3}, lin={2: 1}, const=7)  # H^2, F, const
    assert reduce_mod_left_ideal(q, h) == q


def test_reduce_kills_products_ending_in_h():
    g = sl(2)
    h = SubspaceBasis(3, [{1: 1}])
    fe = product_of_linear(g, {2: 1}, {1: 1})  # F * E
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
    a = Quad2(g, quad={(0, 0): 1})
    assert equals_mod_ideal(a, a, h)
    he = product_of_linear(g, {0: 1}, {1: 1})  # H * E, in the ideal
    assert equals_mod_ideal(a + he, a, h)
    assert not equals_mod_ideal(a, a.scale(2), h)


def test_decompose_trivial_and_failure():
    g, omega = sl2_casimir()
    h = SubspaceBasis.zero(3)
    coeffs = decompose_in_span(omega, [omega, Quad2.zero(g)], h)
    assert coeffs == [Fraction(1), Fraction(0)]
    target = Quad2(g, quad={(1, 1): 1})  # E^2 is not a multiple of omega
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
    assert not check_h_invariant(Quad2.basis_element(g, 1), t.h)
    with pytest.raises(NotInvariant):
        iota_embed(t, Quad2.basis_element(g, 1))


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
            total = total + Quad2(g, const=coeff)
        elif len(factors) == 1:
            total = total + Quad2.basis_element(g, factors[0]).scale(coeff)
        else:
            i, j = factors
            total = total + product_of_linear(g, {i: 1}, {j: 1}).scale(coeff)
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
    five = Quad2(t.g, const=5)
    image = iota_embed(t, five)
    assert image.quad == {} and image.lin == {} and image.const == 5


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
        (Quad2(g, quad={(0, 0): Fraction(2, 4)}, lin={1: 0}), Quad2(g, quad={(0, 0): "1/2"})),
        (Quad2(g, lin={0: 1, 2: 3}), Quad2(g, lin={2: 3, 0: 1})),
        (Quad2(g, const=2), Quad2.zero(g) + Quad2(g, const=Fraction(4, 2))),
        (omega - omega, Quad2.zero(g_again)),
    ]
    for a, b in equal_pairs:
        assert a == b and hash(a) == hash(b)
    assert len({omega, omega_again, omega.scale(2)}) == 2


def test_memoized_invariance_still_rejects_a_non_invariant_element():
    g, omega = sl2_casimir()
    t = torus_triple(g)
    iota_embed(t, omega)
    assert t.h_invariance == {omega: True}
    e = Quad2.basis_element(g, 1)
    for seed in (None, 4):
        with pytest.raises(NotInvariant):
            iota_embed(t, e, complement_seed=seed)
    assert t.h_invariance == {omega: True, e: False}
    # an equal value built anew reads the memo; it is still invariant
    assert iota_embed(t, sl2_casimir()[1].scale(3)) == iota_embed(t, omega).scale(3)


def test_transfers_check_invariance_and_build_the_reducer_once(monkeypatch):
    built = catalog.BuiltTriple(catalog.builtin_entries()["lorentzian-2"])
    calls = {"is_subalgebra": 0, "check_h_invariant": 0}
    for name in calls:

        def counted(*args, _name=name, _original=getattr(env2, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(env2, name, counted)
    for seed in (None, 1, 2, 3):
        built.iota_of_casimir(complement_seed=seed)
    # one verdict on omega_g, and two reducers: modulo U(g) h inside that
    # check, modulo U(l)(l cap h) on the descriptor
    assert calls == {"is_subalgebra": 2, "check_h_invariant": 1}


def test_built_triple_is_freed_without_the_cycle_collector():
    entry = catalog.builtin_entries()["lorentzian-2"]
    gc.disable()
    try:
        built = catalog.BuiltTriple(entry)
        built.iota_of_casimir(complement_seed=7)
        built.embedding_report()
        assert "l_cap_h_reducer" in vars(built.descriptor)
        assert "transfer_split" in vars(built.descriptor)
        assert built.descriptor.h_invariance
        ref = weakref.ref(built.descriptor)
        del built
        assert ref() is None
    finally:
        gc.enable()


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


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_ideal_reduction_matches_the_termwise_split(built_catalog, name):
    bt = built_catalog[name]
    d = bt.descriptor
    rng = random.Random(f"reduce/{name}")
    for algebra, h, reducer in (
        (d.g, d.h, IdealReducer(d.g, d.h)),
        (d.l_alg, d.l_cap_h_in_l, d.l_cap_h_reducer),
    ):
        for _ in range(10):
            q = random_quad2(algebra, rng)
            assert reducer.reduce(q) == termwise_reduce(q, h)
    assert IdealReducer(d.g, d.h).reduce(bt.omega_g) == termwise_reduce(bt.omega_g, d.h)


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_transfer_split_splits_every_basis_vector_along_l_and_h(built_catalog, name):
    """frame f_k + eta_k = e_k with eta_k in h, for the canonical split and
    20 seeded ones."""
    d = built_catalog[name].descriptor
    n = d.g.dim
    frame_cols = [list(col) for col in d.l_frame.columns()]
    for seed in [None, *range(20)]:
        front, eta = _transfer_split(d, seed)
        for k in range(n):
            total = [Fraction(0)] * n
            for a, x in front[k].items():
                for i, y in enumerate(frame_cols[a]):
                    total[i] += x * y
            for i, x in eta[k].items():
                total[i] += x
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
    reduce = d.l_cap_h_reducer.reduce
    rng = random.Random(f"transfer/{name}")
    for seed in [None, *range(20)]:
        front, eta = _transfer_split(d, seed)
        h_vecs = [dense(v, d.g.dim) for v in d.h.vectors]
        candidates = h_vecs if seed is None else eager_seeded_candidates(d.h, seed)
        w_vecs = dense_greedy_complement(d.g.dim, frame_cols, candidates)
        old = basis_solver_split(d.g, frame_cols, w_vecs)
        # the ambient Casimir on a few splits, seeded elements on all
        elements = [random_quad2(d.g, rng)]
        if seed is None or seed < 3:
            elements.append(bt.omega_g)
        for q in elements:
            new_image = reduce(_reduce_split(q, d.l_alg, front, eta))
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
        front, eta = _transfer_split(d, seed)
        expected_front, expected_eta = percall_transfer_split(d, seed)
        assert front == expected_front, seed
        assert eta == expected_eta, seed
    for seed in range(1, 21):
        bt.iota_of_casimir(complement_seed=seed)
    bt.embedding_report()
    front, eta, images = d.transfer_split
    assert (front, eta) == percall_transfer_split(d)
    assert images == [ratlin.combination(u, d.frame_vectors) for u in d.l_cap_h_in_l.vectors]


# -- the integer tables of _reduce_split against the Fraction terms --------


def dense_split(front, eta, front_dim, n):
    """A sparse split (front, eta) in the dense form termwise_reduce_split
    reads, with to_front the front map y -> sum_k y_k f_k."""

    def to_front(y):
        return dense(ratlin.combination(sparse(y), front), front_dim)

    return [dense(f, front_dim) for f in front], [dense(e, n) if e else None for e in eta], to_front


def coefficients(q):
    return [*q.quad.values(), *q.lin.values(), q.const]


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_integer_tables_match_the_termwise_split_on_seeded_transfers(built_catalog, name):
    """On the transfer splits of seeds 1-10, the reduction modulo U(l)(l cap
    h) of the integer-table split equals that of the termwise one; the two
    differ before it by the front parts of [eta_i, eta_j], in l cap h."""
    bt = built_catalog[name]
    d = bt.descriptor
    rng = random.Random(f"integer-tables/{name}")
    for seed in range(1, 11):
        front, eta = _transfer_split(d, seed)
        old = dense_split(front, eta, d.l_alg.dim, d.g.dim)
        for q in (bt.omega_g, random_quad2(d.g, rng)):
            new = _reduce_split(q, d.l_alg, front, eta)
            assert all(type(c) is Fraction for c in coefficients(new)), seed
            expected = termwise_reduce(termwise_reduce_split(q, d.l_alg, *old), d.l_cap_h_in_l)
            assert termwise_reduce(new, d.l_cap_h_in_l) == expected, seed


def integral_as_int(vec):
    """vec with each integral entry an int, like the 1 that _transfer_split
    adds to eta_k at k."""
    return {i: int(x) if x.denominator == 1 else x for i, x in vec.items()}


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_integer_tables_with_large_coprime_denominators(built_catalog, name):
    """Coefficients over 10^12 + 39 and 997, an empty quad and int entries in
    front and eta: on the echelon split of h the integer tables equal the
    termwise split exactly; on a split whose f_k are moved by seeded
    elements of h with those denominators, both equal q modulo U(g) h."""
    d = built_catalog[name].descriptor
    g, h = d.g, d.h
    big, small = 10**12 + 39, 997
    rng = random.Random(f"coprime/{name}")

    def over(c):
        return c / rng.choice([big, small, big * small])

    elements = []
    for _ in range(3):
        q = random_quad2(g, rng)
        elements.append(Quad2(g, {k: over(c) for k, c in q.quad.items()}, q.lin, over(q.const)))
    elements.append(Quad2(g, lin={0: Fraction(1, big), g.dim - 1: Fraction(2, small)}, const=3))
    front, eta = env2._echelon_split(h)
    front, eta = [integral_as_int(f) for f in front], [integral_as_int(e) for e in eta]
    moved_front, moved_eta = [], []
    for k in range(g.dim):
        u = {}
        if rng.random() < 0.5:
            c = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([big, small]))
            u = {i: c * x for i, x in rng.choice(h.vectors).items()}
        moved_front.append(integral_as_int(ratlin.combination({0: 1, 1: 1}, [front[k], u])))
        moved_eta.append(integral_as_int(ratlin.combination({0: 1, 1: -1}, [eta[k], u])))
    assert any(type(x) is int for e in eta for x in e.values())
    old = echelon_split(g, h)
    moved_old = dense_split(moved_front, moved_eta, g.dim, g.dim)
    for q in elements:
        new = _reduce_split(q, g, front, eta)
        assert all(type(c) is Fraction for c in coefficients(new))
        assert new == termwise_reduce_split(q, g, *old)
        moved = _reduce_split(q, g, moved_front, moved_eta)
        assert all(type(c) is Fraction for c in coefficients(moved))
        expected = termwise_reduce(termwise_reduce_split(q, g, *moved_old), h)
        assert termwise_reduce(moved, h) == expected == termwise_reduce(q, h)
