"""Cross-checks of the enveloping-algebra machinery against an independent
word-rewriting implementation (tests/helpers.py).

The oracle inverts the change of basis to a basis adapted to h, substitutes
it into every word and normal-orders by adjacent swaps.  The library never
changes basis: it splits each basis vector into a front part and a part in
h and applies the degree-two splitting identity.  The two routes share the
exact linear algebra layer and the bracket tables, nothing else.
"""

import random
from fractions import Fraction

import pytest
from conftest import ENTRY_NAMES
from helpers import naive_reduce, naive_transfer
from lietriples.env2 import Quad2, reduce_mod_left_ideal
from lietriples.liealg import sl, so
from lietriples.pairs import conjugation_involution, eigenspace_split
from lietriples.ratlin import RatMatrix


def quad2_to_words(q):
    return [(c, m) for m, c in q.terms.items()]


def test_naive_reduce_agrees_on_random_elements_sl2():
    from lietriples.ratlin import SubspaceBasis

    g = sl(2)
    h = SubspaceBasis(3, [{1: 1}])  # span{E}
    rng = random.Random(777)
    for _ in range(60):
        quad = {}
        for _ in range(rng.randint(0, 4)):
            i, j = sorted((rng.randrange(3), rng.randrange(3)))
            quad[(i, j)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        lin = {(rng.randrange(3),): Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 2))}
        q = Quad2(g, {**quad, **lin, (): Fraction(rng.randint(-2, 2))})
        reduced = reduce_mod_left_ideal(q, h)
        assert naive_reduce(g, quad2_to_words(q), h) == reduced.terms


def test_naive_reduce_agrees_on_random_elements_so24():
    g = so(2, 4)
    sigma = conjugation_involution(g, RatMatrix.diagonal([-1, 1, 1, 1, 1, 1]))
    h, _ = eigenspace_split(g, sigma)  # the so(1,4) block, a subalgebra
    rng = random.Random(778)
    for _ in range(25):
        quad = {}
        for _ in range(rng.randint(0, 5)):
            i, j = sorted((rng.randrange(15), rng.randrange(15)))
            quad[(i, j)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        lin = {(rng.randrange(15),): Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))}
        q = Quad2(g, {**quad, **lin, (): Fraction(rng.randint(-2, 2))})
        reduced = reduce_mod_left_ideal(q, h)
        assert naive_reduce(g, quad2_to_words(q), h) == reduced.terms


def random_quad2(algebra, rng):
    n = algebra.dim
    quad = {}
    for _ in range(rng.randint(0, 5)):
        i, j = sorted((rng.randrange(n), rng.randrange(n)))
        quad[(i, j)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    lin = {(rng.randrange(n),): Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))}
    return Quad2(algebra, {**quad, **lin, (): Fraction(rng.randint(-2, 2))})


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_naive_reduce_agrees_on_random_elements_of_l(built_catalog, name):
    bt = built_catalog[name]
    rng = random.Random(f"reduce/{name}")
    for _ in range(15):
        q = random_quad2(bt.l_alg, rng)
        reduced = reduce_mod_left_ideal(q, bt.l_cap_h)
        assert naive_reduce(bt.l_alg, quad2_to_words(q), bt.l_cap_h) == reduced.terms


def test_naive_transfer_matches_iota_for_all_entries(built_catalog):
    for name, bt in built_catalog.items():
        terms = naive_transfer(bt)
        for seed in (None, 1, 2, 3):
            assert terms == bt.iota_of_casimir(complement_seed=seed).terms, (name, seed)
