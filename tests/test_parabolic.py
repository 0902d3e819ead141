import itertools
import random
from fractions import Fraction

import pytest

from lietriples import catalog, liealg, ratlin
from lietriples.liealg import is_subalgebra, sl, su
from lietriples.parabolic import (
    IrrationalSpectrum,
    cartan_split_of_l,
    is_spherical_triple,
    joint_eigenspaces,
    maximal_abelian_in_s,
    minimal_parabolic,
    restricted_roots,
)
from lietriples.ratlin import (
    RatMatrix,
    SubspaceBasis,
    _integer_roots,
    char_poly,
    inverse,
    rational_eigenspaces,
    subspace_sum,
)

from conftest import ENTRY_NAMES
from helpers import (
    ad_matrix_centralizer,
    chained_minimal_parabolic,
    dense_eigenspace,
    intersected_l_cap_s_cap_q,
    ratmatrix_char_poly,
    restricting_joint_eigenspaces,
    scanned_rational_eigenvalues,
    sparse,
)


def rational_eigenvalues(a):
    return [lam for lam, _ in rational_eigenspaces(a)]


def rational_char_poly(a):
    """The coefficients of det(x I - A), from those of det(x I - dA)."""
    c, d = char_poly(a)
    return [Fraction(ck, d ** (a.rows - k)) for k, ck in enumerate(c)]


def test_char_poly_diag():
    m = RatMatrix.diagonal([2, 3])
    # (x - 2)(x - 3) = x^2 - 5x + 6
    assert char_poly(m) == ([6, -5, 1], 1)
    # det(x I - 6 diag(1/2, -1/3)) = (x - 3)(x + 2) = x^2 - x - 6
    assert char_poly(RatMatrix.diagonal([Fraction(1, 2), Fraction(-1, 3)])) == ([-6, -1, 1], 6)


def _det(rows):
    """Leibniz expansion: independent of every elimination in the library."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _random_rational_matrix(rng, n):
    return RatMatrix(
        [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    )


def test_char_poly_makes_no_matrix_products(monkeypatch):
    rng = random.Random("char-poly")
    n = 6
    a = _random_rational_matrix(rng, n)
    products = []
    matmul = RatMatrix.__matmul__

    def counting(self, other):
        products.append(1)
        return matmul(self, other)

    monkeypatch.setattr(RatMatrix, "__matmul__", counting)
    c, _ = char_poly(a)
    assert products == []
    assert all(type(ck) is int for ck in c)
    coeffs = rational_char_poly(a)
    # two polynomials of degree n that agree at n + 1 points are equal
    for x in range(n + 1):
        shifted = [[int(i == j) * x - a[i, j] for j in range(n)] for i in range(n)]
        assert sum(c * x**k for k, c in enumerate(coeffs)) == _det(shifted)


def test_char_poly_matches_ratmatrix_oracle():
    rng = random.Random("char-poly-oracle")
    for n in (1, 1, 2, 3, 4, 5, 7):
        a = _random_rational_matrix(rng, n)
        c, d = char_poly(a)
        assert rational_char_poly(a) == ratmatrix_char_poly(a), n
        assert all(type(ck) is int for ck in c) and type(d) is int
    for entries in ([[Fraction(-5, 6)]], [[0]], [[0, 0], [0, 0]]):
        a = RatMatrix(entries)
        assert rational_char_poly(a) == ratmatrix_char_poly(a)


def test_rational_eigenvalues_with_fractions():
    m = RatMatrix([[Fraction(1, 2), 0], [0, -3]])
    assert rational_eigenvalues(m) == [Fraction(-3), Fraction(1, 2)]


def test_rational_eigenvalues_skips_irrational():
    m = RatMatrix([[0, 2], [1, 0]])  # eigenvalues +-sqrt(2)
    assert rational_eigenvalues(m) == []


def test_rational_eigenvalues_match_scanned_oracle():
    # small entries keep the Gershgorin radius small enough to scan; a
    # triangular matrix with repeated diagonal entries, conjugated by an
    # elementary matrix, has rational and repeated eigenvalues
    rng = random.Random("budan")
    for _ in range(120):
        n = rng.randint(1, 5)
        a = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            diag = [rng.choice([-2, -1, 0, 1, Fraction(3, 2)]) for _ in range(n)]
            a = [[diag[i] if i == j else (a[i][j] if j > i else 0) for j in range(n)] for i in range(n)]
            if n > 1:
                i, j = rng.sample(range(n), 2)
                e = RatMatrix([[int(r == c) + int((r, c) == (i, j)) for c in range(n)] for r in range(n)])
                a = (e @ RatMatrix(a) @ inverse(e)).entries
        m = RatMatrix(a)
        assert rational_eigenvalues(m) == scanned_rational_eigenvalues(m), a


def test_rational_eigenvalues_isolate_roots_far_out():
    # a scan up to the Gershgorin radius would try 10^15 candidates
    m = RatMatrix.diagonal([10**15, -(10**15), 0, 3])
    assert rational_eigenvalues(m) == [-(10**15), 0, 3, 10**15]
    # 10^12 +- i: sign changes survive to width-one intervals, no root found
    assert rational_eigenvalues(RatMatrix([[10**12, -1], [1, 10**12]])) == []


def test_rational_eigenvalues_non_integer_far_out():
    # rational eigenvalues come back through the lcm of the denominators;
    # far out they must still be told apart from their neighbours
    big = 10**12
    m = RatMatrix.diagonal([big + Fraction(1, 3), Fraction(-big, 7), Fraction(5, 2), big + Fraction(1, 3)])
    assert rational_eigenvalues(m) == [Fraction(-big, 7), Fraction(5, 2), big + Fraction(1, 3)]
    # adjacent integers next to a pair of complex roots at big + 2 +- i
    m = RatMatrix(
        [
            [big, 0, 0, 0],
            [0, big + 1, 0, 0],
            [0, 0, big + 2, -1],
            [0, 0, 1, big + 2],
        ]
    )
    assert rational_eigenvalues(m) == [big, big + 1]


def _assert_rational_eigenspaces(a, eigenvalues):
    """rational_eigenspaces(a) holds these eigenvalues, strictly increasing,
    each with a nonzero space equal to the dense_rref kernel of A - lam I."""
    spaces = rational_eigenspaces(a)
    assert [lam for lam, _ in spaces] == eigenvalues
    assert all(x < y for x, y in zip(eigenvalues, eigenvalues[1:]))
    for lam, sub in spaces:
        assert sub.dim > 0 and sub == dense_eigenspace(a, lam), lam
    return spaces


def test_rational_eigenspaces_of_the_empty_matrix():
    assert rational_eigenspaces(RatMatrix.zeros(0, 0)) == []
    assert rational_eigenspaces(RatMatrix([])) == []


def test_rational_eigenspaces_of_a_nilpotent_jordan_block():
    a = RatMatrix([[int(j == i + 1) for j in range(3)] for i in range(3)])
    assert scanned_rational_eigenvalues(a) == [0]
    ((_, sub),) = _assert_rational_eigenspaces(a, [0])
    assert sub == SubspaceBasis(3, [{0: 1}])
    # one eigenvector for three dimensions: no rational diagonalization
    with pytest.raises(IrrationalSpectrum, match="covered 1 of 3"):
        joint_eigenspaces(3, [a])


def test_rational_eigenspaces_skip_the_irrational_factor():
    # the companion matrix of x (x^2 - 2): only 0 is rational
    a = RatMatrix([[0, 0, 0], [1, 0, 2], [0, 1, 0]])
    assert scanned_rational_eigenvalues(a) == [0]
    ((_, sub),) = _assert_rational_eigenspaces(a, [0])
    assert sub == SubspaceBasis(3, [{0: -2, 2: 1}])
    with pytest.raises(IrrationalSpectrum, match="covered 1 of 3"):
        joint_eigenspaces(3, [a])


def test_rational_eigenspaces_with_three_denominators():
    # P diag(1/2, -1/3, 5/6) P^-1, no entry of it zero: d = 6 scales every
    # eigenvalue to an integer root of c
    p = RatMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    values = [Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6)]
    a = p @ RatMatrix.diagonal(values) @ inverse(p)
    assert all(a[i, j] for i in range(3) for j in range(3) if i != j)
    assert scanned_rational_eigenvalues(a) == sorted(values)
    spaces = _assert_rational_eigenspaces(a, sorted(values))
    columns = dict(zip(values, p.columns()))
    assert all(sub == SubspaceBasis(3, [sparse(columns[lam])]) for lam, sub in spaces)


def test_rational_eigenspaces_above_two_to_the_64():
    # denominators 2^64 + 13 and 2^61 - 1, numerators near 2^70, a repeated
    # eigenvalue, conjugated by an integer matrix of determinant 1: d and
    # the entries of A both pass 2^64, so nothing fits a machine word
    q1, q2 = 2**64 + 13, 2**61 - 1
    big, small = Fraction(2**70 + 1, q1), Fraction(-(2**66), q2)
    p = RatMatrix([[1, 2, 0], [0, 1, 3], [0, -1, -2]])
    p_inv = inverse(p)
    assert all(x.denominator == 1 for row in p_inv.data for x in row.values())
    a = p @ RatMatrix.diagonal([big, small, big]) @ p_inv
    c, d = char_poly(a)
    assert d > 2**64 and max(abs(x.numerator) for row in a.data for x in row.values()) > 2**64
    assert c[0] == -(d**3) * big * big * small  # det(-dA)
    spaces = _assert_rational_eigenspaces(a, [small, big])
    cols = p.columns()
    assert dict(spaces) == {
        small: SubspaceBasis(3, [sparse(cols[1])]),
        big: SubspaceBasis(3, map(sparse, [cols[0], cols[2]])),
    }


@pytest.mark.parametrize(
    "roots,others",
    [
        ([1, 2, 3], []),
        ([-3, 1, 3], []),
        ([2, 2, -1], []),
        ([], [(-1, 2), (1, 2), (-3, 2)]),
        ([-5, 5], [(1, 0, 1)]),
    ],
)
def test_integer_roots_up_to_the_bound(roots, others):
    # coefficients lowest degree first; `others` are factors with no integer
    # root, written the same way; roots at exactly +-bound are found
    coeffs = [1]
    for factor in [(-r, 1) for r in roots] + others:
        out = [0] * (len(coeffs) + len(factor) - 1)
        for i, x in enumerate(coeffs):
            for j, y in enumerate(factor):
                out[i + j] += x * y
        coeffs = out
    bound = max([abs(r) for r in roots] + [5])
    assert sorted(_integer_roots(coeffs, bound)) == sorted(set(roots))


def test_joint_eigenspaces_irrational_raises():
    with pytest.raises(IrrationalSpectrum):
        joint_eigenspaces(2, [RatMatrix([[0, 2], [1, 0]])])


def test_joint_eigenspaces_commuting_diagonals():
    a = RatMatrix.diagonal([1, 1, 2])
    b = RatMatrix.diagonal([0, 5, 5])
    spaces = dict((tag, sp.dim) for tag, sp in joint_eigenspaces(3, [a, b]))
    assert spaces == {
        (Fraction(1), Fraction(0)): 1,
        (Fraction(1), Fraction(5)): 1,
        (Fraction(2), Fraction(5)): 1,
    }


def test_joint_eigenspaces_irrational_on_a_proper_subspace_raises():
    # diag(1, 1, 2) splits off span{e0, e1}, where the second operator has
    # eigenvalues +-sqrt(2); the two commute
    first = RatMatrix.diagonal([1, 1, 2])
    second = RatMatrix([[0, 2, 0], [1, 0, 0], [0, 0, 5]])
    with pytest.raises(IrrationalSpectrum):
        joint_eigenspaces(3, [first, second])
    with pytest.raises(IrrationalSpectrum):
        restricting_joint_eigenspaces(3, [first, second])


def _invertible_rational_matrix(rng, n):
    while True:
        p = RatMatrix(
            [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        )
        try:
            return p, inverse(p)
        except ValueError:
            continue


@pytest.mark.parametrize("seed", range(8))
def test_joint_eigenspaces_match_restricting_oracle(seed):
    # a commuting family P D_i P^-1 with repeated eigenvalues, some with
    # denominators; the joint eigenspaces are spans of columns of P
    rng = random.Random(f"joint-eigenspaces/{seed}")
    n = rng.randint(1, 5)
    p, p_inv = _invertible_rational_matrix(rng, n)
    values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2)]
    diagonals = [[rng.choice(values) for _ in range(n)] for _ in range(rng.randint(1, 3))]
    diagonals[0][-1] = diagonals[0][0]  # a repeated eigenvalue once n > 1
    operators = [p @ RatMatrix.diagonal(d) @ p_inv for d in diagonals]
    spaces = joint_eigenspaces(n, operators)
    assert spaces == restricting_joint_eigenspaces(n, operators)
    expected = {}
    for j, col in enumerate(p.columns()):
        expected.setdefault(tuple(d[j] for d in diagonals), []).append(col)
    assert dict(spaces) == {
        tag: SubspaceBasis(n, map(sparse, cols)) for tag, cols in expected.items()
    }
    assert all(type(x) is Fraction for _, sp in spaces for v in sp.vectors for x in v.values())


def _assert_eigenspaces_match_the_oracles(ambient_dim, operators):
    """joint_eigenspaces against the restricting oracle, and each
    eigenspace of each operator against the dense_rref kernel."""
    spaces = joint_eigenspaces(ambient_dim, operators)
    assert spaces == restricting_joint_eigenspaces(ambient_dim, operators)
    assert all(x and type(x) is Fraction for _, sp in spaces for v in sp.vectors for x in v.values())
    for op in operators:
        for lam, got in rational_eigenspaces(op):
            assert got == dense_eigenspace(op, lam), lam
            assert all(x and type(x) is Fraction for v in got.vectors for x in v.values())
    return spaces


@pytest.mark.parametrize("name", ["lorentzian-2", "lorentzian-3", "lorentzian-4", "lorentzian-5", "g2"])
def test_restricted_root_eigenspaces_match_the_oracles(name):
    if name == "g2":
        entry = catalog.builtin_entries()["g2"]
    else:
        entry = catalog._lorentzian_entry(int(name.rsplit("-", 1)[1]))
    l_alg, _, _, s_l = cartan_split_of_l(catalog.build(entry).descriptor)
    a = maximal_abelian_in_s(l_alg, s_l)
    spaces = _assert_eigenspaces_match_the_oracles(l_alg.dim, [l_alg.ad(v) for v in a.vectors])
    assert sum(sp.dim for _, sp in spaces) == l_alg.dim


@pytest.mark.parametrize("seed", range(8))
def test_eigenspaces_of_diagonalizable_integer_matrices_match_the_oracles(seed):
    # A = P D P^-1 with P a product of integer row operations (det 1), so A
    # and P^-1 are integer; the eigenspaces are spans of columns of P.  A / 6
    # commutes with A and has denominators, so the elimination of d (A / 6 -
    # lam I) scales lam as well
    rng = random.Random(f"integer-eigenspaces/{seed}")
    n = rng.randint(1, 6)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            k = rng.choice((-2, -1, 1, 2, 3))
            p[j] = [y + k * x for x, y in zip(p[i], p[j])]
    p = RatMatrix(p)
    diag = [rng.randint(-4, 4) for _ in range(n)]
    diag[-1] = diag[0]  # a repeated eigenvalue once n > 1
    a = p @ RatMatrix.diagonal(diag) @ inverse(p)
    assert all(x.denominator == 1 for row in a.data for x in row.values())
    spaces = _assert_eigenspaces_match_the_oracles(n, [a, a.scale(Fraction(1, 6))])
    expected = {}
    for j, col in enumerate(p.columns()):
        expected.setdefault((Fraction(diag[j]), Fraction(diag[j], 6)), []).append(col)
    assert dict(spaces) == {
        tag: SubspaceBasis(n, map(sparse, cols)) for tag, cols in expected.items()
    }


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_minimal_parabolic_matches_chained_oracle(built_catalog, name, reverse):
    l_alg, _, k_l, s_l = cartan_split_of_l(built_catalog[name].descriptor)
    parabolic, rrs = minimal_parabolic(l_alg, k_l, s_l, reverse=reverse)
    m, a, n, p, decomposition = chained_minimal_parabolic(l_alg, k_l, s_l, reverse=reverse)
    assert (parabolic.m, parabolic.a, parabolic.n, parabolic.p) == (m, a, n, p)
    nonzero = {tag: sp for tag, sp in decomposition.items() if any(tag)}
    assert rrs.roots == tuple(sorted(nonzero))
    assert rrs.root_spaces == nonzero
    zero_tag = tuple(Fraction(0) for _ in range(a.dim))
    assert rrs.zero_space == decomposition.get(zero_tag, SubspaceBasis.zero(l_alg.dim))


def sl2_split():
    g = sl(2)
    k = SubspaceBasis(3, [{1: 1, 2: -1}])
    s = SubspaceBasis(3, [{0: 1}, {1: 1, 2: 1}])
    return g, k, s


def test_maximal_abelian_sl2():
    g, k, s = sl2_split()
    a = maximal_abelian_in_s(g, s)
    assert a.dim == 1


def test_maximal_abelian_compact_case():
    # su(2): s = 0, the maximal abelian subspace is zero
    g = su(2, 0)
    a = maximal_abelian_in_s(g, SubspaceBasis.zero(3))
    assert a.dim == 0


def test_restricted_roots_abelian_algebra():
    from lietriples.liealg import from_matrix_basis

    g = from_matrix_basis(
        [RatMatrix([[1, 0], [0, 0]]), RatMatrix([[0, 0], [0, 1]])]
    )
    rrs = restricted_roots(g, SubspaceBasis.zero(2))
    assert rrs.roots == ()
    assert rrs.zero_space == SubspaceBasis.full(2)


def test_restricted_roots_sl2():
    g, k, s = sl2_split()
    a = SubspaceBasis(3, [{0: 1}])  # span{H}
    rrs = restricted_roots(g, a)
    assert set(rrs.roots) == {(Fraction(2),), (Fraction(-2),)}
    assert rrs.root_spaces[(Fraction(2),)].vectors == ({1: Fraction(1)},)
    assert rrs.root_spaces[(Fraction(-2),)].vectors == ({2: Fraction(1)},)
    assert rrs.zero_space == a


def test_minimal_parabolic_sl2():
    g, k, s = sl2_split()
    parabolic, rrs = minimal_parabolic(g, k, s)
    assert parabolic.a.dim == 1 and parabolic.n.dim == 1 and parabolic.m.dim == 0
    assert parabolic.p == SubspaceBasis(3, [{0: 1}, {1: 1}])  # span{H, E}


def test_minimal_parabolic_compact_algebra():
    g = su(2, 0)
    k = SubspaceBasis.full(3)
    s = SubspaceBasis.zero(3)
    parabolic, rrs = minimal_parabolic(g, k, s)
    assert parabolic.a.dim == 0 and parabolic.n.dim == 0
    assert parabolic.m == SubspaceBasis.full(3)
    assert parabolic.p == SubspaceBasis.full(3)


def test_u12_restricted_roots_and_parabolic(built_catalog):
    bt = built_catalog["lorentzian-2"]
    l_alg, p, k_l, s_l = cartan_split_of_l(bt.descriptor)
    assert (k_l.dim, s_l.dim) == (5, 4)
    a = maximal_abelian_in_s(l_alg, s_l)
    assert a.dim == 1  # real rank one
    rrs = restricted_roots(l_alg, a)
    mults = sorted(sp.dim for sp in rrs.root_spaces.values())
    assert mults == [1, 1, 2, 2]
    assert rrs.zero_space.dim == 3
    parabolic, _ = minimal_parabolic(l_alg, k_l, s_l)
    assert (parabolic.m.dim, parabolic.a.dim, parabolic.n.dim) == (2, 1, 3)
    assert parabolic.p.dim == 6 == l_alg.dim - parabolic.n.dim


def test_root_space_sum_and_pairing(built_catalog):
    for name, bt in built_catalog.items():
        l_alg, p, k_l, s_l = cartan_split_of_l(bt.descriptor)
        a = maximal_abelian_in_s(l_alg, s_l)
        rrs = restricted_roots(l_alg, a)
        total = rrs.zero_space
        for sp in rrs.root_spaces.values():
            total = subspace_sum(total, sp)
        assert total.dim == l_alg.dim, name
        for root in rrs.roots:
            neg = tuple(-x for x in root)
            assert rrs.root_spaces[root].dim == rrs.root_spaces[neg].dim, name


def test_nilpotency_and_parabolic_closure(built_catalog):
    for name, bt in built_catalog.items():
        l_alg, p, k_l, s_l = cartan_split_of_l(bt.descriptor)
        parabolic, _ = minimal_parabolic(l_alg, k_l, s_l)
        assert is_subalgebra(l_alg, parabolic.p), name
        # [p, n] stays in n
        for pv in parabolic.p.vectors:
            for nv in parabolic.n.vectors:
                assert parabolic.n.contains(l_alg.bracket(pv, nv)), name
        # lower central series of n terminates
        series = parabolic.n
        for _ in range(parabolic.n.dim + 1):
            if series.dim == 0:
                break
            nxt = SubspaceBasis.zero(l_alg.dim)
            for nv in parabolic.n.vectors:
                for sv in series.vectors:
                    bracket = l_alg.bracket(nv, sv)
                    nxt = subspace_sum(nxt, SubspaceBasis(l_alg.dim, [bracket]))
            series = nxt
        assert series.dim == 0, name


def test_sphericity_verdicts(built_catalog):
    expected = {
        "group": False,
        "group-compact": True,
        "lorentzian-2": True,
        "lorentzian-3": True,
        "g2": False,
    }
    for name, bt in built_catalog.items():
        verdict, ev = is_spherical_triple(bt.descriptor)
        assert verdict == expected[name], name
        assert ev["dim_p_plus_l_cap_h"] <= ev["dim_l"]


def test_sphericity_group_compact_evidence(built_catalog):
    verdict, ev = is_spherical_triple(built_catalog["group-compact"].descriptor)
    assert verdict
    assert ev["dim_p"] == 3 and ev["dim_l_cap_h"] == 1
    assert ev["dim_p_plus_l_cap_h"] == 4 == ev["dim_l"]


def test_sphericity_requires_transitive():
    from lietriples.liealg import direct_sum
    from lietriples.pairs import (
        TripleDescriptor,
        negative_transpose_involution,
        swap_involution,
    )

    g = direct_sum(sl(2), sl(2))
    sigma = swap_involution(g)
    theta = negative_transpose_involution(g)
    # l too small to act transitively
    frame = RatMatrix.from_columns(6, [[1, 0, 0, 0, 0, 0]])
    t = TripleDescriptor(g=g, sigma=sigma, theta=theta, l_frame=frame, name="tiny")
    with pytest.raises(ValueError):
        is_spherical_triple(t)


def test_sphericity_reversed_greedy_matches(built_catalog):
    for name in ("group", "group-compact", "lorentzian-2"):
        bt = built_catalog[name]
        forward, _ = is_spherical_triple(bt.descriptor)
        backward, _ = is_spherical_triple(bt.descriptor, reverse=True)
        assert forward == backward, name


def test_u13_restricted_root_multiplicities(built_catalog):
    bt = built_catalog["lorentzian-3"]
    l_alg, p, k_l, s_l = cartan_split_of_l(bt.descriptor)
    assert (k_l.dim, s_l.dim) == (10, 6)
    a = maximal_abelian_in_s(l_alg, s_l)
    rrs = restricted_roots(l_alg, a)
    mults = sorted(sp.dim for sp in rrs.root_spaces.values())
    assert mults == [1, 1, 4, 4]
    assert rrs.zero_space.dim == 6


def test_kernel_systems_are_not_coerced_again(built_catalog, monkeypatch):
    """pairs.TripleDescriptor.in_l and liealg.centralizer stack Fractions
    they computed themselves and hand them to kernel, and
    ratlin.rational_eigenspaces hands the integer rows of dA - tI to
    _kernel, all
    without the coercing RatMatrix constructor; the kernels equal the
    oracles'."""
    d = built_catalog["g2"].descriptor
    g = d.l_alg
    op = g.ad({0: 1})  # eigenvalues -3, ..., 3 on g2
    s = SubspaceBasis(g.dim, [{0: 1}])
    expected = (
        intersected_l_cap_s_cap_q(d),
        dense_eigenspace(op, Fraction(-2)),
        ad_matrix_centralizer(g, s),
    )
    built = []
    original = ratlin.RatMatrix.__init__

    def counted_init(self, entries):
        built.append(entries)
        original(self, entries)

    monkeypatch.setattr(ratlin.RatMatrix, "__init__", counted_init)
    got = (
        d.in_l(theta=-1, sigma=-1),
        dict(rational_eigenspaces(op))[Fraction(-2)],
        liealg.centralizer(g, s),
    )
    assert got == expected
    assert built == []
