import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import ENTRY_NAMES
from lietriples import catalog
from lietriples.liealg import (
    DependentBasis,
    LieAlgebra,
    NotClosed,
    centralizer,
    diagonal_subalgebra,
    direct_sum,
    from_matrix_basis,
    g2_matrices,
    g2_split,
    is_subalgebra,
    killing_form,
    restrict_form,
    sl,
    so,
    so_coordinates,
    so_form_signs,
    su,
    subalgebra_on_own_basis,
    u,
)
from helpers import (
    ad_matrix_centralizer,
    cayley_conjugated_entry,
    dense,
    dense_ad,
    dense_bracket,
    dense_structure_table,
    invariant_form_space,
    naive_direct_sum,
    naive_g2_matrices,
    naive_sl_matrices,
    naive_so_matrices,
    naive_su_matrices,
    naive_u_matrices,
    rebased_entry,
    sparse,
    structure_table,
    zmul,
    zorn_coords,
    zorn_octonion,
)
from lietriples.env2 import casimir, symmetrized_casimir
from lietriples.parabolic import maximal_abelian_in_s, restricted_roots
from lietriples.ratlin import AmbientMismatch, RatMatrix, SubspaceBasis, inverse, signature


def sl2():
    return sl(2)


def _sl2_over_21():
    """sl(2) on the basis H/3, E, F/7: its int_table has d = 21."""
    return subalgebra_on_own_basis(sl(2), [{0: Fraction(1, 3)}, {1: 1}, {2: Fraction(1, 7)}])


def test_sl2_structure_constants():
    g = sl2()
    # [H,E] = 2E, [H,F] = -2F, [E,F] = H
    assert g.bracket_basis_sparse(0, 1) == {1: Fraction(2)}
    assert g.bracket_basis_sparse(0, 2) == {2: Fraction(-2)}
    assert g.bracket_basis_sparse(1, 2) == {0: Fraction(1)}


def test_single_matrix_is_abelian():
    g = from_matrix_basis([RatMatrix([[0, 1], [0, 0]])])
    assert g.dim == 1 and g.int_table == ({}, 1)


def test_not_closed():
    e = RatMatrix([[0, 1], [0, 0]])
    f = RatMatrix([[0, 0], [1, 0]])
    with pytest.raises(NotClosed):
        from_matrix_basis([e, f])


def test_dependent_basis():
    e = RatMatrix([[0, 1], [0, 0]])
    with pytest.raises(DependentBasis):
        from_matrix_basis([e, e.scale(2)])


# -- from_matrix_basis against the dense-product oracle ----------------------

ORACLE_ALGEBRAS = {
    "sl(2)": lambda: sl(2),
    "sl(3)": lambda: sl(3),
    "so(2,4)": lambda: so(2, 4),
    "so(4,3)": lambda: so(4, 3),
    "so(1,3)": lambda: so(1, 3),
    "u(1,2)": lambda: u(1, 2),
    "su(1,2)": lambda: su(1, 2),
    "split G2": g2_split,
    "sl(2) + so(1,3)": lambda: direct_sum(sl(2), so(1, 3)),
}


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_structure_tables_match_the_dense_product_oracle(name):
    g = ORACLE_ALGEBRAS[name]()
    table = structure_table(g)
    assert table == dense_structure_table(g.matrices)
    assert all(type(c) is Fraction for entry in table.values() for c in entry.values())
    assert all(type(c) is int for entry in g.int_table[0].values() for c in entry.values())
    rebuilt = from_matrix_basis(g.matrices, g.basis_labels)
    assert (rebuilt.int_table, rebuilt.basis_labels, rebuilt.matrices) == (
        g.int_table,
        g.basis_labels,
        g.matrices,
    )


def _dense_conjugates(mats, seed):
    """P X P^-1 for each matrix X, with P a seeded integer matrix whose
    inverse has no zero entry, so every conjugate is dense."""
    rng = random.Random(seed)
    n = mats[0].rows
    while True:
        p = RatMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        try:
            p_inv = inverse(p)
        except ValueError:
            continue
        if all(x for row in p_inv.entries for x in row):
            return [p @ m @ p_inv for m in mats]


@pytest.mark.parametrize("make", [lambda: so(2, 3), lambda: sl(3)], ids=["so(2,3)", "sl(3)"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_conjugate_bases_match_the_oracle(make, seed):
    g = make()
    mats = _dense_conjugates(g.matrices, seed)
    n = mats[0].rows
    nonzero = sum(1 for m in mats for row in m.entries for x in row if x)
    assert nonzero > len(mats) * n * n // 2
    conjugate = from_matrix_basis(mats)
    # conjugation is an isomorphism, so the constants do not change
    assert structure_table(conjugate) == dense_structure_table(mats) == structure_table(g)


@pytest.mark.parametrize(
    "make, drop, conjugated",
    [
        (lambda: so(2, 3), 0, False),
        (lambda: so(2, 3), 7, False),
        (lambda: so(2, 3), 7, True),
        (lambda: sl(3), 4, False),
        (lambda: sl(3), 4, True),
        (g2_split, 13, False),
    ],
    ids=["so(2,3)-0", "so(2,3)-7", "so(2,3)-7-conjugated", "sl(3)-4", "sl(3)-4-conjugated", "g2-13"],
)
def test_non_closed_and_dependent_bases_fail_as_the_oracle(make, drop, conjugated):
    mats = list(make().matrices)
    if conjugated:
        mats = _dense_conjugates(mats, drop)
    # a simple algebra of dimension above 3 has no subalgebra of codimension 1
    open_basis = mats[:drop] + mats[drop + 1 :]
    with pytest.raises(NotClosed) as expected:
        dense_structure_table(open_basis)
    with pytest.raises(NotClosed) as got:
        from_matrix_basis(open_basis)
    assert str(got.value) == str(expected.value)
    dependent = mats + [mats[0] + mats[-1]]
    for build in (dense_structure_table, from_matrix_basis):
        with pytest.raises(DependentBasis):
            build(dependent)


def _sizes(smallest, largest):
    return [(p, m - p) for m in range(smallest, largest + 1) for p in range(m + 1)]


def _oracle(naive, *args):
    return lambda: from_matrix_basis(*naive(*args))


_BASES = {
    **{f"sl{n}": (lambda n=n: sl(n), _oracle(naive_sl_matrices, n)) for n in range(2, 6)},
    **{f"so{p},{q}": (lambda p=p, q=q: so(p, q), _oracle(naive_so_matrices, p, q)) for p, q in _sizes(2, 8)},
    **{f"u{p},{q}": (lambda p=p, q=q: u(p, q), _oracle(naive_u_matrices, p, q)) for p, q in _sizes(1, 5)},
    **{f"su{p},{q}": (lambda p=p, q=q: su(p, q), _oracle(naive_su_matrices, p, q)) for p, q in _sizes(2, 5)},
    "g2": (g2_split, _oracle(naive_g2_matrices)),
    "sl2+so21": (
        lambda: direct_sum(sl(2), so(2, 1)),
        lambda: naive_direct_sum(_oracle(naive_sl_matrices, 2)(), _oracle(naive_so_matrices, 2, 1)()),
    ),
    "sl3+sl2": (
        lambda: direct_sum(sl(3), sl(2)),
        lambda: naive_direct_sum(_oracle(naive_sl_matrices, 3)(), _oracle(naive_sl_matrices, 2)()),
    ),
}


@pytest.mark.parametrize("name", list(_BASES))
def test_basis_matrices_match_the_naive_writers(name):
    # every basis matrix keeps its entries, its place and its label, so the
    # structure table keeps every constant
    build, oracle = _BASES[name]
    new, old = build(), oracle()
    assert new.matrices == old.matrices
    assert new.basis_labels == old.basis_labels
    assert new.int_table == old.int_table


def test_so_dimensions():
    assert so(2, 4).dim == 15
    assert so(4, 3).dim == 21
    g11 = so(1, 1)
    assert g11.dim == 1 and g11.int_table == ({}, 1)


def test_u_dimensions():
    assert u(1, 2).dim == 9
    assert u(1, 0).dim == 1
    assert su(2, 0).dim == 3


def test_direct_sum_and_diagonal():
    g = direct_sum(sl2(), sl2())
    assert g.dim == 6
    diag = diagonal_subalgebra(g)
    assert diag.dim == 3
    assert is_subalgebra(g, diag)
    g2sum = direct_sum(so(2, 4), so(2, 4))
    assert diagonal_subalgebra(g2sum).dim == 15


def test_killing_sl2_values():
    b = killing_form(sl2())
    assert b[0, 0] == 8 and b[1, 2] == 4 and b[2, 1] == 4
    assert b[0, 1] == 0 and b[0, 2] == 0 and b[1, 1] == 0 and b[2, 2] == 0


def test_killing_abelian_zero():
    g = from_matrix_basis([RatMatrix([[1, 0], [0, 0]]), RatMatrix([[0, 0], [0, 1]])])
    assert killing_form(g).is_zero()


@pytest.mark.parametrize("p,q", [(3, 0), (2, 1), (2, 2), (1, 4)])
def test_killing_so_closed_form(p, q):
    # classical oracle: B(X, Y) = (m - 2) tr(XY) on so(p, q)
    g = so(p, q)
    m = p + q
    b = killing_form(g)
    for i in range(g.dim):
        for j in range(g.dim):
            assert b[i, j] == (m - 2) * (g.matrices[i] @ g.matrices[j]).trace()


@pytest.mark.parametrize(
    "make",
    [
        lambda: sl(3),
        lambda: u(1, 2),
        lambda: su(1, 2),
        g2_split,
        _sl2_over_21,
        lambda: direct_sum(_sl2_over_21(), sl(2)),
    ],
    ids=["sl3", "u12", "su12", "g2", "sl2-over-21", "sl2-over-21+sl2"],
)
def test_killing_matches_the_trace_of_dense_ad_products(make):
    # B(X_i, X_j) = trace(ad X_i ad X_j), each ad a dense matrix built from
    # dense brackets; the diagonal entry a of the product is row a of ad X_i
    # against column a of ad X_j, every entry multiplied
    g = make()
    ads = [dense_ad(g, [int(k == i) for k in range(g.dim)]) for i in range(g.dim)]
    cols = [a.columns() for a in ads]
    b = killing_form(g)
    assert all(type(x) is Fraction for row in b.entries for x in row)
    for i in range(g.dim):
        for j in range(g.dim):
            diagonal = [sum(x * y for x, y in zip(r, c)) for r, c in zip(ads[i].entries, cols[j])]
            assert b[i, j] == sum(diagonal), (i, j)


@pytest.mark.parametrize("n", range(1, 7))
def test_killing_so_2_2n_is_diagonal_on_the_so_basis(n):
    # B(X, Y) = (m - 2) tr(XY); distinct M[k,l] are trace-orthogonal, and
    # M[k,l]^2 = -eps_k eps_l (E_kk + E_ll) has trace -2 eps_k eps_l
    m = 2 + 2 * n
    eps = so_form_signs(2, 2 * n)
    diagonal = [(m - 2) * -2 * eps[k] * eps[l] for k, l in combinations(range(m), 2)]
    assert killing_form(so(2, 2 * n)) == RatMatrix.diagonal(diagonal)


def test_killing_direct_sum_block_diagonal():
    a = sl2()
    g = direct_sum(a, a)
    b = killing_form(g)
    ba = killing_form(a)
    for i in range(6):
        for j in range(6):
            if (i < 3) != (j < 3):
                assert b[i, j] == 0
            else:
                assert b[i, j] == ba[i % 3, j % 3]


def test_restrict_full_space_is_identity_operation():
    g = sl2()
    b = killing_form(g)
    assert restrict_form(b, SubspaceBasis.full(3)) == b


@pytest.mark.parametrize("n", [3, 6])
def test_restrict_to_the_zero_subspace_is_the_empty_gram(n):
    # P is n x 0, so P^T B P is 0 x 0 by the shapes alone
    b = killing_form(sl2() if n == 3 else direct_sum(sl2(), sl2()))
    assert SubspaceBasis.zero(n).matrix() == RatMatrix.zeros(n, 0)
    assert restrict_form(b, SubspaceBasis.zero(n)) == RatMatrix([]) == RatMatrix.zeros(0, 0)


def test_restrict_isotropic_line():
    g = sl2()
    b = killing_form(g)
    line = SubspaceBasis(3, [{1: 1}])  # span{E}
    assert restrict_form(b, line) == RatMatrix([[0]])


def test_restrict_u12_in_so24_signature():
    g = so(2, 4)
    b = killing_form(g)
    lu = u(1, 2)
    sub = SubspaceBasis(15, [sparse(so_coordinates(2, 4, m)) for m in lu.matrices])
    assert sub.dim == 9
    gram = restrict_form(b, sub)
    # k_L = u(1) + u(2) has dim 5 and pairs negatively; s_L has dim 4.
    assert signature(gram) == (4, 5, 0)


def test_centralizer_of_zero_is_within():
    g = sl2()
    within = SubspaceBasis(3, [{0: 1}, {1: 1}])
    assert centralizer(g, SubspaceBasis.zero(3), within) == within


def test_centralizer_of_sl2_in_sl2_is_zero():
    g = sl2()
    assert centralizer(g, SubspaceBasis.full(3)).dim == 0


def test_centralizer_of_torus_is_torus():
    g = sl2()
    torus = SubspaceBasis(3, [{0: 1}])
    assert centralizer(g, torus) == torus


def _random_sparse_vector(rng, dim, density=0.25):
    return [
        Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < density else Fraction(0)
        for _ in range(dim)
    ]


@pytest.mark.parametrize("name", [*ENTRY_NAMES, "lorentzian-4"])
def test_sparse_bracket_matches_the_dense_oracle(built_catalog, name):
    """On seeded random sparse vectors of g and of l, the bracket and ad
    agree with the dense oracles, and a bracket holds no zero coefficient,
    also where every term cancels ([v, v] = 0)."""
    bt = built_catalog.get(name) or catalog.build(catalog._lorentzian_entry(4))
    rng = random.Random(f"sparse-bracket/{name}")
    for algebra in (bt.g, bt.l_alg):
        n = algebra.dim
        for density in (0.1, 0.3, 0.8):
            for _ in range(4):
                v = _random_sparse_vector(rng, n, density)
                w = _random_sparse_vector(rng, n, density)
                got = algebra.bracket(sparse(v), sparse(w))
                assert dense(got, n) == dense_bracket(algebra, v, w), name
                assert all(got.values()) and all(type(x) is Fraction for x in got.values())
                assert algebra.bracket(sparse(v), sparse(v)) == {}
        v = _random_sparse_vector(rng, n, 0.3)
        assert algebra.ad(sparse(v)) == dense_ad(algebra, v), name


def test_label_and_matrix_counts_must_match_the_basis():
    """One label per basis matrix or vector, and one matrix per label: a
    mismatch names both counts before any bracket is solved."""
    mats = sl(2).matrices
    for labels in (["H", "E", "F", "X"], ["H", "E"]):
        with pytest.raises(ValueError, match=rf"^{len(labels)} labels for 3 basis vectors$"):
            from_matrix_basis(mats, labels)
        with pytest.raises(ValueError, match=rf"^{len(labels)} labels for 3 basis vectors$"):
            subalgebra_on_own_basis(sl(2), [{0: 1}, {1: 1}, {2: 1}], labels)
    with pytest.raises(ValueError, match=r"^3 matrices for 2 labels$"):
        LieAlgebra(["H", "E"], {(0, 1): {1: 2}}, matrices=mats)
    # a descriptor with too few l_labels: l_alg raises the same, validate
    # names the field
    d = catalog.get("group").descriptor
    short = type(d)(d.g, d.sigma, d.theta, d.l_frame, l_labels=["A"])
    with pytest.raises(ValueError, match=rf"^1 labels for {d.l_frame.cols} basis vectors$"):
        short.l_alg
    with pytest.raises(ValueError, match="l_labels do not match the l frame") as exc:
        short.validate()
    assert exc.value.field == "l_labels"
    assert from_matrix_basis(mats, ["H", "E", "F"]).basis_labels == ("H", "E", "F")


def test_check_jacobi_names_the_failing_triple():
    g = LieAlgebra(["X", "Y", "Z"], {(0, 1): {2: 1}, (1, 2): {1: 1}})
    with pytest.raises(ValueError, match=r"Jacobi identity fails on basis triple \(0,1,2\)"):
        g.check_jacobi()
    sl(3).check_jacobi()


def test_check_matrix_consistency_names_the_failing_pair():
    # sl(2)'s matrices against its table with [H, E] = 3E in place of 2E
    g = sl(2)
    table = {(0, 1): {1: 3}, (0, 2): {2: -2}, (1, 2): {0: 1}}
    wrong = LieAlgebra(g.basis_labels, table, matrices=g.matrices)
    with pytest.raises(ValueError, match=r"disagrees with structure tensor at pair \(0,1\)$"):
        wrong.check_matrix_consistency()
    g.check_matrix_consistency()


def test_floats_are_refused_by_the_structure_table():
    with pytest.raises(TypeError, match="not an exact rational"):
        LieAlgebra(["X", "Y", "Z"], {(0, 1): {2: 0.5}})


def test_floats_are_refused_by_the_bracket():
    with pytest.raises(TypeError, match="not an exact rational"):
        sl(2).bracket({0: 0.5}, {1: 1})
    with pytest.raises(TypeError, match="not an exact rational"):
        sl(2).bracket({0: 1}, {1: 0.5})


def test_floats_are_refused_by_ad():
    with pytest.raises(TypeError, match="not an exact rational"):
        sl(2).ad({0: 0.5})


@pytest.mark.parametrize("make", [lambda: sl(3), lambda: u(1, 2), g2_split], ids=["sl3", "u12", "g2"])
def test_centralizer_matches_ad_matrix_oracle(make):
    g = make()
    rng = random.Random(f"centralizer/{g.dim}")
    unit = [[Fraction(int(i == j)) for j in range(g.dim)] for i in range(g.dim)]
    for trial in range(12):
        # basis vectors and sums of two have large centralizers; random
        # sparse vectors mostly small ones
        s_vecs = rng.choice(
            [
                [rng.choice(unit)],
                [[a + b for a, b in zip(rng.choice(unit), rng.choice(unit))]],
                [_random_sparse_vector(rng, g.dim)],
                [_random_sparse_vector(rng, g.dim) for _ in range(2)],
            ]
        )
        s = SubspaceBasis(g.dim, map(sparse, s_vecs))
        within = rng.choice(
            [
                None,
                SubspaceBasis(g.dim, map(sparse, rng.sample(unit, rng.randint(1, g.dim)))),
                SubspaceBasis(
                    g.dim,
                    [sparse(_random_sparse_vector(rng, g.dim, 0.5)) for _ in range(g.dim // 2)],
                ),
            ]
        )
        z = centralizer(g, s, within)
        assert z == ad_matrix_centralizer(g, s, within), trial
        assert all(type(x) is Fraction for v in z.vectors for x in v.values())


def test_is_subalgebra_cases():
    g = sl2()
    assert is_subalgebra(g, SubspaceBasis(3, [{0: 1}]))
    assert not is_subalgebra(g, SubspaceBasis(3, [{1: 1}, {2: 1}]))
    g24 = so(2, 4)
    lu = u(1, 2)
    sub = SubspaceBasis(15, [sparse(so_coordinates(2, 4, m)) for m in lu.matrices])
    assert is_subalgebra(g24, sub)


def test_u1n_embeds_in_so2_2n():
    # realified u(1, n) lands matrix-for-matrix inside so(2, 2n)
    for n in (2, 3):
        g = so(2, 2 * n)
        lu = u(1, n)
        j = RatMatrix.diagonal([1, 1] + [-1] * (2 * n))
        for m in lu.matrices:
            assert (m.transpose() @ j + j @ m).is_zero()
        sub = SubspaceBasis(g.dim, [sparse(so_coordinates(2, 2 * n, m)) for m in lu.matrices])
        assert sub.dim == (n + 1) ** 2


def test_subalgebra_on_own_basis_matches_ambient_brackets():
    g = so(2, 4)
    lu = u(1, 2)
    cols = [sparse(so_coordinates(2, 4, m)) for m in lu.matrices]
    l_alg = subalgebra_on_own_basis(g, cols, labels=lu.basis_labels)
    assert l_alg.dim == 9 and l_alg.matrices is None
    # same structure constants as the abstract u(1, 2)
    for i in range(9):
        for j in range(i + 1, 9):
            assert l_alg.bracket_basis_sparse(i, j) == lu.bracket_basis_sparse(i, j)


def _rewritten_frame(name, how):
    """The frame of l of a shipped entry as Fraction vectors: rebased or
    Cayley-conjugated (seed 1), or column i times (i mod 3 + 1) times how."""
    entry = catalog.builtin_entries()[name]
    if how in ("rebased", "cayley"):
        data = (rebased_entry if how == "rebased" else cayley_conjugated_entry)(entry, 1)
        return [sparse([Fraction(x) for x in col]) for col in data["l"]["vectors"]]
    frame = catalog.build(entry).descriptor.l_frame.columns()
    return [sparse([(i % 3 + 1) * Fraction(how) * x for x in c]) for i, c in enumerate(frame)]


@pytest.mark.parametrize("how", ["rebased", "cayley", "3/7", "1000000000000", "1/1000000000039"])
@pytest.mark.parametrize("name", ["lorentzian-2", "g2"])
def test_subalgebra_tables_on_rewritten_frames_match_the_dense_oracle(name, how):
    """The integer structure table of l on a frame with large or Fraction
    entries is the dense oracle's, solved from the frame's matrices."""
    g = catalog.build(catalog.builtin_entries()[name]).descriptor.g
    frame = _rewritten_frame(name, how)
    zero = RatMatrix.zeros(g.matrices[0].rows, g.matrices[0].cols)
    mats = [sum((g.matrices[k].scale(x) for k, x in v.items()), zero) for v in frame]
    assert structure_table(subalgebra_on_own_basis(g, frame)) == dense_structure_table(mats)


# -- split G2 ---------------------------------------------------------------


def _zorn_derivation(m):
    """A g2_matrices element as an 8 x 8 matrix on (1, u0, v1..v3, w1..w3).

    The conjugation undoes the change to the basis (u0, v_i + w_i,
    v_i - w_i), and the unit goes to 0.
    """
    cols = [[1, 0, 0, 0, 0, 0, 0]]
    cols += [[int(t in (i, 3 + i)) for t in range(7)] for i in (1, 2, 3)]
    cols += [[(t == i) - (t == 3 + i) for t in range(7)] for i in (1, 2, 3)]
    b = RatMatrix.from_columns(7, cols)
    im = b @ m @ inverse(b)
    return RatMatrix([[0] * 8] + [[0, *row] for row in im.entries])


def test_g2_matrices_are_derivations_of_the_split_octonions():
    mats, labels = g2_matrices()
    assert labels == ["H1", "H2", *(f"E{r}" for r in range(1, 7)), *(f"F{r}" for r in range(1, 7))]
    units = [[int(i == j) for j in range(8)] for i in range(8)]
    octonion = [zorn_octonion(e) for e in units]
    for m in mats:
        d = _zorn_derivation(m)
        image = [zorn_octonion(dense(d.apply(sparse(e)), 8)) for e in units]
        for i in range(8):
            for j in range(8):
                lhs = dense(d.apply(sparse(zorn_coords(zmul(octonion[i], octonion[j])))), 8)
                rhs = [
                    s + t
                    for s, t in zip(
                        zorn_coords(zmul(image[i], octonion[j])),
                        zorn_coords(zmul(octonion[i], image[j])),
                    )
                ]
                assert lhs == rhs


def test_g2_root_vectors_are_normalised_coroot_pairs():
    mats, labels = g2_matrices()
    cartan = SubspaceBasis(49, [sparse([x for row in m.entries for x in row]) for m in mats[:2]])
    for k in range(1, 7):
        e, f = mats[labels.index(f"E{k}")], mats[labels.index(f"F{k}")]
        h = e @ f - f @ e
        assert cartan.contains(sparse([x for row in h.entries for x in row]))
        assert h @ e - e @ h == e.scale(2)


def test_g2_dimension_and_tables():
    g2 = g2_split()
    assert g2.dim == 14
    g2.validate()  # Jacobi + matrix realization consistency


def test_g2_killing_signature():
    g2 = g2_split()
    assert signature(killing_form(g2)) == (8, 6, 0)


def test_g2_seven_dim_invariant_form():
    g2 = g2_split()
    forms = invariant_form_space(list(g2.matrices))
    assert len(forms) == 1
    sig = signature(forms[0])
    assert sig == (4, 3, 0) or sig == (3, 4, 0)


def test_g2_matrices_land_in_so43():
    g2 = g2_split()
    j = RatMatrix.diagonal([1, 1, 1, 1, -1, -1, -1])
    for m in g2.matrices:
        assert (m.transpose() @ j + j @ m).is_zero()


def test_gram_on_vectors_matches_restrict():
    # the Gram of B on two vectors, read through restrict_form on their span
    g = sl2()
    b = killing_form(g)
    vecs = [[1, 0, 0], [0, 1, 1]]
    s = SubspaceBasis(3, map(sparse, vecs))
    assert [dense(v, 3) for v in s.vectors] == vecs
    gram = restrict_form(b, s)
    assert gram[0, 0] == 8 and gram[1, 1] == 8 and gram[0, 1] == gram[1, 0] == 0
    for i, u in enumerate(vecs):
        for j, v in enumerate(vecs):
            assert gram[i, j] == sum(x * b[r, c] * y for r, x in enumerate(u) for c, y in enumerate(v))


@pytest.mark.parametrize("p,q", [(2, 4), (2, 6), (4, 3), (3, 2)])
def test_so_semisimple_zero_radical(p, q):
    g = so(p, q)
    m = p + q
    assert g.dim == m * (m - 1) // 2
    sig = signature(killing_form(g))
    assert sig[2] == 0


def test_catalog_realizations_consistent(built_catalog):
    # structure tensors agree with matrix commutators for every ambient algebra
    for name, bt in built_catalog.items():
        bt.g.check_matrix_consistency()


def test_su11_is_a_split_rank_one_form():
    g = su(1, 1)
    assert g.dim == 3
    assert signature(killing_form(g)) == (2, 1, 0)


def test_sl3_structure_is_valid():
    g = sl(3)
    assert g.dim == 8
    g.validate()
    assert signature(killing_form(g)) == (5, 3, 0)


def test_int_table_is_the_structure_table_over_the_lcm_of_its_denominators(monkeypatch):
    """sl(2) on the basis H/3, E, F/7: [H/3, E] = 2/3 E, [H/3, F/7] = -2/3
    F/7 and [E, F/7] = 3/7 H/3, so d = lcm(3, 3, 7) = 21.  The table is
    solved in ints and brought to lowest terms once, at construction, into
    a plain attribute; reading it or a bracket does not scale it again, and
    the algebra stays immutable."""
    from lietriples import liealg

    calls = []
    original = liealg.lowest_terms

    def counted(vectors, d):
        calls.append(d)
        return original(vectors, d)

    monkeypatch.setattr(liealg, "lowest_terms", counted)
    g = _sl2_over_21()
    fractions = {
        (0, 1): {1: Fraction(2, 3)},
        (0, 2): {2: Fraction(-2, 3)},
        (1, 2): {0: Fraction(3, 7)},
    }
    assert len(calls) == 2  # sl(2)'s own table, then the subalgebra's
    calls.clear()
    table, d = g.int_table
    assert d == 21
    assert table == {(0, 1): {1: 14}, (0, 2): {2: -14}, (1, 2): {0: 9}}
    assert all(type(x) is int for comps in table.values() for x in comps.values())
    assert structure_table(g) == fractions
    assert g.bracket({0: 1}, {2: 7}) == {2: Fraction(-14, 3)}
    assert g.int_table is g.int_table and calls == []
    assert LieAlgebra.__slots__ == ("dim", "basis_labels", "int_table", "matrices", "_reducers")
    for name in ("int_table", "dim"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
    # an algebra with no brackets has the empty table over 1; a direct sum
    # keeps the lcm of its factors' denominators
    assert LieAlgebra(["A", "B"], {}).int_table == ({}, 1)
    assert direct_sum(g, sl(2)).int_table[1] == 21


@pytest.mark.parametrize(
    "table",
    [
        {(0, 1): {2: 1}},
        {(0, 1): {-1: 1}},
        {(0, 1): {5: 1}},
        {(0, 1.0): {0: 1}},
        {(1, 0): {0: 1}},
        {(0, 2): {0: 1}},
        {(0, 1): {True: 1}},
    ],
    ids=["k=dim", "k=-1", "k=5", "float-key", "i>j", "j=dim", "bool-k"],
)
def test_structure_tables_indexed_outside_the_algebra_are_refused(table):
    # otherwise bracket({0: 1}, {1: 1}) would return a vector outside the algebra
    with pytest.raises(ValueError, match=r"is not indexed by ints i < j and k in \[0, 2\)"):
        LieAlgebra(["a", "b"], table)
    assert LieAlgebra(["a", "b"], {(0, 1): {1: 1}}).bracket({0: 1}, {1: 1}) == {1: 1}


_MISMATCHES = {
    # name: (call on lorentzian-2's l_alg, dim 9, the wrong ambient dim, the algebra's dim)
    "is_subalgebra": (lambda l: is_subalgebra(sl(2), SubspaceBasis(5, [{3: 1}, {4: 1}])), 5, 3),
    "centralizer": (lambda l: centralizer(l, SubspaceBasis(3, [{0: 1}])), 3, 9),
    "centralizer-within": (
        lambda l: centralizer(l, SubspaceBasis(9, [{0: 1}]), within=SubspaceBasis(3, [{0: 1}])), 3, 9
    ),
    "maximal_abelian_in_s": (
        lambda l: maximal_abelian_in_s(l, SubspaceBasis(3, [{0: 1}, {1: 1}])), 3, 9
    ),
    "restricted_roots": (lambda l: restricted_roots(l, SubspaceBasis(20, [{15: 1}])), 20, 9),
    "casimir": (
        lambda l: casimir(sl(2), SubspaceBasis(2, [{0: 1}, {1: 1}]), RatMatrix.identity(2)), 2, 3
    ),
    "symmetrized_casimir": (
        lambda l: symmetrized_casimir(
            sl(2), SubspaceBasis(2, [{0: 1}, {1: 1}]), RatMatrix.identity(2)
        ),
        2,
        3,
    ),
}


@pytest.mark.parametrize("name", _MISMATCHES)
def test_subspaces_of_another_ambient_space_are_refused(built_catalog, name):
    call, wrong, right = _MISMATCHES[name]
    l_alg = built_catalog["lorentzian-2"].l_alg
    assert l_alg.dim == 9
    with pytest.raises(AmbientMismatch, match=rf"R\^{wrong} in an algebra of dim {right}$"):
        call(l_alg)
