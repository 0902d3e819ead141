import itertools
import math
import random
from fractions import Fraction

import pytest

from helpers import (
    congruence_signature,
    dense,
    dense_apply,
    dense_kernel,
    dense_matmul,
    dense_rref,
    fraction_canonical,
    fraction_contains,
    fraction_intersection,
    fraction_kernel,
    fraction_sum,
    restrict_operator,
    sparse,
)
from lietriples.ratlin import (
    AmbientMismatch,
    BasisSolver,
    DependentBasis,
    NonSymmetric,
    RatMatrix,
    SubspaceBasis,
    _rat,
    _rref,
    add_over,
    combination,
    coordinates_in,
    int_kernel,
    inverse,
    kernel,
    over_one_denominator,
    rank,
    signature,
    solve,
    subspace_intersection,
    subspace_sum,
)


def rand_matrix(rng, rows, cols, span=4):
    return RatMatrix(
        [
            [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def rand_invertible(rng, n):
    while True:
        m = RatMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if rank(m) == n:
            return m


# -- rank ---------------------------------------------------------------


def test_rank_identity():
    assert rank(RatMatrix.identity(2)) == 2


def test_rank_zero_matrix():
    assert rank(RatMatrix.zeros(3, 3)) == 0


def test_rank_dependent_rows():
    assert rank(RatMatrix([[1, 2], [2, 4]])) == 1


# -- kernel -------------------------------------------------------------


def test_kernel_identity_empty():
    assert kernel(RatMatrix.identity(3)).dim == 0


def test_kernel_zero_map_full():
    k = kernel(RatMatrix.zeros(3, 3))
    assert k.dim == 3
    assert k == SubspaceBasis.full(3)


def test_kernel_line():
    k = kernel(RatMatrix([[1, 1]]))
    assert k.vectors == ({0: Fraction(1), 1: Fraction(-1)},)


@pytest.mark.parametrize("n", [0, 1, 4])
def test_kernel_of_a_matrix_with_no_rows_is_everything(n):
    # no equation constrains any of the n unknowns
    assert kernel(RatMatrix.zeros(0, n)) == SubspaceBasis.full(n)


@pytest.mark.parametrize("n", [0, 1, 6])
def test_a_matrix_with_no_columns_keeps_its_shape_under_transpose(n):
    empty = RatMatrix.from_columns(n, [])
    assert (empty.rows, empty.cols) == (n, 0)
    assert (empty.transpose().rows, empty.transpose().cols) == (0, n)
    assert empty.transpose().transpose() == empty
    assert empty.transpose() @ empty == RatMatrix.zeros(0, 0)
    assert empty @ empty.transpose() == RatMatrix.zeros(n, n)


# -- solve --------------------------------------------------------------


def test_solve_identity():
    assert solve(RatMatrix.identity(2), [3, 4]) == [Fraction(3), Fraction(4)]


def test_solve_inconsistent():
    assert solve(RatMatrix.zeros(2, 2), [1, 0]) is None


def test_solve_diagonal():
    assert solve(RatMatrix([[2, 0], [0, 4]]), [1, 2]) == [
        Fraction(1, 2),
        Fraction(1, 2),
    ]


# -- signature ----------------------------------------------------------


def test_signature_diag():
    assert signature(RatMatrix.diagonal([1, -1])) == (1, 1, 0)


def test_signature_zero():
    assert signature(RatMatrix.zeros(2, 2)) == (0, 0, 2)


def test_signature_hyperbolic_block():
    assert signature(RatMatrix([[0, 1], [1, 0]])) == (1, 1, 0)


@pytest.mark.parametrize("m", [[[0, 1], [0, 0]], [[1, 2]]], ids=["asymmetric", "non-square"])
def test_signature_requires_symmetric(m):
    with pytest.raises(NonSymmetric):
        signature(RatMatrix(m))


# signature reads the signs of the characteristic polynomial; the cases
# below compare it with the congruence diagonalization it replaced


def test_signature_of_the_empty_matrix():
    empty = RatMatrix([])
    assert signature(empty) == congruence_signature(empty) == (0, 0, 0)


def test_signature_matches_the_congruence_oracle_on_seeded_congruences():
    # P^T D P, with P rational and invertible, has the inertia of D; D has
    # zero and negative entries
    rng = random.Random(515)
    for _ in range(300):
        n = rng.randint(1, 7)
        d = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
        p = rand_matrix(rng, n, n, span=3)
        while rank(p) < n:
            p = rand_matrix(rng, n, n, span=3)
        s = p.transpose() @ RatMatrix.diagonal(d) @ p
        inertia = (sum(x > 0 for x in d), sum(x < 0 for x in d), d.count(0))
        assert signature(s) == congruence_signature(s) == inertia, (d, p)


def test_signature_matches_the_congruence_oracle_on_grams_with_mixed_denominators():
    # G = V^T D V for k vectors in Q^m: entries over 1, 7, 9, 10^12 + 39 and
    # 2^64 + 13 at once, so char_poly scales by their lcm; G has at most the
    # positive and negative counts of D, and k - min(m, k) or more zeros
    rng = random.Random("mixed-denominators")
    denominators = (1, 7, 9, 10**12 + 39, 2**64 + 13)
    for _ in range(60):
        m, k = rng.randint(1, 5), rng.randint(1, 6)
        v = RatMatrix(
            [
                [Fraction(rng.randint(-3, 3), rng.choice(denominators)) for _ in range(k)]
                for _ in range(m)
            ]
        )
        d = [rng.choice((-2, -1, Fraction(1, 3), 1)) for _ in range(m)]
        gram = v.transpose() @ RatMatrix.diagonal(d) @ v
        pos, neg, zero = signature(gram)
        assert (pos, neg, zero) == congruence_signature(gram), (d, v)
        assert pos <= sum(x > 0 for x in d) and neg <= sum(x < 0 for x in d)
        assert zero >= k - min(m, k)


@pytest.mark.parametrize("n", range(2, 7))
def test_signature_matches_the_congruence_oracle_on_bordered_hyperbolic_blocks(n):
    # [[0, c], [c, 0]] on coordinates (i, j), zeros elsewhere, alone and with
    # a diagonal entry or a second block on other coordinates: a zero
    # diagonal, which the oracle first fixes up by congruence
    for i, j in itertools.combinations(range(n), 2):
        rest = [k for k in range(n) if k not in (i, j)]
        for c in (1, -2, Fraction(1, 3)):
            cases = [({}, (1, 1, n - 2))]
            for k in rest[:1]:
                cases += [({(k, k): 5}, (2, 1, n - 3)), ({(k, k): -1}, (1, 2, n - 3))]
            for a, b in itertools.combinations(rest, 2):
                cases.append(({(a, b): c, (b, a): c}, (2, 2, n - 4)))
            for extra, inertia in cases:
                rows = [[Fraction(0)] * n for _ in range(n)]
                rows[i][j] = rows[j][i] = c
                for (a, b), x in extra.items():
                    rows[a][b] = x
                s = RatMatrix(rows)
                assert signature(s) == congruence_signature(s) == inertia, (i, j, extra)


# -- subspaces ----------------------------------------------------------


def test_subspace_sum_lines():
    a = SubspaceBasis(2, [{0: 1}])
    b = SubspaceBasis(2, [{1: 1}])
    assert subspace_sum(a, b).dim == 2


def test_subspace_sum_idempotent():
    v = SubspaceBasis(3, [{0: 1, 1: 2, 2: 3}])
    assert subspace_sum(v, v) == v


def test_subspace_sum_skew_lines_fill_plane():
    a = SubspaceBasis(2, [{0: 1, 1: 1}])
    b = SubspaceBasis(2, [{0: 1, 1: -1}])
    assert subspace_sum(a, b) == SubspaceBasis.full(2)


def test_intersection_self():
    x = SubspaceBasis(3, [{0: 1, 2: 2}, {1: 1, 2: 1}])
    assert subspace_intersection(x, x) == x


def test_intersection_complementary_lines():
    a = SubspaceBasis(2, [{0: 1}])
    b = SubspaceBasis(2, [{1: 1}])
    assert subspace_intersection(a, b).dim == 0


def test_intersection_generic_planes():
    a = SubspaceBasis(3, [{0: 1}, {1: 1}])
    b = SubspaceBasis(3, [{0: 1, 2: 1}, {1: 1, 2: 1}])
    inter = subspace_intersection(a, b)
    assert inter.dim == 1
    v = inter.vectors[0]
    assert a.contains(v) and b.contains(v)


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        subspace_sum(SubspaceBasis(2, [{0: 1}]), SubspaceBasis(3, [{0: 1}]))


def test_inverse_roundtrip():
    m = RatMatrix([[2, 1], [1, 1]])
    assert m @ inverse(m) == RatMatrix.identity(2)


# -- property suites ------------------------------------------------------


def test_rank_nullity_random():
    rng = random.Random(101)
    for _ in range(120):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = rand_matrix(rng, rows, cols)
        assert rank(m) + kernel(m).dim == cols


def test_dimension_formula_random():
    rng = random.Random(202)
    for _ in range(120):
        n = rng.randint(2, 5)
        a = SubspaceBasis(n, [sparse([rng.randint(-3, 3) for _ in range(n)]) for _ in range(rng.randint(0, n))])
        b = SubspaceBasis(n, [sparse([rng.randint(-3, 3) for _ in range(n)]) for _ in range(rng.randint(0, n))])
        total = subspace_sum(a, b)
        inter = subspace_intersection(a, b)
        assert a.dim + b.dim == total.dim + inter.dim


def test_signature_congruence_invariance():
    rng = random.Random(303)
    for _ in range(110):
        n = rng.randint(1, 5)
        raw = rand_matrix(rng, n, n, span=3)
        sym = raw + raw.transpose()
        p = rand_invertible(rng, n)
        assert signature(sym) == signature(p.transpose() @ sym @ p)


def test_canonical_form_equality_matches_containment():
    rng = random.Random(404)
    agreements = 0
    for _ in range(150):
        n = rng.randint(2, 4)
        a = SubspaceBasis(n, [sparse([rng.randint(-2, 2) for _ in range(n)]) for _ in range(rng.randint(1, n))])
        b = SubspaceBasis(n, [sparse([rng.randint(-2, 2) for _ in range(n)]) for _ in range(rng.randint(1, n))])
        same_span = all(a.contains(v) for v in b.vectors) and all(
            b.contains(v) for v in a.vectors
        )
        assert (a == b) == same_span
        agreements += 1
    assert agreements == 150


def test_solve_returns_exact_solutions_random():
    rng = random.Random(505)
    for _ in range(120):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        v = dense(m.apply(sparse(x)), rows)
        got = solve(m, v)
        assert got is not None
        assert m.apply(sparse(got)) == sparse(v)


def _vectorized_span(mats):
    size = mats[0].rows
    return RatMatrix.from_columns(
        size * size, [[x for row in m.entries for x in row] for m in mats]
    )


@pytest.mark.parametrize("algebra", ["so(2,4)", "u(1,2)", "g2"])
def test_basis_solver_agrees_with_solve(algebra):
    from lietriples.liealg import g2_split, so, u

    build = {"so(2,4)": lambda: so(2, 4), "u(1,2)": lambda: u(1, 2), "g2": g2_split}
    span = _vectorized_span(build[algebra]().matrices)
    solver = BasisSolver([sparse(c) for c in span.columns()])
    rng = random.Random(f"basis-solver/{algebra}")
    outside = 0
    for _ in range(25):
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(span.cols)]
        inside = dense(span.apply(sparse(x)), span.rows)
        assert solve(span, inside) == x
        assert solver.coordinates(sparse(inside)) == sparse(x)
        stray = [Fraction(rng.randint(-2, 2)) for _ in range(span.rows)]
        expected = solve(span, stray)
        assert solver.coordinates(sparse(stray)) == (None if expected is None else sparse(expected))
        outside += expected is None
    assert outside > 0  # the seeded stray vectors do leave the span


# 1, or a prime near 10^12 for a Fraction basis and right-hand sides whose
# denominators the solver's integer scaling must carry exactly
_BIG = [1, 10**12 + 39]


@pytest.mark.parametrize("big", _BIG)
def test_basis_solver_reads_sparse_vectors_like_solve(big):
    """coordinates of a sparse vector, explicit zero entries included, agree
    with solve on its dense form, hold no zero coefficient, and are None
    outside the span; int_coordinates of the vector times the lcm s of its
    denominators are the coordinates times s * divisor."""
    rng = random.Random(f"sparse-coordinates/{big}")
    inside = outside = 0
    for _ in range(80):
        n = rng.randint(1, 7)
        basis = rand_matrix(rng, n, rng.randint(1, n)).scale(Fraction(1, big))
        if rank(basis) < basis.cols:
            continue
        solver = BasisSolver([sparse(c) for c in basis.columns()])
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 2) * big) for _ in range(basis.cols)]
        stray = [Fraction(rng.randint(-2, 2), rng.choice([1, big + 2])) for _ in range(n)]
        for v in (dense(basis.apply(sparse(x)), n), stray):
            vec = {i: c for i, c in enumerate(v) if c or rng.random() < 0.3}
            expected = solve(basis, v)
            got = solver.coordinates(vec)
            s = math.lcm(*(c.denominator for c in v))
            ints = solver.int_coordinates({i: int(c * s) for i, c in vec.items()})
            if expected is None:
                assert got is None and ints is None
                outside += 1
            else:
                assert got == sparse(expected) and all(got.values())
                assert ints == {i: c * s * solver.divisor for i, c in got.items()}
                inside += 1
    assert inside > 0 and outside > 0


@pytest.mark.parametrize("big", _BIG)
def test_basis_solver_rejects_dependent_columns(big):
    m = RatMatrix.from_columns(3, [[1, 0, 2], [0, 1, 0], [2, 1, 4]]).scale(Fraction(3, big))
    with pytest.raises(DependentBasis):
        BasisSolver([sparse(c) for c in m.columns()])


class Outside(Exception):
    pass


def test_coordinates_in_reads_vectors_in_turn():
    basis = [{0: 1}, {1: 1, 2: 1}]
    read = []

    def vectors():
        for v in ({0: 2, 1: 3, 2: 3}, {2: 1}, {2: 2}):
            read.append(v)
            yield v

    coords = coordinates_in(basis, vectors(), Outside)
    assert read == []
    assert next(coords) == {0: 2, 1: 3} and len(read) == 1
    with pytest.raises(Outside) as err:
        next(coords)
    assert err.value.args == (1,) and len(read) == 2
    # a dependent basis is refused at the call, before any vector is read
    with pytest.raises(DependentBasis):
        coordinates_in([{0: 1, 1: 1}, {0: 2, 1: 2}], [], Outside)


def test_restrict_operator_on_an_invariant_plane():
    op = RatMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 5]])
    basis = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    assert restrict_operator(op, basis, Outside) == RatMatrix([[1, 0], [0, -1]])
    with pytest.raises(Outside):
        restrict_operator(op, [{0: 1}], Outside)


def _change_of_basis_sites():
    """(call, exception type, message) for each caller of coordinates_in
    given a vector outside its basis."""
    from lietriples.liealg import (
        NotClosed,
        direct_sum,
        from_matrix_basis,
        sl,
        so,
        subalgebra_on_own_basis,
    )
    from lietriples.env2 import NotTransitive, _canonical_transfer_split
    from lietriples.pairs import (
        TripleDescriptor,
        conjugation_involution,
        negative_transpose_involution,
        swap_involution,
    )
    from lietriples.parabolic import IrrationalSpectrum, restricted_roots

    e, f = RatMatrix([[0, 1], [0, 0]]), RatMatrix([[0, 0], [1, 0]])
    shear = RatMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    g = direct_sum(sl(2), sl(2))
    # l one line: l + h misses a direction of g, so some class of g/h lies
    # outside the span of the section's images
    line = TripleDescriptor(
        g=g,
        sigma=swap_involution(g),
        theta=negative_transpose_involution(g),
        l_frame=RatMatrix.from_columns(6, [[1, 0, 0, 0, 0, 0]]),
        name="line",
    )
    return {
        "from_matrix_basis": (
            lambda: from_matrix_basis([e, f]),
            NotClosed,
            "commutator of basis elements 0 and 1 leaves the span",
        ),
        "subalgebra_on_own_basis": (
            lambda: subalgebra_on_own_basis(sl(2), [{1: 1}, {2: 1}]),
            NotClosed,
            "span is not closed under the bracket",
        ),
        "conjugation_involution": (
            lambda: conjugation_involution(so(2, 1), shear),
            ValueError,
            "conjugation does not preserve the algebra",
        ),
        # a = span{H, E + F} is not abelian: ad H and ad (E + F) each split
        # over the rationals, with eigenvalues 2, 0, -2, but do not commute
        "restricted_roots": (
            lambda: restricted_roots(sl(2), SubspaceBasis(3, [{0: 1}, {1: 1, 2: 1}])),
            IrrationalSpectrum,
            "operator does not preserve the subspace",
        ),
        "canonical_transfer_split": (
            lambda: _canonical_transfer_split(line),
            NotTransitive,
            "l + h does not fill g",
        ),
    }


@pytest.mark.parametrize("site", list(_change_of_basis_sites()))
def test_change_of_basis_sites_keep_their_errors(site):
    call, kind, message = _change_of_basis_sites()[site]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind and str(err.value) == message


def test_signature_of_so3_killing_form():
    from lietriples.liealg import killing_form, so

    assert signature(killing_form(so(3, 0))) == (0, 3, 0)


# -- zero-skipping kernels against the dense references -------------------

DENSITIES = (0.1, 0.5, 1.0)
# (rows, cols): empty, 1 x n, n x 1, n x 0, non-square both ways, square
SHAPES = ((0, 0), (1, 5), (5, 1), (3, 0), (3, 6), (6, 3), (5, 5), (7, 7))


def sparse_entries(rng, rows, cols, density, big, zero_lines=False):
    """Seeded entries, nonzero with probability density; big draws huge
    numerators and denominators, zero_lines clears a row and a column."""

    def entry():
        if rng.random() >= density:
            return Fraction(0)
        if big:
            return Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**15))
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

    entries = [[entry() for _ in range(cols)] for _ in range(rows)]
    if zero_lines and rows and cols:
        entries[rng.randrange(rows)] = [Fraction(0)] * cols
        zero_col = rng.randrange(cols)
        for row in entries:
            row[zero_col] = Fraction(0)
    return entries


def all_fractions(rows) -> bool:
    return all(type(x) is Fraction for row in rows for x in row)


def holds_no_zero(m: RatMatrix) -> bool:
    """The storage invariant: one {column: Fraction} map per row, whose
    columns lie inside the shape and whose entries are nonzero Fractions."""
    return len(m.data) == m.rows and all(
        type(x) is Fraction and x and 0 <= j < m.cols for row in m.data for j, x in row.items()
    )


def coerced(entries, cols) -> RatMatrix:
    """The checked public constructor on dense entries; with no row to
    carry the width, the empty matrix of that width."""
    return RatMatrix(entries) if entries else RatMatrix.zeros(0, cols)


def assert_equality_reads_entries(matrices):
    """Two matrices are equal exactly when their shapes and dense entries
    are, and equal matrices hash equally, whatever order their rows' maps
    were written in."""
    for a in matrices:
        reordered = RatMatrix._of_rows([dict(reversed(r.items())) for r in a.data], a.cols)
        assert a == reordered and hash(a) == hash(reordered)
    for a, b in itertools.combinations(matrices, 2):
        assert (a == b) == ((a.rows, a.cols, a.entries) == (b.rows, b.cols, b.entries))
        if a == b:
            assert hash(a) == hash(b)


def kernel_cases():
    for density in DENSITIES:
        for big in (False, True):
            rng = random.Random(f"ratlin-kernels/{density}/{big}")
            for rows, cols in SHAPES:
                for zero_lines in (True, False, False):
                    entries = sparse_entries(rng, rows, cols, density, big, zero_lines)
                    yield rng, rows, cols, entries


def test_matmul_and_apply_match_dense():
    for rng, rows, cols, entries in kernel_cases():
        a = RatMatrix(entries)
        for width in (0, 1, 4):
            b_entries = sparse_entries(rng, a.cols, width, rng.random(), False)
            b = RatMatrix(b_entries) if a.cols else RatMatrix.zeros(0, width)
            got = a @ b
            assert (got.rows, got.cols) == (a.rows, width)
            assert got.entries == dense_matmul(a, b).entries
            assert holds_no_zero(got)
        vec = sparse_entries(rng, 1, a.cols, 0.5, False)[0] if a.cols else []
        for v in (vec, [int(j == 0) for j in range(a.cols)]):
            got = a.apply(sparse(v))
            assert got == sparse(dense_apply(a, v))
            assert all_fractions([got.values()])


def test_kernels_build_checked_fraction_matrices():
    # the kernels wrap their rows unchecked, so each result must hold no
    # stored zero and be what the checked public constructor makes of its
    # own entries; one stored zero would make two equal matrices unequal
    from lietriples.liealg import _matrix

    for rng, rows, cols, entries in kernel_cases():
        a = RatMatrix(entries)
        other = RatMatrix(sparse_entries(rng, rows, cols, 0.5, False))
        columns = [[rng.choice((0, 1, "-3/2", Fraction(2, 7))) for _ in range(rows)] for _ in range(3)]
        n = max(rows, cols)
        results = {
            "@": a @ a.transpose(),
            "+": a + other,
            "-": a - other,
            "- itself": a - a,
            "neg": -a,
            "scale": a.scale("3/2"),
            "scale by 0": a.scale(0),
            "transpose": a.transpose(),
            "from_columns": RatMatrix.from_columns(rows, columns),
            "_matrix": _matrix(n, {(i, j): x for i, r in enumerate(entries) for j, x in enumerate(r)}),
        }
        if rows == cols and rank(a) == rows:
            results["inverse"] = inverse(a)
        for name, got in results.items():
            assert holds_no_zero(got), name
            assert all_fractions(got.entries), name
            assert got == coerced(got.entries, got.cols), name
        assert_equality_reads_entries([a, other, *results.values()])
        assert results["- itself"] == results["scale by 0"] == RatMatrix.zeros(rows, a.cols)
        padded = [list(r) + [0] * (n - cols) for r in entries] + [[0] * n] * (n - rows)
        assert results["_matrix"] == coerced(padded, n)
        assert results["+"] == RatMatrix([[x + y for x, y in zip(r, s)] for r, s in zip(entries, other.entries)])
        assert results["-"] == RatMatrix([[x - y for x, y in zip(r, s)] for r, s in zip(entries, other.entries)])
        assert results["neg"] == RatMatrix([[-x for x in r] for r in entries])
        assert results["scale"] == RatMatrix([[Fraction(3, 2) * x for x in r] for r in entries])
        assert results["transpose"].entries == tuple(zip(*entries))
        assert results["from_columns"] == coerced([list(r) for r in zip(*columns)], 3)


def test_rat_reads_digit_runs_up_to_the_default_int_limit():
    # 4300 digits, Python's default int_max_str_digits, whatever the
    # interpreter's setting
    assert _rat("-" + "9" * 4300) == 1 - 10**4300
    assert _rat("1/" + "9" * 4300) == Fraction(1, 10**4300 - 1)
    for text in ("9" * 4301, "1/" + "9" * 4301, "1/0", "-0/000"):
        with pytest.raises(ValueError):
            _rat(text)


@pytest.mark.parametrize("bad", [0.5, None, 1j, True, "0.5", "1e300000"])
def test_the_public_constructors_still_reject_inexact_entries(bad):
    # the elimination reads .numerator and .denominator, so an inexact
    # entry that got past the coercion would raise AttributeError there
    with pytest.raises(TypeError):
        RatMatrix([[bad]])
    with pytest.raises(TypeError):
        RatMatrix.from_columns(2, [[1, bad]])
    with pytest.raises(TypeError):
        RatMatrix([[1]]).scale(bad)
    with pytest.raises(TypeError):
        solve(RatMatrix([[1, 0], [0, 2]]), [1, bad])
    with pytest.raises(TypeError):
        SubspaceBasis(2, [{0: 1}, {0: 1, 1: bad}])


def test_rref_kernel_and_inverse_match_dense():
    for _, rows, cols, entries in kernel_cases():
        got_rows, got_pivots = _rref([sparse(r) for r in entries])
        ref_rows, ref_pivots = dense_rref([list(r) for r in entries])
        assert ([dense(r, cols) for r in got_rows], got_pivots) == (ref_rows, ref_pivots)
        assert all_fractions(r.values() for r in got_rows)
        m = RatMatrix(entries)
        ker = kernel(m)
        assert [dense(v, m.cols) for v in ker.vectors] == dense_kernel(entries, m.cols)
        assert all_fractions(v.values() for v in ker.vectors)
        if rows != cols or not rows:
            continue
        ident = [[Fraction(int(i == j)) for j in range(rows)] for i in range(rows)]
        ref_rows, ref_pivots = dense_rref([list(r) + e for r, e in zip(entries, ident)])
        if ref_pivots[:rows] != list(range(rows)):
            with pytest.raises(ValueError):
                inverse(m)
            continue
        inv = inverse(m)
        assert inv == RatMatrix([row[rows:] for row in ref_rows])
        assert all_fractions(inv.entries)


def _huge_row(rng, cols):
    """cols >= 4 entries: one integer above 2^64 in absolute value, and at
    least three nonzero rationals whose denominators, each between 2^33 and
    2^40, have an lcm past 2^64."""
    sign = lambda: rng.choice((-1, 1))
    row = [Fraction(sign() * rng.randint(1, 2**70), rng.randint(2**33, 2**40)) for _ in range(cols)]
    big, *rest = rng.sample(range(cols), cols)
    row[big] = Fraction(sign() * rng.randint(2**64 + 1, 2**90))
    for j in rest[: rng.randint(0, cols - 4)]:
        row[j] = Fraction(0)
    return row


def _rref_cases(rng):
    """(kind, cols, entries): dense, sparse, rank-deficient (every row a
    combination of two), with zero rows, with huge entries, with a negative
    leading entry in every row, every row a rational multiple of one, and
    plain ints."""
    kinds = (
        "dense", "sparse", "rank-deficient", "zero-rows",
        "huge", "negative-pivots", "multiples", "ints",
    )
    for kind in kinds:
        for _ in range(30):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            density = {"dense": 1.0, "sparse": 0.2}.get(kind, 0.6)
            entries = sparse_entries(rng, rows, cols, density, False)
            if kind == "rank-deficient":
                base = sparse_entries(rng, 2, cols, 0.7, False)
                coeffs = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rows)]
                entries = [[a * x + b * y for x, y in zip(*base)] for a, b in coeffs]
            if kind == "zero-rows":
                for i in rng.sample(range(rows), rng.randint(1, rows)):
                    entries[i] = [Fraction(0)] * cols
            if kind == "huge":
                cols = max(cols, 4)
                entries = [_huge_row(rng, cols) for _ in range(rows)]
            if kind == "negative-pivots":
                entries = [
                    [-x for x in r] if next((x for x in r if x), 0) > 0 else r for r in entries
                ]
            if kind == "multiples":
                base = sparse_entries(rng, 1, cols, 0.7, False)[0]
                scales = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rows)]
                entries = [[q * x for x in base] for q in scales]
            if kind == "ints":
                entries = [[rng.randint(-9, 9) * (rng.random() < 0.6) for _ in range(cols)]
                           for _ in range(rows)]
            yield kind, cols, entries


def test_sparse_rref_matches_the_dense_reference_whatever_the_row_order():
    rng = random.Random("sparse-rref")
    for kind, cols, entries in _rref_cases(rng):
        ref_rows, ref_pivots = dense_rref([list(r) for r in entries])
        given = [sparse(r) for r in entries]
        got_rows, got_pivots = _rref(list(given))
        assert ([dense(r, cols) for r in got_rows], got_pivots) == (ref_rows, ref_pivots), kind
        # the list is reused, but the row maps it was given are not changed
        assert given == [sparse(r) for r in entries], kind
        assert all(x and type(x) is Fraction for r in got_rows for x in r.values()), kind
        if kind == "rank-deficient":
            assert len(got_pivots) <= 2
        if kind == "multiples":
            assert len(got_pivots) == int(any(x for r in entries for x in r))
        if kind == "huge":
            assert all(math.lcm(*(x.denominator for x in r)) > 2**64 for r in entries)
            assert all(any(abs(x) > 2**64 for x in r) for r in entries)
        if kind == "negative-pivots":
            assert all(next(x for x in r if x) < 0 for r in entries if any(r))
        if kind == "ints":
            assert all(type(x) is int for r in entries for x in r)
        shuffled = [sparse(r) for r in entries]
        rng.shuffle(shuffled)
        assert _rref(shuffled) == (got_rows, got_pivots), kind


def test_subspace_basis_refuses_floats_and_indices_outside_the_ambient_space():
    for bad in (0.5, 0.0):
        with pytest.raises(TypeError):
            SubspaceBasis(3, [{0: 1}, {1: bad}])
    for index in (3, -1):
        with pytest.raises(ValueError):
            SubspaceBasis(3, [{0: 1}, {index: 1}])


def test_two_spanning_sets_give_equal_subspaces_with_equal_hashes():
    plane = SubspaceBasis(3, [{0: 1, 1: 1}, {0: 1, 1: -1}, {0: "1/2", 2: 0}])
    other = SubspaceBasis(3, [{1: Fraction(3)}, {0: 2}])
    assert plane == other and hash(plane) == hash(other)
    assert plane != SubspaceBasis(3, [{0: 1}, {2: 1}])
    rng = random.Random("spanning-sets")
    for _ in range(80):
        n = rng.randint(1, 6)
        vecs = [sparse(sparse_entries(rng, 1, n, 0.5, False)[0]) for _ in range(rng.randint(0, n))]
        a = SubspaceBasis(n, vecs)
        # integer combinations of the vectors, then the vectors in reverse
        combos = [
            combination({k: rng.randint(-3, 3) for k in range(len(vecs))}, vecs)
            for _ in range(n)
        ]
        b = SubspaceBasis(n, combos + vecs[::-1])
        assert a == b and hash(a) == hash(b)
        c = SubspaceBasis(n, combos)
        assert (c == a) == (c.dim == a.dim)
        if c == a:
            assert hash(c) == hash(a)


def test_identity_zeros_and_diagonal_equal_the_coerced_constructor():
    for n in (0, 1, 4):
        values = [3, "-1/2", Fraction(2, 3), 0][:n]
        built = {
            "identity": (RatMatrix.identity(n), [[int(i == j) for j in range(n)] for i in range(n)]),
            "zeros": (RatMatrix.zeros(n, n + 1), [[0] * (n + 1) for _ in range(n)]),
            "diagonal": (
                RatMatrix.diagonal(values),
                [[values[i] if i == j else 0 for j in range(n)] for i in range(n)],
            ),
        }
        for name, (got, entries) in built.items():
            assert holds_no_zero(got), (name, n)
            assert all_fractions(got.entries), (name, n)
            assert got == coerced(entries, n + (name == "zeros")), (name, n)
        assert (RatMatrix.zeros(0, n).rows, RatMatrix.zeros(0, n).cols) == (0, n)
        assert_equality_reads_entries([got for got, _ in built.values()])
    # over kernel_cases, the square ones, with their diagonals as values
    for _, rows, cols, entries in kernel_cases():
        if rows == cols:
            values = [entries[i][i] for i in range(rows)]
            diagonal = RatMatrix.diagonal(values)
            assert holds_no_zero(diagonal) and holds_no_zero(RatMatrix.zeros(rows, cols + 1))
            assert diagonal.entries == tuple(
                tuple(values[i] if i == j else 0 for j in range(rows)) for i in range(rows)
            )
    with pytest.raises(TypeError):
        RatMatrix.diagonal([0.5])


def test_coordinates_and_contains_match_dense():
    for rng, _, _, entries in kernel_cases():
        basis = RatMatrix(entries)  # columns are the candidate basis
        n, k = basis.rows, basis.cols
        columns = basis.columns()
        column_rank = len(dense_rref([list(c) for c in columns])[1])
        span = SubspaceBasis(n, map(sparse, columns))
        if column_rank < k:
            with pytest.raises(DependentBasis):
                BasisSolver([sparse(c) for c in columns])
            solver = None
        else:
            solver = BasisSolver([sparse(c) for c in columns])
        inside = dense_apply(basis, sparse_entries(rng, 1, k, 0.5, False)[0] if k else [])
        stray = sparse_entries(rng, 1, n, 0.3, False)[0] if n else []
        for v in (inside, stray, [Fraction(int(i == 0)) for i in range(n)]):
            aug, pivots = dense_rref([list(r) + [x] for r, x in zip(entries, v)])
            consistent = k not in pivots
            assert span.contains(sparse(v)) == consistent
            if solver is None:
                continue
            got = solver.coordinates(sparse(v))
            if not consistent:
                assert got is None
                continue
            expected = [Fraction(0)] * k
            for r, p in enumerate(pivots):
                expected[p] = aug[r][k]
            assert dense(got, k) == expected
            assert all_fractions([got.values()])


def test_stored_pivots_match_the_first_nonzero_scan():
    rng = random.Random(4242)
    for _ in range(80):
        n = rng.randint(1, 7)
        vecs = [
            [Fraction(rng.choice([0, 0, 0, 1, -2, 3]), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(rng.randint(0, n + 2))
        ]
        sub = SubspaceBasis(n, map(sparse, vecs))
        scanned = [next(i for i, x in enumerate(dense(v, n)) if x) for v in sub.vectors]
        assert list(sub.pivots()) == scanned
        # the stored pivots are derived data: equality and hashing ignore them
        again = SubspaceBasis(n, map(sparse, reversed(vecs)))
        assert again == sub and hash(again) == hash(sub)


def test_sparse_refuses_a_mapping():
    """A dict is already sparse: reading it as a dense vector would return
    its keys, enumerated."""
    assert sparse([Fraction(0), Fraction(2), 0, 3]) == {1: 2, 3: 3}
    assert sparse((x for x in [0, 1])) == {1: 1}
    with pytest.raises(TypeError):
        sparse({1: Fraction(1), 2: Fraction(-1)})
    with pytest.raises(TypeError):
        sparse({})


def test_over_one_denominator_scales_to_ints_exactly():
    rng = random.Random(5150)
    for _ in range(50):
        def entry():
            n = rng.randint(-5, 5)
            return rng.choice([n, Fraction(n, rng.choice([3, 10**12 + 39]))])

        vectors = {
            k: {i: entry() for i in rng.sample(range(8), rng.randint(0, 4))}
            for k in rng.sample(range(6), rng.randint(0, 4))
        }
        scaled, d = over_one_denominator(vectors)
        denominators = (Fraction(x).denominator for v in vectors.values() for x in v.values())
        assert d == math.lcm(*denominators)
        assert scaled.keys() == vectors.keys()
        for k, v in vectors.items():
            assert scaled[k].keys() == v.keys()
            assert all(type(x) is int for x in scaled[k].values())
            assert all(Fraction(scaled[k][i], d) == x for i, x in v.items())
    assert over_one_denominator({}) == ({}, 1)
    assert over_one_denominator({0: {}, 3: {1: 4}}) == ({0: {}, 3: {1: 4}}, 1)


def test_add_over_adds_int_vectors_over_the_lcm():
    rng = random.Random(6160)
    for _ in range(50):
        vectors = [
            ({i: rng.randint(-9, 9) for i in rng.sample(range(6), rng.randint(0, 3))},
             rng.choice([1, 6, 10**12 + 39, 4 * (10**12 + 39)]))
            for _ in range(2)
        ]
        (u, d_u), (v, d_v) = vectors
        w, d = add_over(u, d_u, v, d_v)
        assert d == math.lcm(d_u, d_v)
        assert all(type(x) is int for x in w.values())
        for i in {*u, *v}:
            assert Fraction(w.get(i, 0), d) == Fraction(u.get(i, 0), d_u) + Fraction(v.get(i, 0), d_v)
    assert add_over({}, 5, {1: 2}, 3) == ({1: 10}, 15)


# -- int subspaces against the Fraction routes they replaced ---------------


def fraction_view_is_canonical(sub: SubspaceBasis) -> bool:
    """Every vector entry a Fraction, a 1 at its own pivot, and each int row
    primitive with a positive pivot."""
    return all(
        all(type(x) is Fraction for x in v.values()) and v[p] == 1 and row[p] > 0
        and all(type(x) is int for x in row.values()) and math.gcd(*row.values()) == 1
        for v, row, p in zip(sub.vectors, sub.int_rows, sub.pivots())
    )


def subspace_cases():
    """(rng, cols, vectors of a, vectors of b) over kernel_cases: a is
    spanned by the rows, b by seeded rows of the same density and size plus
    a combination of a's rows, so that the two meet."""
    for rng, rows, cols, entries in kernel_cases():
        a = [sparse(r) for r in entries]
        density = rng.choice((0.1, 0.5, 1.0))
        b = [sparse(r) for r in sparse_entries(rng, rng.randint(0, 3), cols, density, rng.random() < 0.5)]
        if a and cols:
            b.append(combination({k: rng.randint(-3, 3) for k in range(len(a))}, a))
        yield rng, cols, a, b


def test_int_subspaces_match_the_fraction_routes():
    for rng, cols, a_vecs, b_vecs in subspace_cases():
        a, b = SubspaceBasis(cols, a_vecs), SubspaceBasis(cols, b_vecs)
        fa, fb = fraction_canonical(a_vecs), fraction_canonical(b_vecs)
        assert list(a.vectors) == fa and list(b.vectors) == fb
        assert list(kernel(coerced([dense(v, cols) for v in a_vecs], cols)).vectors) == (
            fraction_kernel(a_vecs, cols))
        assert list(subspace_sum(a, b).vectors) == fraction_sum(fa, fb)
        meet = subspace_intersection(a, b)
        assert list(meet.vectors) == fraction_intersection(fa, fb, cols)
        for sub in (a, b, subspace_sum(a, b), meet):
            assert fraction_view_is_canonical(sub)
        inside = combination({k: rng.randint(-3, 3) for k in range(len(fa))}, fa)
        stray = sparse(sparse_entries(rng, 1, cols, 0.5, True)[0]) if cols else {}
        for v in (inside, stray, {0: 1} if cols else {}):
            assert a.contains(v) == fraction_contains(fa, v)
            # ints on the same line give the same answer
            assert a.contains(over_one_denominator({0: v})[0][0]) == fraction_contains(fa, v)


def test_int_kernel_spans_the_fraction_kernel():
    for _, _, cols, entries in kernel_cases():
        rows = [sparse(r) for r in entries]
        vectors = int_kernel(list(rows), cols)
        assert all(type(x) is int for v in vectors for x in v.values())
        assert list(SubspaceBasis(cols, vectors).vectors) == fraction_kernel(rows, cols)
        assert len(vectors) == len(fraction_kernel(rows, cols))


def test_equal_spans_compare_and_hash_equal_however_they_were_built():
    for rng, cols, a_vecs, _ in subspace_cases():
        a = SubspaceBasis(cols, a_vecs)
        ints = list(over_one_denominator(dict(enumerate(a_vecs)))[0].values())
        scales = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**13), rng.randint(1, 99))
                  for _ in a_vecs]
        scaled = [{i: c * x for i, x in v.items()} for c, v in zip(scales, a_vecs)]
        permuted = rng.sample(a_vecs, len(a_vecs))
        for vectors in (ints, scaled, permuted, a.int_rows, a.vectors, list(a.vectors)[::-1]):
            other = SubspaceBasis(cols, vectors)
            assert other == a and hash(other) == hash(a)
            assert other.int_rows == a.int_rows and other.pivots() == a.pivots()
        if a.dim:
            smaller = SubspaceBasis(cols, a.vectors[1:])
            assert smaller != a and smaller.dim == a.dim - 1


def test_the_fraction_view_is_built_once_and_shared():
    sub = SubspaceBasis(3, [{0: 2, 1: 4}, {2: Fraction(3, 7)}])
    assert sub.int_rows == ({0: 1, 1: 2}, {2: 1})
    assert sub.vectors is sub.vectors
    assert sub.vectors == ({0: Fraction(1), 1: Fraction(2)}, {2: Fraction(1)})
    assert SubspaceBasis(2, [{0: -6, 1: 4}]).int_rows == ({0: 3, 1: -2},)
