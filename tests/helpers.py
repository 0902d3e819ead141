"""Shared oracle helpers for the test suite.

These implement independent routes to quantities the library also computes;
they stay deliberately naive (dense loops, no reuse of library shortcuts).
"""

import math
import random
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations
from typing import Callable, NamedTuple, Sequence

from lietriples import catalog
from lietriples.env2 import NotTransitive, Quad2, _echelon_split
from lietriples.liealg import LieAlgebra, NotClosed, centralizer, restrict_form, so_coordinates
from lietriples.pairs import Involution
from lietriples.parabolic import IrrationalSpectrum, maximal_abelian_in_s
from lietriples.ratlin import (
    BasisSolver,
    DependentBasis,
    NonSymmetric,
    RatMatrix,
    SubspaceBasis,
    _integer_roots,
    _rat,
    _rref,
    char_poly,
    combination,
    coordinates_in,
    int_kernel,
    inverse,
    kernel,
    over_one_denominator,
    signature,
    subspace_intersection,
    subspace_sum,
)


def unit(n, i):
    """The i-th standard basis vector of length n."""
    return [int(k == i) for k in range(n)]


# The library holds every vector and every matrix row sparse,
# {index: coefficient}; the dense oracles below meet it through these two.


def sparse(vec) -> dict:
    """The nonzero entries of a dense vector, as {index: coefficient}."""
    if isinstance(vec, Mapping):
        raise TypeError("sparse() takes a dense vector, not a mapping")
    return {i: x for i, x in enumerate(vec) if x}


def dense(vec: dict, n: int) -> list:
    """The sparse vector vec as a list of length n."""
    out = [Fraction(0)] * n
    for i, x in vec.items():
        out[i] = x
    return out


def involution_from_images(g: LieAlgebra, images) -> Involution:
    """Involution sending basis vector i to the given dense coordinate vector."""
    return Involution(RatMatrix.from_columns(g.dim, [list(v) for v in images]))


# Dense references for LieAlgebra.bracket and LieAlgebra.ad, which take and
# return sparse vectors: every pair of coordinates multiplied, each basis
# bracket read from bracket_basis_sparse.  The oracles below call these.


def dense_bracket(g, v, w):
    """[v, w] of two dense coordinate vectors, as a dense list."""
    out = [Fraction(0)] * g.dim
    for i, a in enumerate(v):
        for j, b in enumerate(w):
            if a and b:
                for k, c in g.bracket_basis_sparse(i, j).items():
                    out[k] += Fraction(a) * Fraction(b) * c
    return out


def dense_ad(g, v):
    """Matrix of ad(v) for a dense coordinate vector v: column j is [v, X_j]."""
    return RatMatrix.from_columns(g.dim, [dense_bracket(g, v, unit(g.dim, j)) for j in range(g.dim)])


def structure_table(g):
    """The structure table {(i, j): {k: c}}, i < j, of g in Fractions, one
    bracket_basis_sparse per key of its int_table."""
    return {key: g.bracket_basis_sparse(*key) for key in g.int_table[0]}


# Dense references for the ratlin kernels: the loops as they were before
# the kernels learned to skip zero entries, every entry multiplied.


def dense_matmul(self, other):
    if self.cols != other.rows:
        raise ValueError("shape mismatch")
    ot = other.transpose().entries
    out = []
    for ra in self.entries:
        out.append([sum(a * b for a, b in zip(ra, rc)) for rc in ot])
    return RatMatrix(out)


def dense_apply(self, vec):
    v = [_rat(x) for x in vec]
    if len(v) != self.cols:
        raise ValueError("vector of wrong length")
    return [sum(a * b for a, b in zip(row, v)) for row in self.entries]


def dense_rref(rows):
    if not rows:
        return rows, []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        if inv != 1:
            rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def dense_kernel(rows, n_cols):
    """Canonical basis of the null space of dense rows with n_cols columns,
    as dense rows in reduced echelon form, by dense_rref alone."""
    reduced, pivots = dense_rref([list(r) for r in rows])
    basis = []
    for free in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(int(c == free)) for c in range(n_cols)]
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][free]
        basis.append(v)
    return dense_rref(basis)[0]


# The Fraction routes of the subspace kernels, as they were before
# SubspaceBasis held int rows: every step on {index: Fraction} vectors, the
# canonical form the unit-pivot rows of ratlin._rref, and a subspace a list
# of those vectors (each one's pivot is its first index).


def fraction_canonical(vectors) -> list:
    """The canonical basis of the span of sparse vectors, as Fraction rows
    with a 1 at each pivot."""
    rows, pivots = _rref([{i: _rat(x) for i, x in v.items()} for v in vectors])
    return rows[: len(pivots)]


def fraction_kernel(rows, cols) -> list:
    """The canonical basis of the null space of sparse rows with cols columns."""
    rows, pivots = _rref([dict(r) for r in rows])
    vectors = []
    for fc in sorted(set(range(cols)).difference(pivots)):
        v = {pc: -rows[r][fc] for r, pc in enumerate(pivots) if fc in rows[r]}
        v[fc] = Fraction(1)
        vectors.append(v)
    return fraction_canonical(vectors)


def fraction_contains(basis, vec) -> bool:
    v = dict(vec)
    for b in basis:
        f = v.get(min(b))
        if f:
            for j, x in b.items():
                v[j] = v.get(j, 0) - f * x
    return not any(v.values())


def fraction_sum(a, b) -> list:
    return fraction_canonical([*a, *b])


def fraction_intersection(a, b, ambient_dim) -> list:
    if not a or not b:
        return []
    minus_b = ({i: -x for i, x in v.items()} for v in b)
    stacked = RatMatrix._of_rows([*a, *minus_b], ambient_dim).transpose()
    kept = fraction_kernel(stacked.data, len(a) + len(b))
    return fraction_canonical(combination({j: c for j, c in kv.items() if j < len(a)}, a)
                              for kv in kept)


def fraction_centralizer(g, s, within) -> list:
    """{x in span(within) : [x, span(s)] = 0} by Fraction brackets."""
    if not within or not s:
        return list(within)
    rows = []
    for sv in s:
        images = [g.bracket(wv, sv) for wv in within]
        rows += RatMatrix._of_rows(images, g.dim).transpose().data
    kept = fraction_kernel(rows, len(within))
    return fraction_canonical(combination(x, within) for x in kept)


def fraction_ad(g, v) -> RatMatrix:
    """ad(v) with one Fraction bracket per column."""
    return RatMatrix.from_columns(g.dim, [dense(g.bracket(v, {j: 1}), g.dim) for j in range(g.dim)])


# Reference for ratlin.signature as it was before it read the signs of the
# characteristic polynomial: exact symmetric congruence diagonalization,
# with row and column swaps and a hyperbolic fix-up for a zero diagonal.


def congruence_signature(s: RatMatrix) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a symmetric matrix.

    Exact symmetric congruence diagonalization; no characteristic polynomial
    and no floating point anywhere.
    """
    if not s.is_symmetric():
        raise NonSymmetric("signature requires a symmetric matrix")
    n = s.rows
    a = [list(row) for row in s.entries]
    pos = neg = zero = 0
    for k in range(n):
        if a[k][k] == 0:
            # Try to bring a nonzero entry onto the diagonal by congruence.
            swapped = False
            for j in range(k + 1, n):
                if a[j][j] != 0:
                    for t in range(n):
                        a[k][t], a[j][t] = a[j][t], a[k][t]
                    for t in range(n):
                        a[t][k], a[t][j] = a[t][j], a[t][k]
                    swapped = True
                    break
            if not swapped:
                for j in range(k + 1, n):
                    if a[k][j] != 0:
                        # row/col k += row/col j turns the 2x2 hyperbolic
                        # block into one with nonzero diagonal.
                        for t in range(n):
                            a[k][t] = a[k][t] + a[j][t]
                        for t in range(n):
                            a[t][k] = a[t][k] + a[t][j]
                        swapped = True
                        break
        piv = a[k][k]
        if piv == 0:
            zero += 1
            continue
        if piv > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / piv
                for t in range(n):
                    a[i][t] = a[i][t] - f * a[k][t]
                for t in range(n):
                    a[t][i] = a[t][i] - f * a[t][k]
    return pos, neg, zero


# Reference for liealg.from_matrix_basis as it was before it read the
# basis matrices' nonzero entries: every commutator from two dense
# products, solved in the flattened basis by dense elimination.


def dense_structure_table(mats):
    """Structure table {(i, j): {k: c}}, i < j, of the span of the square
    matrices mats; raises DependentBasis if they are dependent and NotClosed,
    with from_matrix_basis's message, for the first pair (i, j) whose
    commutator leaves the span."""
    k = len(mats)
    flat = [[x for row in m.entries for x in row] for m in mats]
    rows = [list(r) for r in zip(*flat)]  # one row per matrix position
    if len(dense_rref([list(r) for r in rows])[1]) < k:
        raise DependentBasis("basis vectors are linearly dependent")
    table = {}
    for i, j in combinations(range(k), 2):
        ij = dense_matmul(mats[i], mats[j]).entries
        ji = dense_matmul(mats[j], mats[i]).entries
        comm = [a - b for ra, rb in zip(ij, ji) for a, b in zip(ra, rb)]
        aug, pivots = dense_rref([r + [x] for r, x in zip(rows, comm)])
        if k in pivots:
            raise NotClosed(f"commutator of basis elements {i} and {j} leaves the span")
        entry = {p: aug[r][k] for r, p in enumerate(pivots) if aug[r][k]}
        if entry:
            table[(i, j)] = entry
    return table


# The basis matrices as liealg wrote them before one writer, _matrix, wrote
# them all: zero-filled int lists for sl, so and direct_sum, (re, im) grids
# of Fraction(0) realified afterwards for u and su, su with its own loop,
# and G2's moves on a Fraction grid.  Each returns (matrices, labels), or for
# direct_sum the LieAlgebra, with the same order and labels as liealg.


def naive_sl_matrices(n):
    mats = []
    labels = []
    if n == 2:
        mats = [
            RatMatrix([[1, 0], [0, -1]]),
            RatMatrix([[0, 1], [0, 0]]),
            RatMatrix([[0, 0], [1, 0]]),
        ]
        labels = ["H", "E", "F"]
    else:
        for i in range(n - 1):
            d = [[0] * n for _ in range(n)]
            d[i][i], d[i + 1][i + 1] = 1, -1
            mats.append(RatMatrix(d))
            labels.append(f"H{i + 1}")
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                e = [[0] * n for _ in range(n)]
                e[i][j] = 1
                mats.append(RatMatrix(e))
                labels.append(f"E{i + 1}{j + 1}")
    return mats, labels


def naive_so_matrices(p, q):
    m = p + q
    eps = [1] * p + [-1] * q
    mats = []
    labels = []
    for k in range(m):
        for l in range(k + 1, m):
            e = [[0] * m for _ in range(m)]
            e[k][l] = 1
            e[l][k] = -eps[k] * eps[l]
            mats.append(RatMatrix(e))
            labels.append(f"M[{k + 1},{l + 1}]")
    return mats, labels


def naive_realify(z_real, z_imag):
    m = z_real.rows
    out = [[Fraction(0)] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        for j in range(m):
            a = z_real[i, j]
            b = z_imag[i, j]
            out[2 * i][2 * j] = a
            out[2 * i][2 * j + 1] = -b
            out[2 * i + 1][2 * j] = b
            out[2 * i + 1][2 * j + 1] = a
    return RatMatrix(out)


def naive_upq_basis_complex(p, q):
    m = p + q
    eps = [1] * p + [-1] * q
    basis = []
    labels = []
    for k in range(m):
        re = [[Fraction(0)] * m for _ in range(m)]
        im = [[Fraction(0)] * m for _ in range(m)]
        im[k][k] = Fraction(1)
        basis.append((RatMatrix(re), RatMatrix(im)))
        labels.append(f"iD{k + 1}")
    for k in range(m):
        for l in range(k + 1, m):
            s = eps[k] * eps[l]
            re = [[Fraction(0)] * m for _ in range(m)]
            im = [[Fraction(0)] * m for _ in range(m)]
            re[k][l] = Fraction(1)
            re[l][k] = Fraction(-s)
            basis.append((RatMatrix(re), RatMatrix(im)))
            labels.append(f"A[{k + 1},{l + 1}]")
            re = [[Fraction(0)] * m for _ in range(m)]
            im = [[Fraction(0)] * m for _ in range(m)]
            im[k][l] = Fraction(1)
            im[l][k] = Fraction(s)
            basis.append((RatMatrix(re), RatMatrix(im)))
            labels.append(f"B[{k + 1},{l + 1}]")
    return basis, labels


def naive_u_matrices(p, q):
    basis, labels = naive_upq_basis_complex(p, q)
    return [naive_realify(re, im) for re, im in basis], labels


def naive_su_matrices(p, q):
    m = p + q
    basis, labels = naive_upq_basis_complex(p, q)
    mats = []
    out_labels = []
    # Replace the m diagonal generators by the m - 1 traceless differences.
    for k in range(m - 1):
        re = [[Fraction(0)] * m for _ in range(m)]
        im = [[Fraction(0)] * m for _ in range(m)]
        im[k][k] = Fraction(1)
        im[k + 1][k + 1] = Fraction(-1)
        mats.append(naive_realify(RatMatrix(re), RatMatrix(im)))
        out_labels.append(f"iH{k + 1}")
    for (re, im), lab in zip(basis[m:], labels[m:]):
        mats.append(naive_realify(re, im))
        out_labels.append(lab)
    return mats, out_labels


def naive_direct_sum(a, b):
    labels = [f"{lab}_1" for lab in a.basis_labels] + [
        f"{lab}_2" for lab in b.basis_labels
    ]
    table: dict = {}
    for (i, j), comps in structure_table(a).items():
        table[(i, j)] = dict(comps)
    off = a.dim
    for (i, j), comps in structure_table(b).items():
        table[(i + off, j + off)] = {k + off: v for k, v in comps.items()}
    matrices = None
    if a.matrices is not None and b.matrices is not None:
        na = a.matrices[0].rows
        nb = b.matrices[0].rows
        matrices = []
        for m in a.matrices:
            rows = [list(row) + [0] * nb for row in m.entries]
            rows += [[0] * (na + nb) for _ in range(nb)]
            matrices.append(RatMatrix(rows))
        for m in b.matrices:
            rows = [[0] * (na + nb) for _ in range(na)]
            rows += [[0] * na + list(row) for row in m.entries]
            matrices.append(RatMatrix(rows))
    return LieAlgebra(labels, table, matrices=matrices)


def naive_g2_matrices():
    """liealg.g2_matrices' formulas (see its docstring) on Fraction grids."""

    def v(i):
        return i

    def w(i):
        return 3 + i

    def moves(*images):
        """The matrix sending each basis vector a to c b, for (a, c, b)."""
        m = [[Fraction(0)] * 7 for _ in range(7)]
        for a, c, b in images:
            m[b][a] = Fraction(c)
        return RatMatrix(m)

    def torus(*t):
        return moves(*((v(i), c, v(i)) for i, c in zip((1, 2, 3), t)),
                     *((w(i), -c, w(i)) for i, c in zip((1, 2, 3), t)))

    def e(i, j):
        return moves((v(j), 1, v(i)), (w(i), -1, w(j)))

    def x(k, v=v, w=w):
        a, b = (t for t in (1, 2, 3) if t != k)
        eps = 1 if (a - k) % 3 == 1 else -1
        return moves((v(k), 1, 0), (0, -2, w(k)), (w(a), -eps, v(b)), (w(b), eps, v(a)))

    def y(k):
        return x(k, v=w, w=v)

    es = [e(3, 2), x(3), x(2), y(1), e(1, 3), e(1, 2)]
    fs = [e(2, 3), -y(3), -y(2), -x(1), e(3, 1), e(2, 1)]
    # columns of b: u0, then v_i + w_i, then v_i - w_i; b^T b = diag(1, 2, ..., 2)
    b = RatMatrix.from_columns(
        7,
        [[1, 0, 0, 0, 0, 0, 0]]
        + [[int(t in (v(i), w(i))) for t in range(7)] for i in (1, 2, 3)]
        + [[(t == v(i)) - (t == w(i)) for t in range(7)] for i in (1, 2, 3)],
    )
    b_inv = RatMatrix.diagonal([1] + [Fraction(1, 2)] * 6) @ b.transpose()
    mats = [b_inv @ m @ b for m in [torus(1, 1, -2), torus(0, -1, 1), *es, *fs]]
    labels = ["H1", "H2", *(f"E{r}" for r in range(1, 7)), *(f"F{r}" for r in range(1, 7))]
    return mats, labels


# References for a complement w of l inside h, the route by which
# env2.iota_embed once split g = l + w: seeded candidates drawn up front,
# then one elimination of the whole [frame | candidates] matrix (by
# ratlin._rref, itself checked against dense_rref).


def eager_seeded_candidates(h, seed):
    """All seeded candidates for the complement w of l, random combinations
    of the basis of h followed by that basis, drawn at once."""
    rng = random.Random(seed)
    h_vecs = [dense(v, h.ambient_dim) for v in h.vectors]
    candidates = []
    for _ in range(4 * len(h_vecs)):
        coeffs = [rng.randint(-3, 3) for _ in h_vecs]
        vec = [Fraction(0)] * h.ambient_dim
        for c, v in zip(coeffs, h_vecs):
            for i, x in enumerate(v):
                if c and x:
                    vec[i] += c * x
        if any(vec):
            candidates.append(vec)
    return candidates + h_vecs


def dense_greedy_complement(g_dim, frame_cols, candidates):
    """The candidates that are pivot columns of [frame | candidates] in
    reduced echelon form, or None when the columns do not span."""
    columns = [list(col) for col in frame_cols] + [list(c) for c in candidates]
    rows = [[Fraction(col[r]) for col in columns] for r in range(g_dim)]
    _, pivots = _rref([sparse(r) for r in rows])
    if len(pivots) != g_dim:
        return None
    return [list(candidates[c - len(frame_cols)]) for c in pivots if c >= len(frame_cols)]


# References for the normal ordering and the Casimir transfer of env2, as
# they were before both went through one bilinear table: a Quad2 built and
# added per term (termwise_*), the transfer's basis change by BasisSolver
# (basis_solver_split) and the dense front/eta split of IdealReducer
# (echelon_split).


def termwise_product_of_linear(algebra, v, w):
    """The product (sum v_i X_i)(sum w_j X_j), normal-ordered."""
    terms: dict = {}
    nz_v = [(i, Fraction(x)) for i, x in enumerate(v) if x]
    nz_w = [(j, Fraction(x)) for j, x in enumerate(w) if x]
    for i, a in nz_v:
        for j, b in nz_w:
            c = a * b
            if i <= j:
                key = (i, j)
                terms[key] = terms.get(key, Fraction(0)) + c
            else:
                key = (j, i)
                terms[key] = terms.get(key, Fraction(0)) + c
                for k, d in algebra.bracket_basis_sparse(i, j).items():
                    terms[(k,)] = terms.get((k,), Fraction(0)) + c * d
    return Quad2(algebra, terms)


def termwise_casimir(algebra, sub, form):
    """Sum of X_i Y_i over form-dual bases, one product per Gram pair."""
    ginv = inverse(form)
    vectors = [dense(v, sub.ambient_dim) for v in sub.vectors]
    total = Quad2.zero(algebra)
    for i in range(sub.dim):
        for j in range(sub.dim):
            c = ginv[i, j]
            if c != 0:
                total = total + termwise_product_of_linear(algebra, vectors[i], vectors[j]).scale(c)
    return total


def termwise_bracket_with(q, x):
    """Commutator [q, x] with a degree-one element, normal-ordered."""
    algebra = q.algebra
    n = algebra.dim
    unit = [[int(k == i) for k in range(n)] for i in range(n)]
    xv = unit[x] if isinstance(x, int) else list(x)
    ad = [dense_bracket(algebra, e, xv) for e in unit]  # ad[i] = [X_i, x]
    lin = [sum(c * ad[m[0]][k] for m, c in q.terms.items() if len(m) == 1) for k in range(n)]
    out = Quad2(algebra, {(k,): c for k, c in enumerate(lin)})
    for m, c in q.terms.items():
        if len(m) != 2:
            continue
        i, j = m
        # [X_i X_j, x] = X_i [X_j, x] + [X_i, x] X_j
        term = termwise_product_of_linear(algebra, unit[i], ad[j])
        out = out + (term + termwise_product_of_linear(algebra, ad[i], unit[j])).scale(c)
    return out


def termwise_reduce_split(q, front_alg, front, eta, to_front):
    """q modulo U(g) h, written over the front space through X_k = f_k + eta_k.

    front[k] is f_k in front_alg coordinates, eta[k] the ambient vector
    eta_k in h (None when it is zero), and to_front maps an ambient vector
    to the front coordinates of its front part.
    """
    g = q.algebra
    terms: dict = {(): q.terms.get((), 0)}
    rest = [Fraction(0)] * g.dim  # ambient degree-one terms, sent to the front last
    for m, c in q.terms.items():
        if len(m) == 1:
            rest[m[0]] += c
        elif len(m) == 2:
            i, j = m
            prod = termwise_product_of_linear(front_alg, front[i], front[j])
            for key, d in prod.terms.items():
                terms[key] = terms.get(key, Fraction(0)) + c * d
            if eta[i] is not None:
                f_j = [-x for x in eta[j]] if eta[j] is not None else [Fraction(0)] * g.dim
                f_j[j] += 1
                for k, d in enumerate(dense_bracket(g, eta[i], f_j)):
                    rest[k] += c * d
    for k, d in enumerate(to_front(rest)):
        terms[(k,)] = terms.get((k,), Fraction(0)) + d
    return Quad2(front_alg, terms)


def echelon_split(algebra, h):
    """(front, eta, to_front) of the reduction modulo U(g) h: the standard
    basis off the pivots of h spans the front space."""
    n = algebra.dim
    front = [[Fraction(int(i == k)) for i in range(n)] for k in range(n)]
    eta = [None] * n
    pivots = [(p, dense(v, n)) for p, v in zip(h.pivots(), h.vectors)]
    for p, v in pivots:
        front[p] = [Fraction(int(i == p)) - x for i, x in enumerate(v)]
        eta[p] = list(v)

    def to_front(y):
        """y minus its h part: zero at every pivot of h."""
        out = list(y)
        for p, v in pivots:
            c = y[p]
            if c != 0:
                for i, x in enumerate(v):
                    if x != 0:
                        out[i] -= c * x
        return out

    return front, eta, to_front


def termwise_reduce(q, h):
    """Canonical representative of q modulo U(g) h."""
    g = q.algebra
    front, eta, to_front = echelon_split(g, h)
    split = termwise_reduce_split(q, g, front, eta, to_front)
    # the front space is no subalgebra: normal ordering f_i f_j leaves it
    lin = to_front([split.terms.get((k,), Fraction(0)) for k in range(g.dim)])
    terms = {m: c for m, c in split.terms.items() if len(m) != 1}
    terms.update({(k,): c for k, c in enumerate(lin)})
    return Quad2(g, terms)


def basis_solver_split(g, frame_cols, w_vecs):
    """(front, eta, to_front) of the transfer along g = l + w, every basis
    vector and every ambient rest solved in the basis [frame | w]."""
    n_l = len(frame_cols)
    solver = BasisSolver([sparse(c) for c in frame_cols + w_vecs])

    def to_front(y):
        return dense(solver.coordinates(sparse(y)), g.dim)[:n_l]

    front, eta = [], []
    for k in range(g.dim):
        coords = dense(solver.coordinates({k: Fraction(1)}), g.dim)
        front.append(coords[:n_l])
        w_coords = coords[n_l:]
        eta_k = None
        if any(w_coords):
            eta_k = [Fraction(0)] * g.dim
            for c, v in zip(w_coords, w_vecs):
                if c:
                    for i, x in enumerate(v):
                        if x:
                            eta_k[i] += c * x
        eta.append(eta_k)
    return front, eta, to_front


# Reference for env2._transfer_split as it was before the descriptor kept
# the canonical split: pi of each frame vector, one inverse of size
# dim g - dim h, and f_k and eta_k of every k, all rebuilt on every call.


def percall_transfer_split(t, seed=None):
    """(front, eta) for g = l + h: X_k = f_k + eta_k with f_k in l, in frame
    coordinates, and eta_k in h, both as sparse vectors."""
    if not t.triple_report.transitive:
        raise NotTransitive("l + h does not fill g")
    g, h, lh = t.g, t.h, t.l_cap_h_in_l
    section = [a for a in range(lh.ambient_dim) if a not in lh.pivots()]
    rows = [i for i in range(g.dim) if i not in h.pivots()]
    row_of = {i: r for r, i in enumerate(rows)}
    front, d, _, _ = _echelon_split(h)
    pi = [{i: Fraction(x, d) for i, x in v.items()} for v in front]
    frame = t.frame_vectors
    m_cols = [
        dense({row_of[i]: x for i, x in combination(frame[a], pi).items()}, len(rows))
        for a in section
    ]
    m_inv = inverse(RatMatrix.from_columns(len(rows), m_cols))
    # lift[i] = M^-1 e_i, the section of the class of e_i, in frame coordinates
    lift = {
        i: {section[b]: y for b, y in sparse(col).items()}
        for i, col in zip(rows, m_inv.columns())
    }
    rng = None if seed is None else random.Random(seed)
    front, eta = [], []
    for k in range(g.dim):
        f_k = combination(pi[k], lift)
        if rng is not None:
            for u in lh.vectors:
                c = rng.randint(-3, 3)
                for a, y in u.items():
                    f_k[a] = f_k.get(a, 0) + c * y
            f_k = {a: y for a, y in f_k.items() if y}
        eta_k = {i: -y for i, y in combination(f_k, frame).items()}
        eta_k[k] = eta_k.get(k, 0) + 1  # e_k - frame f_k
        if not eta_k[k]:
            del eta_k[k]
        front.append(f_k)
        eta.append(eta_k)
    return front, eta


def random_quad2(algebra, rng, terms=6):
    """A seeded element with quadratic, linear and constant terms."""
    n = algebra.dim

    def coefficient():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))

    square = rng.randrange(n)
    out = {(square, square): coefficient()}
    for _ in range(terms):
        i, j = sorted((rng.randrange(n), rng.randrange(n)))
        out[(i, j)] = coefficient()
    out.update({(rng.randrange(n),): coefficient() for _ in range(3)})
    out[()] = coefficient()
    return Quad2(algebra, out)


# The routes by which a TripleDescriptor reached the subspaces of l and the
# forms on them before each subspace was one kernel in the frame F of l and
# each form read the one Gram F^T B F: theta restricted to the frame, then
# split; intersections in g, then coordinates in the frame; the ambient
# Killing form restricted to l and to l cap h; the theta-twisted Gram
# F^T B theta F of the auxiliary generators.


def restricted_theta_split(d):
    """(k_l, s_l) from theta restricted to the frame of l."""
    theta_l = restrict_operator(
        d.theta.matrix,
        [sparse(c) for c in d.l_frame.columns()],
        lambda _: ValueError("theta does not preserve l"),
    )
    ident = RatMatrix.identity(d.l_frame.cols)
    return kernel(theta_l - ident), kernel(theta_l + ident)


def in_frame(d, sub):
    """A subspace of g inside l, in the coordinates of the frame."""
    outside = lambda _: ValueError("subspace is not contained in l")  # noqa: E731
    frame = [sparse(c) for c in d.l_frame.columns()]
    return SubspaceBasis(d.l_frame.cols, coordinates_in(frame, sub.vectors, outside))


def intersected_l_cap_h(d):
    return in_frame(d, subspace_intersection(d.l, d.h))


def intersected_l_cap_s_cap_q(d):
    return in_frame(d, subspace_intersection(subspace_intersection(d.l, d.s), d.q))


def ambient_signatures(d):
    """Killing signatures on l and on l cap h, in their canonical bases."""
    b = d.killing
    return (
        signature(restrict_form(b, d.l)),
        signature(restrict_form(b, subspace_intersection(d.l, d.h))),
    )


def twisted_gram(d):
    """B(X, theta Y) on the frame of l."""
    f = d.l_frame
    return f.transpose() @ d.killing @ d.theta.matrix @ f


# The automorphism check of pairs.Involution.validate as a dense loop: an
# apply and a bracket of dense vectors for every basis pair.


def dense_involution_validate(inv, g):
    m = inv.matrix
    if m.rows != g.dim:
        raise ValueError("involution has wrong dimension")
    if m @ m != RatMatrix.identity(g.dim):
        raise ValueError("involution does not square to the identity")
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = dense_apply(m, dense_bracket(g, unit(g.dim, i), unit(g.dim, j)))
            rhs = dense_bracket(g, m.column(i), m.column(j))
            if lhs != rhs:
                raise ValueError(
                    f"involution is not an automorphism at basis pair ({i},{j})"
                )


# The automorphism check of pairs.Involution.validate as it was before it
# ran in Python ints: m[X_i, X_j] against [m X_i, m X_j] for every basis
# pair, each a combination and a LieAlgebra.bracket over Fractions.


def fraction_involution_validate(inv, g):
    m = inv.matrix
    if m.rows != g.dim:
        raise ValueError("involution has wrong dimension")
    if m @ m != RatMatrix.identity(g.dim):
        raise ValueError("involution does not square to the identity")
    cols = m.transpose().data
    for i, j in combinations(range(g.dim), 2):
        if combination(g.bracket_basis_sparse(i, j), cols) != g.bracket(cols[i], cols[j]):
            raise ValueError(f"involution is not an automorphism at basis pair ({i},{j})")


# The eigenvector route to the restricted roots, as parabolic computed them
# before ratlin.rational_joint_spectrum read roots and multiplicities off
# characteristic polynomials: the eigenspaces of each operator, as kernels
# of the integer rows of dA - tI, refined operator by operator, the
# operator restricted to each eigenspace of the ones before it, and the
# root spaces kept.  It is the oracle for the multiplicities.


def restrict_operator(
    op: RatMatrix, basis: Sequence[dict], outside: Callable[[int], Exception]
) -> RatMatrix:
    """Matrix of an operator on the span of the sparse basis vectors, in
    that basis; raises outside(k) when the operator moves vector k out of
    it."""
    coords = coordinates_in(basis, map(op.apply, basis), outside)
    return RatMatrix._of_rows(coords, len(basis)).transpose()


def rational_eigenspaces(a: RatMatrix) -> list[tuple[Fraction, "SubspaceBasis"]]:
    """The distinct rational eigenvalues of a square matrix, increasing,
    each with its eigenspace.

    With (c, d) = char_poly(A), the rational roots of the monic integer
    polynomial c are integers t, the eigenvalues of dA; they are bounded by
    its Gershgorin radius and isolated by Budan bisection, with no
    factoring.  Each lam = t/d comes with the kernel of the integer rows of
    dA - tI, never empty.  Irrational eigenvalues are simply not returned;
    the caller checks that the eigenspaces fill the space.
    """
    n = a.rows
    c, d = char_poly(a)
    b, _ = over_one_denominator(dict(enumerate(a.data)))
    zero = next(k for k, ck in enumerate(c) if ck)  # x^zero divides c
    roots = [0] if zero else []
    if n > zero:
        radius = max(sum(map(abs, row.values())) for row in b.values())
        roots += _integer_roots(c[zero:], radius)
    shifted = lambda t: [{**b[i], i: b[i].get(i, 0) - t} for i in range(n)]  # dA - tI
    return [(Fraction(t, d), SubspaceBasis(n, int_kernel(shifted(t), n))) for t in sorted(roots)]


class RestrictedRootSpaces(NamedTuple):
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


def restricted_root_spaces(l_alg: LieAlgebra, a: SubspaceBasis) -> RestrictedRootSpaces:
    """Joint ad(a) eigenspace decomposition of l with rational functionals.

    Roots are coordinate row vectors with respect to the canonical basis of
    a; the zero functional's space is kept separately as zero_space.
    """
    if a.dim == 0:
        return RestrictedRootSpaces(
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
    return RestrictedRootSpaces(
        a_basis=a, roots=roots, root_spaces=root_spaces, zero_space=zero_space
    )


# References for the restricted-root path of parabolic, as it was before
# char_poly ran in integers and the roots and eigenspaces were read off it:
# Faddeev-LeVerrier on RatMatrix, every integer in the Gershgorin range
# tried as a root, eigenspaces of an operator taken after restricting it to
# every space (the whole space included), the shift by lambda built entry
# by entry, the centralizer from dense ad matrices, and n and p of the
# minimal parabolic as chains of subspace_sum.


def ratmatrix_char_poly(a):
    """det(x I - A) by Faddeev-LeVerrier with one RatMatrix product per
    degree: M_k = A M_(k-1) + c[n-k+1] I, c[n-k] = -tr(A M_k) / k."""
    n = a.rows
    c = [Fraction(0)] * (n + 1)
    c[n] = Fraction(1)
    am = RatMatrix.zeros(n, n)  # A M_0, M_0 = 0
    for k in range(1, n + 1):
        am = a @ (am + RatMatrix.identity(n).scale(c[n - k + 1]))
        c[n - k] = Fraction(-1, k) * am.trace()
    return c


def scanned_rational_eigenvalues(a):
    """Distinct rational eigenvalues: the matrix scaled to integers has only
    integer rational eigenvalues, inside its Gershgorin radius, and each
    integer there is evaluated."""
    n = a.rows
    scale = math.lcm(*(x.denominator for row in a.entries for x in row))
    m = a.scale(scale)
    coeffs = ratmatrix_char_poly(m)
    radius = max(sum(abs(x) for x in row) for row in m.entries)
    return [
        Fraction(t, scale)
        for t in range(-int(radius), int(radius) + 1)
        if sum(c * t**k for k, c in enumerate(coeffs)) == 0
    ]


def dense_eigenspace(a, lam):
    """Kernel of A - lam I, eliminated by dense_rref alone."""
    n = a.rows
    shifted = [[a[i, j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]
    return SubspaceBasis(n, map(sparse, dense_kernel(shifted, n)))


def restricting_joint_eigenspaces(ambient_dim, operators):
    spaces = [((), SubspaceBasis.full(ambient_dim))]
    for op in operators:
        refined = []
        for tag, space in spaces:
            if space.dim == 0:
                continue
            basis = space.matrix()
            restricted = restrict_operator(
                op,
                space.vectors,
                lambda _: IrrationalSpectrum("operator does not preserve the subspace"),
            )
            covered = 0
            for lam in scanned_rational_eigenvalues(restricted):
                sub = dense_eigenspace(restricted, lam)
                if sub.dim == 0:
                    continue
                covered += sub.dim
                lifted = SubspaceBasis(
                    ambient_dim,
                    [sparse(dense_apply(basis, dense(v, space.dim))) for v in sub.vectors],
                )
                refined.append((tag + (lam,), lifted))
            if covered != space.dim:
                raise IrrationalSpectrum("ad action does not split over the rationals")
        spaces = refined
    return spaces


def ad_matrix_centralizer(g, s, within=None):
    if within is None:
        within = SubspaceBasis.full(g.dim)
    if within.dim == 0 or s.dim == 0:
        return within
    w_vecs = [dense(v, g.dim) for v in within.vectors]
    rows = []
    for sv in s.vectors:
        ad_s = dense_ad(g, dense(sv, g.dim))
        # column a of the block is [within_a, sv] = -ad(sv) within_a
        images = [dense_apply(ad_s, wv) for wv in w_vecs]
        for coord in range(g.dim):
            rows.append([-img[coord] for img in images])
    vectors = []
    for kv in kernel(RatMatrix(rows)).vectors:
        out = [Fraction(0)] * g.dim
        for a, c in enumerate(dense(kv, within.dim)):
            for t in range(g.dim):
                out[t] += c * w_vecs[a][t]
        vectors.append(sparse(out))
    return SubspaceBasis(g.dim, vectors)


def recentralizing_maximal_abelian_in_s(l_alg, s_l, reverse=False):
    """Reference for parabolic.maximal_abelian_in_s: each step takes the
    centralizer of all the chosen vectors inside the whole of s_l."""
    if s_l.dim == 0:
        return s_l
    order = list(s_l.vectors)
    if reverse:
        order.reverse()
    chosen = [order[0]]
    a = SubspaceBasis(l_alg.dim, chosen)
    while True:
        z = centralizer(l_alg, a, within=s_l)
        candidates = list(z.vectors)
        if reverse:
            candidates.reverse()
        ext = next((v for v in candidates if not a.contains(v)), None)
        if ext is None:
            return a
        chosen.append(ext)
        a = SubspaceBasis(l_alg.dim, chosen)


def _lex_positive(root: tuple) -> bool:
    for x in root:
        if x != 0:
            return x > 0
    return False


def chained_minimal_parabolic(l_alg, k_l, s_l, reverse=False):
    """(m, a, n, p, decomposition) with every step on the references above;
    decomposition maps each joint ad(a) eigenvalue tag to its space."""
    a = s_l
    if s_l.dim:
        order = list(s_l.vectors)[:: -1 if reverse else 1]
        chosen = [order[0]]
        while True:
            a = SubspaceBasis(l_alg.dim, chosen)
            candidates = list(ad_matrix_centralizer(l_alg, a, within=s_l).vectors)
            if reverse:
                candidates.reverse()
            ext = next((v for v in candidates if not a.contains(v)), None)
            if ext is None:
                break
            chosen.append(ext)
    decomposition = dict(
        restricting_joint_eigenspaces(
            l_alg.dim, [dense_ad(l_alg, dense(v, l_alg.dim)) for v in a.vectors]
        )
    )
    n_space = SubspaceBasis.zero(l_alg.dim)
    for tag in sorted(decomposition):
        if _lex_positive(tag):
            n_space = subspace_sum(n_space, decomposition[tag])
    m_space = ad_matrix_centralizer(l_alg, a, within=k_l)
    p_space = subspace_sum(subspace_sum(m_space, a), n_space)
    return m_space, a, n_space, p_space, decomposition


# Reference for parabolic.is_spherical_triple, which reads the verdict off
# the count m + (l cap h) = k_l: the minimal parabolic m + a + n built in
# full, n from the lexicographically positive restricted root spaces, and
# the verdict p + (l cap h) = l by one more elimination.  It needs rational
# roots, so it is the reference on the shipped frames only.


class ParabolicSubalgebra(NamedTuple):
    m: SubspaceBasis
    a: SubspaceBasis
    n: SubspaceBasis
    p: SubspaceBasis


def minimal_parabolic(l_alg, k_l, s_l, reverse=False):
    """(ParabolicSubalgebra, RestrictedRootSpaces): positivity of roots is
    lexicographic against the canonical ordered basis of a, n is the sum of
    the positive root spaces, and m is the centralizer of a inside k_l."""
    a = maximal_abelian_in_s(l_alg, s_l, reverse=reverse)
    rrs = restricted_root_spaces(l_alg, a)
    positive = [
        v for root in rrs.roots if _lex_positive(root) for v in rrs.root_spaces[root].vectors
    ]
    n_space = SubspaceBasis(l_alg.dim, positive)
    m_space = centralizer(l_alg, a, within=k_l)
    p_space = SubspaceBasis(l_alg.dim, m_space.vectors + a.vectors + n_space.vectors)
    return ParabolicSubalgebra(m=m_space, a=a, n=n_space, p=p_space), rrs


def parabolic_sphericity(t, reverse=False):
    """(verdict, evidence) of parabolic.is_spherical_triple, from the
    minimal parabolic above."""
    k_l, s_l = t.cartan_split
    parabolic, rrs = minimal_parabolic(t.l_alg, k_l, s_l, reverse=reverse)
    lh = t.l_cap_h_in_l
    span = subspace_sum(parabolic.p, lh)
    evidence = {
        "dim_l": t.l_alg.dim,
        "dim_k_l": k_l.dim,
        "dim_s_l": s_l.dim,
        "dim_a": parabolic.a.dim,
        "dim_m": parabolic.m.dim,
        "dim_n": parabolic.n.dim,
        "dim_p": parabolic.p.dim,
        "dim_l_cap_h": lh.dim,
        "dim_p_plus_l_cap_h": span.dim,
        "roots": [
            {"root": [str(x) for x in root], "multiplicity": rrs.root_spaces[root].dim}
            for root in rrs.roots
        ],
    }
    return span.dim == t.l_alg.dim, evidence


# Metamorphic copies of a shipped entry, as descriptor dicts: the same triple
# written another way, for which every verb must give the shipped answers.


def rebased_entry(entry, seed):
    """entry with l as explicit vectors F T, F its frame and T a seeded
    unimodular integer matrix: 3 dim l column operations col_i += c col_j
    with c in {1, -1, 2, -2}."""
    cols = catalog.build(entry).descriptor.l_frame.columns()
    rng = random.Random(seed)
    for _ in range(3 * len(cols)):
        i, j = rng.sample(range(len(cols)), 2)
        c = rng.choice([1, -1, 2, -2])
        cols[i] = [x + c * y for x, y in zip(cols[i], cols[j])]
    out = entry.to_json_dict()
    out["l"] = {"kind": "explicit", "vectors": [[str(x) for x in col] for col in cols]}
    return out


def cayley_conjugated_entry(entry, seed):
    """entry with l and theta conjugated by Ad(c), c = (1 - Y)^-1 (1 + Y)
    the Cayley transform of a seeded integer combination Y of h's basis
    matrices in the defining realization of the ambient so(p, q).  c lies in
    H, so sigma stays; l is written as explicit vectors, theta as a matrix."""
    assert entry.algebra["kind"] == "so", entry.algebra
    p, q = entry.algebra["p"], entry.algebra["q"]
    d = catalog.build(entry).descriptor
    mats, size = d.g.matrices, p + q
    one = RatMatrix.identity(size)
    rng = random.Random(seed)
    while True:
        coeffs = [rng.randint(-2, 2) for _ in d.h.vectors]
        y = sum(
            (mats[k].scale(a * x) for a, v in zip(coeffs, d.h.vectors) for k, x in v.items()),
            RatMatrix.zeros(size, size),
        )
        try:
            c, c_inv = inverse(one - y) @ (one + y), inverse(one + y) @ (one - y)
            break
        except ValueError:  # 1 or -1 is an eigenvalue of y
            continue

    def ad(left, right):
        return RatMatrix.from_columns(
            d.g.dim, [so_coordinates(p, q, left @ m @ right) for m in mats]
        )

    ad_c, ad_c_inv = ad(c, c_inv), ad(c_inv, c)
    theta = ad_c @ d.theta.matrix @ ad_c_inv
    out = entry.to_json_dict()
    out["theta"] = {"kind": "matrix", "columns": [[str(x) for x in col] for col in theta.columns()]}
    out["l"] = {
        "kind": "explicit",
        "vectors": [[str(x) for x in col] for col in (ad_c @ d.l_frame).columns()],
    }
    return out


# The split octonions in Zorn's vector-matrix model: an octonion is
# (a, v, w, b) with scalars a, b and vectors v, w in Q^3.  Split G2 is the
# algebra of derivations of this product, a route independent of liealg.


def zmul(x, y):
    """Zorn's product of two split octonions."""
    a, v, w, b = x
    a2, v2, w2, b2 = y

    def dot(p, q):
        return sum(pi * qi for pi, qi in zip(p, q))

    def cross(p, q):
        return (
            p[1] * q[2] - p[2] * q[1],
            p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0],
        )

    return (
        a * a2 + dot(v, w2),
        tuple(a * v2[i] + b2 * v[i] - cross(w, w2)[i] for i in range(3)),
        tuple(a2 * w[i] + b * w2[i] + cross(v, v2)[i] for i in range(3)),
        b * b2 + dot(w, v2),
    )


def zorn_octonion(coords):
    """The octonion with coordinates in the basis (1, u0, v1..v3, w1..w3)."""
    unit, u0, *vw = (Fraction(c) for c in coords)
    return (unit + u0, tuple(vw[:3]), tuple(vw[3:]), unit - u0)


def zorn_coords(x):
    """Coordinates of an octonion in the basis (1, u0, v1..v3, w1..w3)."""
    a, v, w, b = x
    return [(a + b) / 2, (a - b) / 2, *v, *w]


def invariant_form_space(mats):
    """All symmetric F with X^T F + F X = 0 for every X in mats."""
    n = mats[0].rows
    idx = {}
    count = 0
    for i in range(n):
        for j in range(i, n):
            idx[(i, j)] = count
            count += 1
    rows = []
    for x in mats:
        for a in range(n):
            for b in range(a, n):
                row = [Fraction(0)] * count
                for k in range(n):
                    row[idx[(min(k, b), max(k, b))]] += x[k, a]
                    row[idx[(min(a, k), max(a, k))]] += x[k, b]
                rows.append(row)
    ker = kernel(RatMatrix(rows))
    forms = []
    for v in (dense(u, count) for u in ker.vectors):
        f = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), t in idx.items():
            f[i][j] = v[t]
            f[j][i] = v[t]
        forms.append(RatMatrix(f))
    return forms


def adjoint_casimir_matrix(g):
    """Sum ad(X_i) ad(Y_i) over Killing-dual bases, as an explicit matrix."""
    from lietriples.liealg import killing_form
    from lietriples.ratlin import inverse

    gram = killing_form(g)
    ginv = inverse(gram)
    n = g.dim
    total = RatMatrix.zeros(n, n)
    ads = [dense_ad(g, unit(n, i)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if ginv[i, j] != 0:
                total = total + (ads[i] @ ads[j]).scale(ginv[i, j])
    return total


def normal_order_words(words, bracket_fn):
    """Normal-order formal words of length <= 2 by adjacent swaps.

    words: list of (coefficient, index-tuple).  bracket_fn(a, b) must return
    the dense coordinate list of [Y_a, Y_b].  Returns the nonzero
    coefficients of the normal-ordered words, keyed by word, the shape of
    Quad2.terms.  This is a deliberately different algorithm from the
    library's matrix-transform path.
    """
    from fractions import Fraction

    terms = {}
    stack = list(words)
    while stack:
        c, w = stack.pop()
        if c == 0:
            continue
        if len(w) == 2 and w[0] > w[1]:
            a, b = w
            stack.append((c, (b, a)))
            for k, d in enumerate(bracket_fn(a, b)):
                if d != 0:
                    stack.append((c * d, (k,)))
        else:
            terms[w] = terms.get(w, Fraction(0)) + c
    return {w: c for w, c in terms.items() if c != 0}


def words_in_new_basis(words, s_matrix):
    """Substitute X_i = sum_a S[a, i] Y_a into every word."""
    out = []
    n = s_matrix.rows
    for c, w in words:
        if len(w) == 0:
            out.append((c, w))
        elif len(w) == 1:
            (i,) = w
            for a in range(n):
                if s_matrix[a, i] != 0:
                    out.append((c * s_matrix[a, i], (a,)))
        else:
            i, j = w
            for a in range(n):
                sa = s_matrix[a, i]
                if sa == 0:
                    continue
                for b in range(n):
                    sb = s_matrix[b, j]
                    if sb != 0:
                        out.append((c * sa * sb, (a, b)))
    return out


def naive_reduce(algebra, words, h):
    """Reduce formal ambient words modulo U(g) h by word rewriting.

    Independent of env2: builds the adapted basis, substitutes, normal
    orders by swaps, drops words whose last index lies in the h block, and
    relabels the survivors back to ambient coordinates.
    """
    from fractions import Fraction

    from lietriples.ratlin import RatMatrix, inverse

    pivots = set(h.pivots())
    front = [i for i in range(algebra.dim) if i not in pivots]
    cols = []
    for i in front:
        e = [Fraction(0)] * algebra.dim
        e[i] = Fraction(1)
        cols.append(e)
    cols.extend(dense(v, algebra.dim) for v in h.vectors)
    t = RatMatrix.from_columns(algebra.dim, cols)
    s = inverse(t)
    cache = {}

    def bracket_fn(a, b):
        if (a, b) not in cache:
            cache[(a, b)] = dense_apply(s, dense_bracket(algebra, t.column(a), t.column(b)))
        return cache[(a, b)]

    terms = normal_order_words(words_in_new_basis(words, s), bracket_fn)
    nf = len(front)
    return {tuple(front[i] for i in w): c for w, c in terms.items() if not w or w[-1] < nf}


def naive_transfer(built):
    """The whole Casimir transfer, recomputed by word rewriting.

    Uses a reversed greedy complement (a different w than the library
    default picks), so agreement also re-exercises complement independence.
    Returns the terms in l-coordinates, reduced mod U(l)(l cap h).
    """
    from fractions import Fraction

    from lietriples.liealg import killing_form
    from lietriples.ratlin import RatMatrix, SubspaceBasis, inverse

    g = built.g
    d = built.descriptor
    gram = killing_form(g)
    ginv = inverse(gram)
    words = [
        (ginv[i, j], (i, j))
        for i in range(g.dim)
        for j in range(g.dim)
        if ginv[i, j] != 0
    ]

    frame = built.descriptor.l_frame
    frame_cols = [list(frame.column(j)) for j in range(frame.cols)]
    chosen = list(frame_cols)
    base = SubspaceBasis(g.dim, map(sparse, chosen))
    for hv in reversed(list(d.h.vectors)):
        if base.dim == g.dim:
            break
        if not base.contains(hv):
            chosen.append(dense(hv, g.dim))
            base = SubspaceBasis(g.dim, map(sparse, chosen))
    assert base.dim == g.dim
    t = RatMatrix.from_columns(g.dim, chosen)
    s = inverse(t)
    cache = {}

    def bracket_fn(a, b):
        if (a, b) not in cache:
            cache[(a, b)] = dense_apply(s, dense_bracket(g, t.column(a), t.column(b)))
        return cache[(a, b)]

    terms = normal_order_words(words_in_new_basis(words, s), bracket_fn)
    n_l = frame.cols
    surv = [(c, w) for w, c in terms.items() if not w or w[-1] < n_l]

    from lietriples.ratlin import solve

    lh_ambient = subspace_intersection(d.l, d.h)
    lh = SubspaceBasis(n_l, [sparse(solve(frame, dense(v, g.dim))) for v in lh_ambient.vectors])
    return naive_reduce(built.l_alg, surv, lh)
