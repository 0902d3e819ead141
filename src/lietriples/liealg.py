"""Real Lie algebras as exact rational structure constants.

A LieAlgebra is a fixed ordered basis together with the sparse structure
tensor [X_i, X_j] = sum_k c[i][j][k] X_k and, when available, a matrix
realization that is kept consistent with the tensor.  The constructors below
cover everything the shipped catalog needs: sl(n,R), so(p,q), realified
u(p,q)/su(p,q), split G2 and direct sums.  Each simple one writes its basis
as explicit matrices (split G2 as derivations of the split octonions, in
closed form) and solves the structure constants from them; every basis
matrix is written by _matrix from its nonzero entries.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .ratlin import (
    AmbientMismatch,
    BasisSolver,
    DependentBasis,
    RatMatrix,
    SubspaceBasis,
    _rat,
    add_outer,
    combination,
    kernel,
    lowest_terms,
    over_one_denominator,
)


class NotClosed(ValueError):
    """A commutator escaped the span of the proposed basis."""


class LieAlgebra:
    """Finite-dimensional real Lie algebra over an ordered rational basis.

    A vector of the algebra is sparse, {index: coefficient}.
    """

    __slots__ = ("dim", "basis_labels", "int_table", "matrices", "_reducers")

    def __init__(
        self,
        basis_labels: Sequence[str],
        table: dict,
        matrices: Optional[Sequence[RatMatrix]] = None,
    ):
        """table maps (i, j) with i < j to a dict {k: coefficient}, all three
        ints in [0, dim); it is kept once, as int_table = (d * table, d), in
        Python ints over d, the lcm of its denominators."""
        dim = len(basis_labels)
        if matrices is not None and len(matrices) != dim:
            raise ValueError(f"{len(matrices)} matrices for {dim} labels")
        clean: dict = {}
        for key, comps in table.items():
            if not (type(key) is tuple and len(key) == 2
                    and all(type(k) is int and 0 <= k < dim for k in (*key, *comps))
                    and key[0] < key[1]):
                raise ValueError(f"structure table entry {key!r} is not indexed by ints "
                                 f"i < j and k in [0, {dim})")
            entry = {k: c for k, v in comps.items() if (c := _rat(v))}
            if entry:
                clean[key] = entry
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis_labels", tuple(basis_labels))
        object.__setattr__(self, "int_table", over_one_denominator(clean))
        object.__setattr__(self, "matrices", None if matrices is None else tuple(matrices))
        object.__setattr__(self, "_reducers", {})  # h -> env2.ideal_reducer(self, h)

    @classmethod
    def _of_int_table(cls, basis_labels, int_table: tuple, matrices=None) -> "LieAlgebra":
        """The algebra with this int_table, unchecked: it is over the lcm of its denominators."""
        g = cls(basis_labels, {}, matrices)
        object.__setattr__(g, "int_table", int_table)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    # -- brackets ---------------------------------------------------------

    def bracket_basis_sparse(self, i: int, j: int) -> dict:
        """[X_i, X_j] as a sparse {index: coefficient} dict."""
        table, d = self.int_table
        if i < j:
            return {k: Fraction(c, d) for k, c in table.get((i, j), {}).items()}
        return {k: Fraction(-c, d) for k, c in table.get((j, i), {}).items()}

    def bracket(self, v: dict, w: dict) -> dict:
        """[v, w] of two sparse vectors, as a sparse vector with no zero
        coefficient; w is divided by d only when d != 1."""
        table, d = self.int_table
        v = {i: _rat(a) for i, a in v.items()}
        w = {j: _rat(b) for j, b in w.items()} if d == 1 else {j: _rat(b) / d for j, b in w.items()}
        return _table_bracket(table, v, w)

    def ad(self, v: dict) -> RatMatrix:
        """Matrix of ad(v) acting on coordinates: column j is [v, X_j]."""
        n = self.dim
        return _matrix(n, {(k, j): x for j in range(n) for k, x in self.bracket(v, {j: 1}).items()})

    # -- validation -------------------------------------------------------

    def check_jacobi(self) -> None:
        """Jacobi identity on all basis triples i < j < k (others follow):
        [[X_i, X_j], X_k] + [[X_j, X_k], X_i] + [[X_k, X_i], X_j] = 0."""
        for i, j, k in combinations(range(self.dim), 3):
            cyclic = [self.bracket(self.bracket_basis_sparse(a, b), {c: 1})
                      for a, b, c in ((i, j, k), (j, k, i), (k, i, j))]
            if combination(dict.fromkeys(range(3), 1), cyclic):
                raise ValueError(f"Jacobi identity fails on basis triple ({i},{j},{k})")

    def check_matrix_consistency(self) -> None:
        """[M_i, M_j] = sum_k c_ij^k M_k on the matrices, compared flattened."""
        if self.matrices is None:
            return
        mats = self.matrices
        flat = [_flatten(m) for m in mats]
        for i, j in combinations(range(self.dim), 2):
            comm = _flatten(mats[i] @ mats[j] - mats[j] @ mats[i])
            if comm != combination(self.bracket_basis_sparse(i, j), flat):
                raise ValueError(
                    f"matrix realization disagrees with structure tensor at pair ({i},{j})"
                )

    def validate(self) -> None:
        self.check_jacobi()
        self.check_matrix_consistency()

    def __repr__(self):
        return f"LieAlgebra(dim {self.dim}: {', '.join(self.basis_labels)})"


def _matrix(n: int, entries: dict) -> RatMatrix:
    """The n x n matrix with the given {(row, column): value} entries, each
    value coerced once, and zero everywhere else."""
    rows: list = [{} for _ in range(n)]
    for (r, c), x in entries.items():
        if x := _rat(x):
            rows[r][c] = x
    return RatMatrix._of_rows(rows, n)


def _flatten(m: RatMatrix) -> dict:
    """A matrix as a sparse vector over its entries, row by row."""
    return {r * m.cols + c: x for r, row in enumerate(m.data) for c, x in row.items()}


def _table_bracket(table: dict, v: dict, w: dict) -> dict:
    """sum v_i w_j [X_i, X_j] by the int table {(i, j): [X_i, X_j]}, i < j, with
    no zero coefficient: the one bracket kernel, in ints for the structure
    tables and the automorphism check, on Fractions for LieAlgebra.bracket,
    whose vectors are mostly too short for a scaling to ints to pay."""
    out: dict = {}
    w_terms = w.items()
    for i, a in v.items():
        for j, b in w_terms:
            # [X_i, X_j] is table[(i, j)] for i < j; no key has i = j
            comps = table.get((i, j) if i < j else (j, i))
            if comps:
                ab = a * b if i < j else -a * b
                for k, c in comps.items():
                    x = ab * c
                    prev = out.get(k)
                    out[k] = x if prev is None else prev + x
    return {k: c for k, c in out.items() if c}


def _gl_table(n: int, positions) -> dict:
    """The int structure table of gl(n) on the matrix units E_rc at the
    given flattened positions r n + c, [E_a, E_b] = E_a E_b - E_b E_a with
    E_rk E_kc = E_rc: the commutator of matrices flattened on them."""
    by_row: dict = {}
    for a in positions:
        by_row.setdefault(a // n, []).append(a)
    table: dict = {}
    for a in positions:
        r, k = divmod(a, n)
        for b in by_row.get(k, ()):
            if a != b:  # E_a E_b adds to [E_a, E_b] and subtracts from [E_b, E_a]
                entry = table.setdefault((min(a, b), max(a, b)), {})
                rc = r * n + b % n
                entry[rc] = entry.get(rc, 0) + (1 if a < b else -1)
    return table


def _structure_table(basis: Sequence[dict], int_table: tuple, not_closed: str) -> tuple:
    """The int_table of the span of the sparse vectors b in an algebra whose
    int_table is (T, d_t), in ints: with B = d_b b, the coordinates x of
    [B_i, B_j] in B give those of [b_i, b_j] in b as x / (divisor d_t d_b).
    The first pair whose bracket leaves the span raises NotClosed."""
    scaled, d_b = over_one_denominator(dict(enumerate(basis)))
    vectors, (table, d_t) = list(scaled.values()), int_table
    solver = BasisSolver(vectors)
    out: dict = {}
    for i, j in combinations(range(len(vectors)), 2):
        x = solver.int_coordinates(_table_bracket(table, vectors[i], vectors[j]))
        if x is None:
            raise NotClosed(not_closed.format(i, j))
        if x:
            out[(i, j)] = x
    return lowest_terms(out, solver.divisor * d_t * d_b)


def _labels(labels: Optional[Sequence[str]], n: int, prefix: str) -> Sequence[str]:
    """labels, or prefix0, prefix1, ... if None; ValueError unless one per vector."""
    if labels is not None and len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} basis vectors")
    return [f"{prefix}{i}" for i in range(n)] if labels is None else labels


def from_matrix_basis(
    mats: Sequence[RatMatrix], labels: Optional[Sequence[str]] = None
) -> LieAlgebra:
    """Lie algebra spanned by matrices, with exactly solved structure constants.

    Raises ValueError unless there is one label per matrix, DependentBasis
    if the matrices are linearly dependent and NotClosed if some commutator
    falls outside their span.
    """
    mats = [m if isinstance(m, RatMatrix) else RatMatrix(m) for m in mats]
    if not mats:
        raise DependentBasis("empty basis")
    n = mats[0].rows
    if any(m.rows != n or m.cols != n for m in mats):
        raise ValueError("basis matrices must be square of equal size")
    labels = _labels(labels, len(mats), "X")
    flat = [_flatten(m) for m in mats]
    message = "commutator of basis elements {} and {} leaves the span"
    table = _structure_table(flat, (_gl_table(n, set().union(*flat)), 1), message)
    return LieAlgebra._of_int_table(labels, table, mats)


# -- catalog constructors --------------------------------------------------


def sl(n: int) -> LieAlgebra:
    """sl(n, R).  For n = 2 the basis is the classical (H, E, F)."""
    if n < 2:
        raise ValueError("sl(n) needs n >= 2")
    roots = [(i, j) for i in range(n) for j in range(n) if i != j]
    mats = [_matrix(n, {(i, i): 1, (i + 1, i + 1): -1}) for i in range(n - 1)]
    mats += [_matrix(n, {ij: 1}) for ij in roots]
    if n == 2:
        labels = ["H", "E", "F"]
    else:
        labels = [f"H{i + 1}" for i in range(n - 1)] + [f"E{i + 1}{j + 1}" for i, j in roots]
    return from_matrix_basis(mats, labels)


def so_form_signs(p: int, q: int) -> list[int]:
    return [1] * p + [-1] * q


def so(p: int, q: int) -> LieAlgebra:
    """so(p, q): real matrices with X^T J + J X = 0, J = diag(I_p, -I_q).

    Basis is M[k,l] = E_kl - eps_k eps_l E_lk for k < l, ordered
    lexicographically; the coordinate of a matrix on M[k,l] is simply its
    (k,l) entry, which keeps all decompositions trivial.
    """
    m = p + q
    if m < 2:
        raise ValueError("so(p, q) needs p + q >= 2")
    eps = so_form_signs(p, q)
    pairs = list(combinations(range(m), 2))
    mats = [_matrix(m, {(k, l): 1, (l, k): -eps[k] * eps[l]}) for k, l in pairs]
    return from_matrix_basis(mats, [f"M[{k + 1},{l + 1}]" for k, l in pairs])


def so_coordinates(p: int, q: int, mat: RatMatrix) -> list:
    """Coordinates of a matrix of so(p, q) in the basis produced by so()."""
    return [mat[k, l] for k, l in combinations(range(p + q), 2)]


def realify(m: int, entries: dict) -> RatMatrix:
    """Real 2m x 2m matrix of the complex m x m matrix with the given
    {(i, j): (a, b)} entries a + b i, in interleaved coordinates.

    Coordinates are ordered (re_1, im_1, re_2, im_2, ...); the complex entry
    a + b i becomes the 2x2 block [[a, -b], [b, a]].
    """
    out = {}
    for (i, j), (a, b) in entries.items():
        r, c = 2 * i, 2 * j
        out.update({(r, c): a, (r, c + 1): -b, (r + 1, c): b, (r + 1, c + 1): a})
    return _matrix(2 * m, out)


def u_matrices(p: int, q: int) -> tuple[list, list]:
    """The realified basis matrices of u(p, q) and their labels, m = p + q.

    Order: the diagonals iD_k = i E_kk first, then for each k < l the pair
    A[k,l] = E_kl - eps E_lk and B[k,l] = i (E_kl + eps E_lk).  With the
    interleaved coordinate convention the image lies inside so(2p, 2q) for
    p = 1 literally (same defining form diag(I_2, -I_2q)).
    """
    m = p + q
    if m < 1:
        raise ValueError("u(p, q) needs p + q >= 1")
    eps = so_form_signs(p, q)
    mats = [realify(m, {(k, k): (0, 1)}) for k in range(m)]
    labels = [f"iD{k + 1}" for k in range(m)]
    for k, l in combinations(range(m), 2):
        s = eps[k] * eps[l]
        mats += [realify(m, {(k, l): (1, 0), (l, k): (-s, 0)}),
                 realify(m, {(k, l): (0, 1), (l, k): (0, s)})]
        labels += [f"A[{k + 1},{l + 1}]", f"B[{k + 1},{l + 1}]"]
    return mats, labels


def su_matrices(p: int, q: int) -> tuple[list, list]:
    """The realified basis matrices of su(p, q), the trace-zero part of
    u(p, q), and their labels: the m - 1 differences iH_k = iD_k - iD_{k+1}
    of the diagonal matrices of u_matrices, then its A/B pairs."""
    m = p + q
    if m < 2:
        raise ValueError("su(p, q) needs p + q >= 2")
    mats, labels = u_matrices(p, q)
    diffs = [mats[k] - mats[k + 1] for k in range(m - 1)]
    return diffs + mats[m:], [f"iH{k + 1}" for k in range(m - 1)] + labels[m:]


def u(p: int, q: int) -> LieAlgebra:
    """Realification of u(p, q), as real (2m x 2m) matrices (see u_matrices)."""
    return from_matrix_basis(*u_matrices(p, q))


def su(p: int, q: int) -> LieAlgebra:
    """Realified su(p, q) (see su_matrices)."""
    return from_matrix_basis(*su_matrices(p, q))


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Block direct sum; labels get _1 / _2 suffixes."""
    labels = [f"{lab}_1" for lab in a.basis_labels] + [
        f"{lab}_2" for lab in b.basis_labels
    ]
    table: dict = {}
    for off, (ints, d) in ((0, a.int_table), (a.dim, b.int_table)):
        for (i, j), comps in ints.items():
            table[(i + off, j + off)] = {k + off: Fraction(c, d) for k, c in comps.items()}
    matrices = None
    if a.matrices is not None and b.matrices is not None:
        na = a.matrices[0].rows
        n = na + b.matrices[0].rows

        def block(m, off):
            return _matrix(n, {(off + r, off + c): x for r, row in enumerate(m.data)
                               for c, x in row.items()})

        matrices = [block(m, 0) for m in a.matrices] + [block(m, na) for m in b.matrices]
    return LieAlgebra(labels, table, matrices=matrices)


def diagonal_subalgebra(ab: LieAlgebra) -> SubspaceBasis:
    """Diagonal {(X, X)} inside a direct sum of two equal-dimension factors."""
    if ab.dim % 2 != 0:
        raise ValueError("not a direct sum of two equal factors")
    half = ab.dim // 2
    return SubspaceBasis(ab.dim, [{i: 1, i + half: 1} for i in range(half)])


def g2_matrices() -> tuple[list, list]:
    """The split G2 basis as 7 x 7 matrices in so(4, 3), and its labels.

    Split G2 is the derivation algebra of the split octonions.  On the
    imaginary split octonions, in Zorn coordinates (u0, v1, v2, v3, w1, w2,
    w3), each basis derivation is one formula; "a -> c b" means that the
    basis vector a goes to c times b, and unnamed vectors go to 0:

      H1, H2  v_i -> t_i v_i and w_i -> -t_i w_i, with t = (1, 1, -2) for
              H1 and t = (0, -1, 1) for H2
      e_ij    v_j -> v_i, w_i -> -w_j  (the sl(3) root vectors)
      x_k     v_k -> u0, u0 -> -2 w_k, w_a -> -eps(k, a, b) v_b, where eps
              is the sign of the permutation (k, a, b)
      y_k     x_k with v and w swapped

    The basis is H1, H2, then E1..E6 = e_32, x_3, x_2, y_1, e_13, e_12 (the
    positive roots by height) and F1..F6 = e_23, -y_3, -y_2, -x_1, e_31, e_21
    (the opposite roots), normalised so that [E_r, F_r] = H_r with
    r(H_r) = 2.  The matrices are conjugated into the basis (u0, v_i + w_i,
    v_i - w_i), where the octonion norm ab - v.w is -diag(I_4, -I_3); they
    preserve it, so they lie in so(4, 3) literally.
    """

    def v(i):
        return i

    def w(i):
        return 3 + i

    def moves(*images):
        """The matrix sending each basis vector a to c b, for (a, c, b)."""
        return _matrix(7, {(b, a): c for a, c, b in images})

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


def g2_split() -> LieAlgebra:
    """Split G2 (dim 14) on the basis of g2_matrices, with integer constants."""
    return from_matrix_basis(*g2_matrices())


# -- forms and subspace calculus -------------------------------------------


def killing_form(g: LieAlgebra) -> RatMatrix:
    """The symmetric Gram matrix B(X_i, X_j) = trace(ad X_i ad X_j).

    With [X_i, X_k] = sum_m c_ik^m X_m, B_ij = sum_(k,m) c_ik^m c_jm^k: B is
    the sum over (k, m) of the outer products P_km (x) P_mk, P_km the sparse
    vector i -> c_ik^m, read off the nonzero entries of the integer table;
    each Gram entry is one Fraction over the table's denominator squared.
    """
    table, d = g.int_table
    p: dict = {}
    for (i, j), comps in table.items():
        for m, c in comps.items():  # c_ij^m = c and c_ji^m = -c
            p.setdefault((j, m), {})[i] = c
            p.setdefault((i, m), {})[j] = -c
    gram: dict = {}
    for (k, m), v in p.items():
        add_outer(gram, v, p.get((m, k), {}))
    return _matrix(g.dim, {ij: Fraction(t, d * d) for ij, t in gram.items()})


def check_ambient(g: LieAlgebra, *subspaces: SubspaceBasis) -> None:
    """Raise AmbientMismatch unless every subspace lies in g's coordinates."""
    for s in subspaces:
        if s.ambient_dim != g.dim:
            raise AmbientMismatch(f"a subspace of R^{s.ambient_dim} in an algebra of dim {g.dim}")


def restrict_form(gram: RatMatrix, s: SubspaceBasis) -> RatMatrix:
    """Gram matrix of a symmetric form on the canonical basis of s."""
    p = s.matrix()
    return p.transpose() @ gram @ p


def centralizer(
    g: LieAlgebra, s: SubspaceBasis, within: Optional[SubspaceBasis] = None
) -> SubspaceBasis:
    """{x in within : [x, s] = 0}, via the kernel of the stacked bracket
    system: for each vector of s, one block of rows whose column a is
    [within_a, s_vector], a sparse bracket."""
    if within is None:
        within = SubspaceBasis.full(g.dim)
    check_ambient(g, s, within)
    if within.dim == 0 or s.dim == 0:
        return within
    rows = []
    for sv in s.vectors:
        images = [g.bracket(wv, sv) for wv in within.vectors]
        rows += RatMatrix._of_rows(images, g.dim).transpose().data
    kept = kernel(RatMatrix._of_rows(rows, within.dim)).vectors
    return SubspaceBasis(g.dim, (combination(x, within.vectors) for x in kept))


def is_subalgebra(g: LieAlgebra, s: SubspaceBasis) -> bool:
    check_ambient(g, s)
    return all(s.contains(g.bracket(a, b)) for a, b in combinations(s.vectors, 2))


def subalgebra_on_own_basis(
    g: LieAlgebra, basis_vectors: Sequence[dict], labels: Optional[Sequence[str]] = None
) -> LieAlgebra:
    """A subalgebra of g as a LieAlgebra in its own right, on the given basis
    vectors (sparse, in g-coordinates), with no matrix realization.  Brackets
    are re-solved in that basis; raises ValueError unless there is one label
    per vector, and NotClosed when the span is not closed."""
    b = list(basis_vectors)
    labels = _labels(labels, len(b), "Z")
    int_table = _structure_table(b, g.int_table, "span is not closed under the bracket")
    return LieAlgebra._of_int_table(labels, int_table)
