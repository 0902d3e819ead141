"""Degree-two universal enveloping algebra calculus.

Elements are kept in PBW normal order with respect to the owning algebra's
fixed basis, as one map from the monomials (), X_i and X_i X_j with i <= j
to their coefficients.  Reordering a product X_j X_i with j > i costs
exactly one commutator, which keeps everything inside degree two.

The reduction modulo a left ideal U(g) h and the transfer of an H-invariant
element of U(g) into U(l) along g = l + h rest on one identity.  Split each
basis vector as X_k = f_k + eta_k, f_k in a front space complementary to h
and eta_k in h.  Since f eta lies in U(g) h and eta_i f_j = f_j eta_i +
[eta_i, f_j], modulo U(g) h, for every ordered pair (i, j),

    X_k = f_k    and    X_i X_j = f_i f_j + front([eta_i, f_j]).

The reduction takes the standard complement of h as front space; the
transfer takes a section of g/h inside l, solved once per triple.  Any split
gives the same canonical image, since U(l) cap U(g) h = U(l)(l cap h) when
l + h = g.  All of it runs in Python ints: an element is read once as int
rows over one denominator (_int_rows), one kernel (_split_ints) applies the
identity through the int structure tables (LieAlgebra.int_table), and only
a result becomes a Quad2, one Fraction per coefficient (_over).  Each
algebra keeps one IdealReducer per span of h (ideal_reducer), which
memoizes by value the reduced terms and the H-invariance verdicts.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .liealg import LieAlgebra, _check_indices, _table_bracket, check_ambient, is_subalgebra
from .ratlin import (
    RatMatrix,
    SubspaceBasis,
    _rat,
    add_outer,
    add_over,
    combination,
    coordinates_in,
    inverse,
    over_one_denominator,
    solve,
)

if TYPE_CHECKING:
    from .pairs import TripleDescriptor


class DegenerateForm(ValueError):
    """The normalizing form is singular on the requested subspace."""


class NotInvariant(ValueError):
    """The element is not invariant under the symmetry subalgebra."""


class NotTransitive(ValueError):
    """l + h does not fill the ambient algebra."""


def same_algebra(a, b) -> bool:
    """The one rule for whether two algebras are the same: the same object,
    or equal basis_labels and int_table (a twin).  a and b are LieAlgebras
    or IdealReducers, which keep both."""
    return a is b or a.basis_labels == b.basis_labels and a.int_table == b.int_table


class Quad2:
    """A degree <= 2 element of U(g) in PBW normal-ordered form: terms maps
    each monomial, () or (i,) or (i, j) with i <= j, to its nonzero coefficient;
    key, frozenset(terms.items()), is kept once built: hash and memos read it."""

    __slots__ = ("algebra", "terms", "_key")

    def __init__(self, algebra: LieAlgebra, terms: Optional[dict] = None):
        kept, n = {}, algebra.dim
        for m, c in (terms or {}).items():
            if type(m) is not tuple or m and not (
                len(m) < 3 and type(m[0]) is type(m[-1]) is int and 0 <= m[0] <= m[-1] < n
            ):
                raise ValueError(f"{m!r} is not a normal-ordered monomial over the algebra")
            c = _rat(c)
            if c != 0:
                kept[m] = c
        self._set(algebra, kept)

    @classmethod
    def _of_terms(cls, algebra: LieAlgebra, terms: dict) -> "Quad2":
        """The Quad2 with these terms, normal-ordered monomials to nonzero
        Fractions: nothing is coerced or checked, and the dict is kept."""
        q = object.__new__(cls)
        q._set(algebra, terms)
        return q

    def _set(self, algebra: LieAlgebra, terms: dict) -> None:
        for name, value in (("algebra", algebra), ("terms", terms), ("_key", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Quad2 is immutable")

    @staticmethod
    def zero(algebra: LieAlgebra) -> "Quad2":
        return Quad2._of_terms(algebra, {})

    def __add__(self, other: "Quad2") -> "Quad2":
        if not same_algebra(self.algebra, other.algebra):
            raise ValueError("Quad2 values over different algebras")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Quad2._of_terms(self.algebra, {m: c for m, c in terms.items() if c})

    def __sub__(self, other: "Quad2") -> "Quad2":
        return self + other.scale(-1)

    def scale(self, c) -> "Quad2":
        c = _rat(c)
        terms = {m: c * v for m, v in self.terms.items()} if c else {}
        return Quad2._of_terms(self.algebra, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, Quad2) and same_algebra(self.algebra, other.algebra)
                and self.terms == other.terms)

    def __hash__(self):
        return hash(self.key)

    @property
    def key(self) -> frozenset:
        if self._key is None:
            object.__setattr__(self, "_key", frozenset(self.terms.items()))
        return self._key

    def ordered_terms(self) -> list:
        """The terms, quadratic, then linear, then constant, each by index."""
        return sorted(self.terms.items(), key=lambda t: (-len(t[0]), t[0]))

    def __repr__(self):
        labels = self.algebra.basis_labels
        parts = [
            f"{c}*{''.join(labels[i] for i in m)}" if m else str(c)
            for m, c in self.ordered_terms()
        ]
        return " + ".join(parts) or "0"


def _normal_order(algebra: LieAlgebra, table: dict) -> Quad2:
    """sum c X_a X_b over the (a, b) -> c table in PBW normal order; callers
    fill the table first and order it once, so no Quad2 is built per term."""
    scaled, d = over_one_denominator({0: table})
    quad, lin, d_t = _order_ints(algebra.int_table, scaled[0])
    return _over(algebra, quad, d, lin, d * d_t)


def _order_ints(int_table: tuple, table: dict) -> tuple:
    """(quad, lin, d_t): sum c X_a X_b over the int (a, b) -> c table in PBW
    normal order by int_table = (T, d_t), quad as int rows quad[a][b] with
    a <= b.  X_a X_b with a > b is X_b X_a + [X_a, X_b], and the commutators
    go into lin over d_t."""
    structure, d_t = int_table
    quad: dict = {}
    lin: dict = {}
    for (a, b), c in table.items():
        if a > b:
            for k, t in structure.get((b, a), {}).items():
                lin[k] = lin.get(k, 0) - c * t
            a, b = b, a
        row = quad.setdefault(a, {})
        row[b] = row.get(b, 0) + c
    return quad, lin, d_t


def _dual_pairs(sub: SubspaceBasis, form: RatMatrix) -> list:
    """(Z_i, Y_i) over the basis Z of the subspace and its form-dual basis
    Y_i = sum_j (G^-1)_ij Z_j, the columns of Z G^-1 (G is the symmetric
    Gram matrix), as sparse vectors."""
    if form.rows != sub.dim or form.cols != sub.dim:
        raise ValueError("form has the wrong size for the subspace basis")
    if not form.is_symmetric():
        raise DegenerateForm("normalizing form must be symmetric")
    try:
        ginv = inverse(form)
    except ValueError:
        raise DegenerateForm("normalizing form is singular on the subspace") from None
    z = sub.vectors
    return [(z_i, combination(row, z)) for z_i, row in zip(z, ginv.data)]


def casimir(algebra: LieAlgebra, sub: SubspaceBasis, form: RatMatrix) -> Quad2:
    """Sum of X_i Y_i over form-dual bases of the subspace, normal-ordered.

    The element does not depend on the chosen basis of the subspace: with
    G the Gram matrix it is sum_ij (G^-1)_ij Z_i Z_j, and G^-1 transforms
    contravariantly.  For a subalgebra with an invariant form this is the
    usual Casimir; for a plain subspace the same formula is applied as is.
    """
    check_ambient(algebra, sub)
    if sub.dim == 0:
        return Quad2.zero(algebra)
    table: dict = {}
    for z, y in _dual_pairs(sub, form):
        add_outer(table, z, y)
    return _normal_order(algebra, table)


def symmetrized_casimir(algebra: LieAlgebra, sub: SubspaceBasis, form: RatMatrix) -> Quad2:
    """(1/2) sum (X_i Y_i + Y_i X_i) over form-dual bases.

    Provably equal to casimir() for any symmetric form: the difference is
    half the contraction of the symmetric inverse Gram with the
    antisymmetric bracket.  Provided so the equality is a computed fact
    rather than a claim: both orders go into the table, and normal ordering
    the reversed products is what brings the two together.
    """
    check_ambient(algebra, sub)
    if sub.dim == 0:
        return Quad2.zero(algebra)
    half = Fraction(1, 2)
    table: dict = {}
    for z, y in _dual_pairs(sub, form):
        half_z = {k: half * x for k, x in z.items()}
        add_outer(table, half_z, y)
        add_outer(table, y, half_z)
    return _normal_order(algebra, table)


def bracket_with(q: Quad2, x) -> Quad2:
    """Commutator [q, x] with a degree-one element x, a basis index or a
    sparse vector of exact rationals (read as _rat reads them): the products
    of _bracket_rows, normal-ordered once.  An index that is no basis index
    is a ValueError, as Quad2 refuses it in a monomial."""
    algebra = q.algebra
    x = {x: 1} if isinstance(x, int) else {k: _rat(c) for k, c in x.items()}
    _check_indices(x, algebra.dim)
    xv, d_x = over_one_denominator({0: x})
    rows, lin, d_q = _int_rows(q)
    rows, lin = _bracket_rows(rows, lin, algebra.int_table[0], xv[0])
    table = {(i, j): c for i, row in rows.items() for j, c in row.items()}
    quad, lin_o, d_t = _order_ints(algebra.int_table, table)
    d = d_q * d_x * d_t  # the table's d_t and that of the commutators
    return _over(algebra, quad, d, *add_over(lin_o, d * d_t, lin, d))


def _int_rows(q: Quad2) -> tuple:
    """(rows, lin, d): the terms c X_i X_j of q as rows[i][j] = d c and c X_k
    as lin[k] = d c, in Python ints over one denominator d."""
    scaled, d = over_one_denominator({0: q.terms})
    rows: dict = {}
    lin: dict = {}
    for m, c in scaled[0].items():
        if len(m) == 2:
            rows.setdefault(m[0], {})[m[1]] = c
        elif m:
            lin[m[0]] = c
    return rows, lin, d


def _bracket_rows(rows: dict, lin: dict, structure: dict, y: dict) -> tuple:
    """(rows, lin) of [q, y] for q in int rows and lin and an int vector y,
    by an int structure table over d_t: [X_i X_j, y] = X_i [X_j, y] + [X_i,
    y] X_j as rows, not normal-ordered, and sum c_k [X_k, y] as lin, both
    scaled by d_t.  Each index of q is bracketed with y once."""
    indices = {*rows, *lin, *(j for row in rows.values() for j in row)}
    ad = {i: _table_bracket(structure, {i: 1}, y) for i in indices}  # [X_i, y]
    out: dict = {}
    for i, row in rows.items():
        out_i = out.setdefault(i, {})
        for j, c in row.items():
            for b, x in ad[j].items():  # X_i [X_j, y]
                out_i[b] = out_i.get(b, 0) + c * x
            for a, x in ad[i].items():  # [X_i, y] X_j
                out_a = out.setdefault(a, {})
                out_a[j] = out_a.get(j, 0) + c * x
    return out, combination(lin, ad)


def _reduce_split(q: Quad2, front_alg: LieAlgebra, split: tuple) -> Quad2:
    """q modulo U(g) h over the front space, by the split (front, d_f, eta,
    d_e): front[k] = d_f f_k in front_alg coordinates, eta[k] = d_e eta_k.

    The identity of the module docstring is bilinear, so _split_ints makes
    one pass over the int rows c_ij of q for M = sum_i f_i (x) (sum_j c_ij
    f_j), normal-ordered once in front_alg, and r = sum c_ij [eta_i, X_j],
    sent with the linear part of q to the front, y -> sum_k y_k f_k.  r has
    X_j = f_j + eta_j for f_j: the extra [eta_i, eta_j] lies in h, so its
    front part is zero on the standard complement of h and lies in l cap h
    in the transfer, whose reduction modulo U(l)(l cap h) removes it.
    """
    rows, lin, d = _int_rows(q)
    tables = (q.algebra.int_table, front_alg.int_table)
    return _over(front_alg, *_split_ints(rows, d, lin, d, tables, split), q.terms.get((), 0))


def _split_ints(rows: dict, d_q: int, lin: dict, d_l: int, tables: tuple, split: tuple) -> tuple:
    """(quad, d_quad, lin, d_lin): rows / d_q + lin / d_l modulo U(g) h over
    the front in ints; rows[i][j] is the coefficient of X_i X_j for any
    ordered pair (i, j), tables (g.int_table, front_alg.int_table)."""
    front, d_f, eta, d_e = split
    (structure, d_g), front_table = tables
    m_table: dict = {}
    rest: dict = {}  # sum c_ij [eta_i, X_j], ambient coordinates
    for i, terms in rows.items():
        # sum_j c_ij f_j, front coordinates
        add_outer(m_table, front[i], combination(terms, front))
        if eta[i]:
            for k, x in _table_bracket(structure, eta[i], terms).items():
                rest[k] = rest.get(k, 0) + x
    quad, lin_m, d_t = _order_ints(front_table, m_table)
    d_quad = d_f * d_f * d_q
    rest, d_r = add_over(rest, d_e * d_q * d_g, lin, d_l)
    lin, d_lin = add_over(lin_m, d_quad * d_t, combination(rest, front), d_r * d_f)
    return quad, d_quad, lin, d_lin


def _over(algebra: LieAlgebra, quad: dict, d_quad: int, lin: dict, d_lin: int, const=0) -> Quad2:
    """The Quad2 of the int rows quad / d_quad, lin / d_lin and const, a
    coefficient of q or 0, with one Fraction per nonzero coefficient."""
    terms = {(a, b): Fraction(n, d_quad) for a, row in quad.items() for b, n in row.items() if n}
    terms.update({(k,): Fraction(n, d_lin) for k, n in lin.items() if n})
    if const:
        terms[()] = const
    return Quad2._of_terms(algebra, terms)


def _echelon_split(h: SubspaceBasis) -> tuple:
    """(front, d, eta, d): the split X_k = f_k + eta_k in int vectors over
    d, the front space spanned by the standard basis off the pivots of h.
    Off a pivot X_i = f_i with eta_i = 0; at the pivot p of the h vector v,
    eta_p = v and f_p = e_p - v, zero at every pivot: y -> sum_k y_k f_k
    projects g onto the coordinates off the pivots, with kernel h.  No
    elimination is needed."""
    n = h.ambient_dim
    vectors, d = over_one_denominator(dict(enumerate(h.vectors)))
    front = [{k: d} for k in range(n)]
    eta: list = [{} for _ in range(n)]
    for p, v in zip(h.pivots(), vectors.values()):
        eta[p] = v
        front[p] = {i: -x for i, x in v.items() if i != p}  # v[p] = d
    return front, d, eta, d


class IdealReducer:
    """Canonical reduction modulo the left ideal U(g) h for a fixed h, on the
    split _echelon_split(h).  It holds basis_labels and int_table, not the
    algebra (so no cycle forms), and checks each element against them
    (same_algebra) before any work or memo lookup.  coordinates and
    h_invariant memoize by value, reduce does not."""

    def __init__(self, algebra: LieAlgebra, h: SubspaceBasis):
        self.basis_labels, self.int_table = algebra.basis_labels, algebra.int_table
        self._h = h.int_rows
        self._split = _echelon_split(h)
        self._coordinates: dict = {}
        self._h_invariant: dict = {}

    def _check(self, q: Quad2) -> None:
        if not same_algebra(q.algebra, self):
            raise ValueError("the element is not over the reducer's algebra")

    def reduce(self, q: Quad2) -> Quad2:
        self._check(q)
        rows, lin, d = _int_rows(q)
        return _over(q.algebra, *self._reduce_ints(rows, d, lin, d), q.terms.get((), 0))

    def _reduce_ints(self, rows: dict, d_q: int, lin: dict, d_l: int) -> tuple:
        """The reduced form of rows / d_q + lin / d_l, in and out as _split_ints."""
        tables = (self.int_table, self.int_table)
        quad, d_quad, lin, d_lin = _split_ints(rows, d_q, lin, d_l, tables, self._split)
        front, d_f = self._split[:2]
        # the front space is no subalgebra: normal ordering f_i f_j leaves it
        return quad, d_quad, combination(lin, front), d_lin * d_f

    def _memo(self, memo: dict, q: Quad2, compute):
        """compute(q), kept in memo by the value of q once q is checked."""
        self._check(q)
        out = memo.get(q.key)
        if out is None:
            out = memo[q.key] = compute(q)
        return out

    def coordinates(self, q: Quad2) -> dict:
        """The terms of the reduced form of q, shared: linear and canonical, so
        two elements agree modulo U(g) h exactly when their coordinates do."""
        return self._memo(self._coordinates, q, lambda q: self.reduce(q).terms)

    def h_invariant(self, q: Quad2) -> bool:
        """[q, y] = 0 mod U(g) h for every y in the basis of h."""
        return self._memo(self._h_invariant, q, self._is_invariant)

    def _is_invariant(self, q: Quad2) -> bool:
        """h_invariant(q) in ints: [q, y] for each int row y of h, reduced, is 0."""
        rows, lin, _ = _int_rows(q)
        for y in self._h:
            bracket_rows, bracket_lin = _bracket_rows(rows, lin, self.int_table[0], y)
            quad, _, rest, _ = self._reduce_ints(bracket_rows, 1, bracket_lin, 1)
            if rest or any(c for row in quad.values() for c in row.values()):
                return False
        return True


def ideal_reducer(algebra: LieAlgebra, h: SubspaceBasis) -> IdealReducer:
    """The IdealReducer modulo U(algebra) h, built at the first request for
    this algebra object and span of h, kept on it.  An h of unknown origin
    arrives here, so it is checked first; only the transfer keeps reducers
    unchecked (_canonical_transfer_split)."""
    reducer = algebra._reducers.get(h)
    if reducer is None:
        check_ambient(algebra, h)
        if not is_subalgebra(algebra, h):
            raise ValueError("h is not a subalgebra; reduction would be ill-defined")
        reducer = algebra._reducers[h] = IdealReducer(algebra, h)
    return reducer


def reduce_mod_left_ideal(q: Quad2, h: SubspaceBasis) -> Quad2:
    """Canonical representative of q modulo U(g) h, in the algebra's basis."""
    return ideal_reducer(q.algebra, h).reduce(q)


def equals_mod_ideal(a: Quad2, b: Quad2, h: SubspaceBasis) -> bool:
    reducer = ideal_reducer(a.algebra, h)
    return reducer.coordinates(a) == reducer.coordinates(b)


def check_h_invariant(q: Quad2, h: SubspaceBasis) -> bool:
    """[q, y] = 0 mod U(g) h for every y in the basis of h (a memo lookup)."""
    return ideal_reducer(q.algebra, h).h_invariant(q)


def iota_embed(t: TripleDescriptor, q: Quad2, complement_seed: Optional[int] = None) -> Quad2:
    """Transfer an H-invariant degree <= 2 element of U(g) into U(l).

    Reduces q modulo U(g) h over the split X_k = f_k + eta_k, f_k in l and
    eta_k in h (_transfer_split), then modulo U(l)(l cap h) on l_alg's
    reducer, both by _split_ints with only int rows between them.  The
    result is canonical whatever the split; complement_seed moves each f_k
    by a seeded element of l cap h, for exercising exactly that.
    """
    if not same_algebra(q.algebra, t.g):
        raise ValueError("q is not an element over the ambient algebra")
    split = _transfer_split(t, complement_seed)
    if not ideal_reducer(t.g, t.h).h_invariant(q):
        raise NotInvariant("element is not H-invariant modulo U(g) h")
    rows, lin, d = _int_rows(q)
    image = _split_ints(rows, d, lin, d, (t.g.int_table, t.l_alg.int_table), split)
    image = ideal_reducer(t.l_alg, t.l_cap_h_in_l)._reduce_ints(*image)
    return _over(t.l_alg, *image, q.terms.get((), 0))


def _transfer_split(t: TripleDescriptor, seed: Optional[int] = None) -> tuple:
    """(front, d_f, eta, d_e) for g = l + h: front[k] = d_f f_k in frame
    coordinates and eta[k] = d_e eta_k, X_k = f_k + eta_k with eta_k in h.

    Without a seed, the descriptor's canonical split, shared (not to be
    mutated).  A seed adds a seeded sum c u over the basis of l cap h to a
    copy of each f_k and subtracts sum c F u from eta_k, in ints.
    """
    if not t.triple_report.transitive:
        raise NotTransitive("l + h does not fill g")
    front, basis, d_f, eta, images, d_e = t.transfer_split
    if seed is None:
        return front, d_f, eta, d_e
    rng = random.Random(seed)
    moved = ([], [])
    for f_k, eta_k in zip(front, eta):
        f_k, eta_k = dict(f_k), dict(eta_k)
        for u, image in zip(basis, images):  # f_k + c u and eta_k - c F u
            c = rng.randint(-3, 3)
            if c:
                for a, x in u.items():
                    f_k[a] = f_k.get(a, 0) + c * x
                for i, x in image.items():
                    eta_k[i] = eta_k.get(i, 0) - c * x
        moved[0].append({a: x for a, x in f_k.items() if x})
        moved[1].append({i: x for i, x in eta_k.items() if x})
    return moved[0], d_f, moved[1], d_e


def _not_transitive(_) -> NotTransitive:
    return NotTransitive("l + h does not fill g")


def _canonical_transfer_split(t: TripleDescriptor) -> tuple:
    """(front, basis, d_f, eta, images, d_e): the canonical split of
    _transfer_split, with the basis u of l cap h over d_f and the images F u
    in ambient coordinates over d_e, all in Python ints.

    The frame vectors off the pivots of l cap h span a complement of l cap h
    in l, which maps onto g/h isomorphically when l + h = g.  The front part
    pi of _echelon_split(h) reads g/h, so f_k is the coordinates of pi(e_k)
    in the basis {pi(frame_a)} of that section, and eta_k = e_k - frame f_k
    lies in the kernel of pi, h.  The descriptor is validated first, which
    makes h and l cap h subalgebras: their reducers are kept unchecked.
    """
    t.validate()
    lh = t.l_cap_h_in_l
    for algebra, sub in ((t.g, t.h), (t.l_alg, lh)):
        if sub not in algebra._reducers:
            algebra._reducers[sub] = IdealReducer(algebra, sub)
    section = [a for a in range(lh.ambient_dim) if a not in lh.pivots()]
    pi = t.g._reducers[t.h]._split[0]  # d pi: the basis and each pi(e_k) scale alike
    frame = t.frame_vectors
    basis = [combination(frame[a], pi) for a in section]
    front, eta = [], []
    for k, x in enumerate(coordinates_in(basis, pi, _not_transitive)):
        f_k = {section[b]: y for b, y in x.items()}
        front.append(f_k)
        eta.append(combination({0: 1, 1: -1}, [{k: 1}, combination(f_k, frame)]))
    images = [combination(u, frame) for u in lh.vectors]
    n = len(front)
    front, d_f = over_one_denominator(dict(enumerate([*front, *lh.vectors])))
    eta, d_e = over_one_denominator(dict(enumerate([*eta, *images])))
    front, eta = list(front.values()), list(eta.values())
    return front[:n], front[n:], d_f, eta[:n], eta[n:], d_e


def decompose_in_span(
    target: Quad2, generators: Sequence[Quad2], h: SubspaceBasis
) -> Optional[list]:
    """Exact coefficients writing target as a combination of the generators
    modulo U(g) h, or None when no such combination exists.

    The system is solved on canonical reduced forms; free directions (for
    instance a generator that reduces to zero) are pinned to coefficient 0.
    """
    reducer = ideal_reducer(target.algebra, h)
    cols, rhs = [reducer.coordinates(gen) for gen in generators], reducer.coordinates(target)
    # one equation per coordinate that some reduced form uses
    keys = dict.fromkeys(k for c in [*cols, rhs] for k in c)
    rows = [{j: c[k] for j, c in enumerate(cols) if k in c} for k in keys]
    return solve(RatMatrix._of_rows(rows, len(cols)), [rhs.get(k, 0) for k in keys])
