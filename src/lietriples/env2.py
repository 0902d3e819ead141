"""Degree-two universal enveloping algebra calculus.

Elements are kept in PBW normal order with respect to the owning algebra's
fixed basis, as one map from the monomials (), X_i and X_i X_j with i <= j
to their coefficients.  Reordering a product X_j X_i with j > i costs
exactly one commutator, which keeps everything inside degree two.

The two workhorses, reduction modulo a left ideal U(g) h and the transfer
of an H-invariant element of U(g) into U(l) along g = l + h, rest on one
degree-two identity.  Split every basis vector as X_k = f_k + eta_k with f_k
in a front space complementary to h and eta_k in h.  Since f eta lies in
U(g) h and eta_i f_j = f_j eta_i + [eta_i, f_j], modulo U(g) h

    X_k = f_k    and    X_i X_j = f_i f_j + front([eta_i, f_j]).

The reduction takes the standard complement of h as front space and reads
the split off the echelon form of h.  The transfer takes a section of g/h
inside l, the frame vectors off the pivots of l cap h, and reads the split
off the coordinates of each class of g/h in the image of that section,
through one BasisSolver on dim g - dim h vectors, once per triple.  Any
split gives the same canonical image, because U(l) cap U(g) h = U(l)(l cap
h) when l + h = g.  Products are collected in a coefficient table and
normal-ordered once, in Python ints through the algebra's integer structure
table (LieAlgebra.int_table), with one Fraction per output coefficient.
Each algebra keeps one IdealReducer per span of h (ideal_reducer), which
memoizes by value the coordinates (the terms of the reduced element) read by
the decomposition and comparison modulo the ideal, and H-invariance verdicts.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .liealg import LieAlgebra, check_ambient, is_subalgebra
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
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "terms", kept)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):
        raise AttributeError("Quad2 is immutable")

    @staticmethod
    def zero(algebra: LieAlgebra) -> "Quad2":
        return Quad2(algebra)

    def __add__(self, other: "Quad2") -> "Quad2":
        if not same_algebra(self.algebra, other.algebra):
            raise ValueError("Quad2 values over different algebras")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Quad2(self.algebra, terms)

    def __sub__(self, other: "Quad2") -> "Quad2":
        return self + other.scale(-1)

    def scale(self, c) -> "Quad2":
        c = _rat(c)
        return Quad2(self.algebra, {m: c * v for m, v in self.terms.items()})

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


def _normal_order(algebra: LieAlgebra, table: dict, lin: Optional[dict] = None) -> Quad2:
    """sum c X_a X_b over the (a, b) -> c table, plus lin, in PBW normal
    order; callers fill the table first and order it once, so no Quad2 is
    built per term."""
    scaled, d = over_one_denominator({0: table, 1: lin or {}})
    quad, lin_m, d_t = _order_ints(algebra, scaled[0])
    return _over(algebra, quad, d, *add_over(lin_m, d * d_t, scaled[1], d))


def _order_ints(algebra: LieAlgebra, table: dict) -> tuple:
    """(quad, lin, d_t): sum c X_a X_b over the int (a, b) -> c table in PBW
    normal order.  X_a X_b with a > b is X_b X_a + [X_a, X_b], and the
    commutators go into lin over d_t, the denominator of the int table."""
    int_table, d_t = algebra.int_table
    quad: dict = {}
    lin: dict = {}
    for (a, b), c in table.items():
        if not c:
            continue
        if a > b:
            for k, t in int_table.get((b, a), {}).items():
                lin[k] = lin.get(k, 0) - c * t
            a, b = b, a
        key = (a, b)
        quad[key] = quad.get(key, 0) + c
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


def symmetrized_casimir(
    algebra: LieAlgebra, sub: SubspaceBasis, form: RatMatrix
) -> Quad2:
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
    """Commutator [q, x] with a degree-one element, normal-ordered.

    x may be a basis index or a sparse vector; the result stays in degree
    <= 2 since [deg 2, deg 1] has degree <= 2.  Only the basis vectors X_i
    that occur in q are bracketed with x.
    """
    algebra = q.algebra
    xv = {x: 1} if isinstance(x, int) else x
    ad = {i: algebra.bracket({i: 1}, xv) for m in q.terms for i in m}  # ad[i] = [X_i, x]
    table: dict = {}
    for m, c in q.terms.items():
        if len(m) == 2:
            # [X_i X_j, x] = X_i [X_j, x] + [X_i, x] X_j
            i, j = m
            add_outer(table, {i: c}, ad[j])
            add_outer(table, ad[i], {j: c})
    lin = {m[0]: c for m, c in q.terms.items() if len(m) == 1}
    return _normal_order(algebra, table, combination(lin, ad))


def _reduce_split(q: Quad2, front_alg: LieAlgebra, split: tuple) -> Quad2:
    """q modulo U(g) h, written over the front space through X_k = f_k + eta_k.

    The split is (front, d_f, eta, d_e) in Python ints: front[k] is d_f f_k
    in front_alg coordinates and eta[k] is d_e eta_k in h in ambient
    coordinates, both as sparse vectors.  Modulo U(g) h,

        X_k = f_k    and    X_i X_j = f_i f_j + front([eta_i, f_j]),

    because f eta and eta eta lie in U(g) h and eta_i f_j = f_j eta_i +
    [eta_i, f_j].  Both terms are bilinear in (X_i, X_j), so one pass over
    the quad terms c_ij X_i X_j of q fills two coefficient tables,

        M[a, b] = sum c_ij f_i[a] f_j[b]      in front coordinates,
        N[a, b] = sum c_ij eta_i[a] e_j[b]    in ambient coordinates,

    in Python ints: with the c_ij over one denominator d_q, the tables hold
    d_f^2 d_q M and d_e d_q N.  Grouping the terms by i, M = sum_i f_i (x)
    (sum_j c_ij f_j).

    N brackets eta_i with X_j = f_j + eta_j rather than with f_j.  The extra
    [eta_i, eta_j] lies in h, so its front part is zero when the front space
    is the standard complement of h, and lies in l cap h in the transfer,
    where the final reduction modulo U(l)(l cap h) removes it.  N only
    enters through the antisymmetric [X_a, X_b], so it is kept on a > b,
    where normal ordering sum N[a, b] X_a X_b picks up exactly sum N[a, b]
    [X_a, X_b] as its linear part.  Both tables are normal-ordered once
    through the integer structure tables, M in front_alg and N in g; the
    ambient rest, the linear part of q plus that of N, goes to the front in
    one step, y -> sum_k y_k f_k, still in ints.  Each nonzero output
    coefficient is then one Fraction.
    """
    return _over(front_alg, *_split_ints(q, front_alg, split))


def _split_ints(q: Quad2, front_alg: LieAlgebra, split: tuple) -> tuple:
    """(quad, d_quad, lin, d_lin, const): _reduce_split(q, front_alg, split)
    with its quad and linear parts as int tables over one denominator each."""
    front, d_f, eta, d_e = split
    rows: dict = {}
    for m, c in q.terms.items():
        if len(m) == 2:
            rows.setdefault(m[0], {})[m[1]] = c
    rows, d_q = over_one_denominator(rows)
    m_table: dict = {}
    n_table: dict = {}
    for i, terms in rows.items():
        # sum_j c_ij f_j, front coordinates
        add_outer(m_table, front[i], combination(terms, front))
        for a, x in eta[i].items():
            for b, y in terms.items():  # sum_j c_ij e_j
                if a > b:
                    key = (a, b)
                    n_table[key] = n_table.get(key, 0) + x * y
                elif a < b:
                    key = (b, a)
                    n_table[key] = n_table.get(key, 0) - x * y
    quad, lin, d_t = _order_ints(front_alg, m_table)
    d_quad = d_f * d_f * d_q
    _, rest, d_g = _order_ints(q.algebra, n_table)  # sum N[a, b] [X_a, X_b]
    lin_q, d_l = over_one_denominator({0: {m[0]: c for m, c in q.terms.items() if len(m) == 1}})
    rest, d_r = add_over(rest, d_e * d_q * d_g, lin_q[0], d_l)
    lin, d_lin = add_over(lin, d_quad * d_t, combination(rest, front), d_r * d_f)
    return quad, d_quad, lin, d_lin, q.terms.get((), 0)


def _over(algebra: LieAlgebra, quad: dict, d_quad: int, lin: dict, d_lin: int, const=0) -> Quad2:
    """The Quad2 of quad / d_quad, lin / d_lin and const, one Fraction per
    nonzero coefficient."""
    terms = {k: Fraction(n, d_quad) for k, n in quad.items() if n}
    terms.update({(k,): Fraction(n, d_lin) for k, n in lin.items() if n})
    terms[()] = const
    return Quad2(algebra, terms)


def _echelon_split(h: SubspaceBasis) -> tuple:
    """(front, d, eta, d): the split X_k = f_k + eta_k whose front space is
    the standard complement of h, both as int vectors over d in ambient
    coordinates.

    h is in reduced echelon form, so the standard basis vectors off its
    pivots span a complement.  Off a pivot X_i = f_i with eta_i = 0; at the
    pivot p of the h vector v, eta_p = v and f_p = e_p - v, zero at every
    pivot.  The front part y -> sum_k y_k f_k is the projection of g onto
    the coordinates off the pivots, with kernel h.  No elimination is needed.
    """
    n = h.ambient_dim
    vectors, d = over_one_denominator(dict(enumerate(h.vectors)))
    front = [{k: d} for k in range(n)]
    eta: list = [{} for _ in range(n)]
    for p, v in zip(h.pivots(), vectors.values()):
        eta[p] = v
        front[p] = {i: -x for i, x in v.items() if i != p}  # v[p] = d
    return front, d, eta, d


class IdealReducer:
    """Canonical reduction modulo the left ideal U(g) h for a fixed h.

    The split is _echelon_split(h).  The splitting identity of
    _reduce_split then leaves only normal-ordered monomials in front
    indices, which is the canonical form; the brackets picked up when
    f_i f_j is normal-ordered in g are sent to the front again.
    ideal_reducer and the transfer keep one on the algebra.  It holds its
    basis_labels and int_table, not the algebra (so no cycle forms), and
    checks each element against them (same_algebra) before any work or
    memo lookup.  coordinates and h_invariant memoize by value, reduce does not.
    """

    def __init__(self, algebra: LieAlgebra, h: SubspaceBasis):
        self.basis_labels, self.int_table = algebra.basis_labels, algebra.int_table
        self._h = h.vectors
        self._split = _echelon_split(h)
        self._coordinates: dict = {}
        self._h_invariant: dict = {}

    def _check(self, q: Quad2) -> None:
        if not same_algebra(q.algebra, self):
            raise ValueError("the element is not over the reducer's algebra")

    def reduce(self, q: Quad2) -> Quad2:
        self._check(q)
        quad, d_quad, lin, d_lin, const = _split_ints(q, q.algebra, self._split)
        front, d_f = self._split[:2]
        # the front space is no subalgebra: normal ordering f_i f_j leaves it
        return _over(q.algebra, quad, d_quad, combination(lin, front), d_lin * d_f, const)

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
        return self._memo(self._h_invariant, q, lambda q: all(
            self.reduce(bracket_with(q, y)).is_zero() for y in self._h))


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


def iota_embed(
    t: TripleDescriptor, q: Quad2, complement_seed: Optional[int] = None
) -> Quad2:
    """Transfer an H-invariant degree <= 2 element of U(g) into U(l).

    Splits each basis vector as X_k = f_k + eta_k with f_k in l and eta_k
    in h (_transfer_split).  The splitting identity of _reduce_split, its
    two tables M and N filled in one pass over q, writes q modulo U(g) h as
    an element of U(l), which is then reduced modulo U(l)(l cap h).  Since
    U(l) cap U(g) h = U(l)(l cap h) when l + h = g, the result is the
    canonical representative of the image of q under the transfer map
    whatever split is used; passing complement_seed moves each f_k by a
    seeded element of l cap h, for exercising exactly that.

    Only a seeded shift of the split is built per call.  The descriptor
    owns the canonical split, the (g, h) reducer the H-invariance verdicts
    and l_alg the reducer modulo U(l)(l cap h).
    """
    if not same_algebra(q.algebra, t.g):
        raise ValueError("q is not an element over the ambient algebra")
    split = _transfer_split(t, complement_seed)
    if not ideal_reducer(t.g, t.h).h_invariant(q):
        raise NotInvariant("element is not H-invariant modulo U(g) h")
    image = _reduce_split(q, t.l_alg, split)
    return ideal_reducer(t.l_alg, t.l_cap_h_in_l).reduce(image)


def _transfer_split(t: TripleDescriptor, seed: Optional[int] = None) -> tuple:
    """(front, d_f, eta, d_e) for g = l + h: X_k = f_k + eta_k with f_k in
    l, in frame coordinates, and eta_k in h, both as sparse vectors in
    Python ints, front[k] = d_f f_k and eta[k] = d_e eta_k.

    Without a seed, the descriptor's canonical split, shared (not to be
    mutated).  A seed adds a seeded integer combination sum c u of the basis
    of l cap h to each f_k and subtracts sum c F u from eta_k, which keeps
    eta_k = e_k - F f_k inside h: nothing is solved per call, and the shift
    is int arithmetic, the basis and its images being kept over d_f and d_e.
    """
    if not t.triple_report.transitive:
        raise NotTransitive("l + h does not fill g")
    front, basis, d_f, eta, images, d_e = t.transfer_split
    if seed is None:
        return front, d_f, eta, d_e
    rng = random.Random(seed)
    n, moved = len(images), ([], [])
    for f_k, eta_k in zip(front, eta):
        c = {j: rng.randint(-3, 3) for j in range(n)}
        # f_k + sum c_j u_j and eta_k - sum c_j F u_j; f_k and eta_k sit at index n
        moved[0].append(combination({n: 1, **c}, [*basis, f_k]))
        moved[1].append(combination({n: 1, **{j: -x for j, x in c.items()}}, [*images, eta_k]))
    return moved[0], d_f, moved[1], d_e


def _not_transitive(_) -> NotTransitive:
    return NotTransitive("l + h does not fill g")


def _canonical_transfer_split(t: TripleDescriptor) -> tuple:
    """(front, basis, d_f, eta, images, d_e): the canonical split of
    _transfer_split, with the basis u of l cap h over d_f and the images F u
    in ambient coordinates over d_e, all in Python ints.

    The frame vectors off the pivots of l cap h (in frame coordinates) span
    a complement of l cap h in l.  When l + h = g (condition (ii) of the
    descriptor's report) they map onto g/h isomorphically, a section of g/h
    inside l.  The front part pi of _echelon_split(h) reads g/h as the
    coordinates off the pivots of h, so f_k is the coordinates of pi(e_k)
    in the basis {pi(frame_a) : a in the section}, put on those frame
    vectors, and eta_k = e_k - frame f_k lies in the kernel of pi, h.

    The descriptor is validated first: sigma is then an automorphism, so h =
    fix(sigma) and l cap h are subalgebras, and their reducers are kept on
    g and l_alg with no closure check.  pi is read off the first one.
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
