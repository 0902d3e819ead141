"""Degree-two universal enveloping algebra calculus.

Elements are kept in PBW normal order with respect to the owning algebra's
fixed basis: only monomials X_i X_j with i <= j are stored, plus a linear
part and a constant.  Reordering a product X_j X_i with j > i costs exactly
one commutator, which keeps everything inside degree two.

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
normal-ordered once.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .liealg import LieAlgebra, is_subalgebra
from .ratlin import (
    RatMatrix,
    SubspaceBasis,
    _rat,
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


class Quad2:
    """A degree <= 2 element of U(g) in PBW normal-ordered form."""

    __slots__ = ("algebra", "quad", "lin", "const")

    def __init__(
        self,
        algebra: LieAlgebra,
        quad: Optional[dict] = None,
        lin: Optional[dict] = None,
        const=0,
    ):
        q = {}
        for (i, j), c in (quad or {}).items():
            if i > j:
                raise ValueError("quad keys must satisfy i <= j")
            c = _rat(c)
            if c != 0:
                q[(i, j)] = c
        ln = {}
        for i, c in (lin or {}).items():
            c = _rat(c)
            if c != 0:
                ln[i] = c
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "quad", q)
        object.__setattr__(self, "lin", ln)
        object.__setattr__(self, "const", _rat(const))

    def __setattr__(self, name, value):
        raise AttributeError("Quad2 is immutable")

    @staticmethod
    def zero(algebra: LieAlgebra) -> "Quad2":
        return Quad2(algebra)

    @staticmethod
    def basis_element(algebra: LieAlgebra, i: int) -> "Quad2":
        return Quad2(algebra, lin={i: 1})

    @staticmethod
    def linear(algebra: LieAlgebra, vec: dict) -> "Quad2":
        """The degree-one element of a sparse vector."""
        return Quad2(algebra, lin=vec)

    def _same_algebra(self, other: "Quad2") -> None:
        if self.algebra is not other.algebra and (
            self.algebra.dim != other.algebra.dim
            or self.algebra.basis_labels != other.algebra.basis_labels
        ):
            raise ValueError("Quad2 values over different algebras")

    def __add__(self, other: "Quad2") -> "Quad2":
        self._same_algebra(other)
        q = dict(self.quad)
        for k, c in other.quad.items():
            q[k] = q.get(k, Fraction(0)) + c
        ln = dict(self.lin)
        for k, c in other.lin.items():
            ln[k] = ln.get(k, Fraction(0)) + c
        return Quad2(self.algebra, q, ln, self.const + other.const)

    def __sub__(self, other: "Quad2") -> "Quad2":
        return self + other.scale(-1)

    def scale(self, c) -> "Quad2":
        c = _rat(c)
        return Quad2(
            self.algebra,
            {k: c * v for k, v in self.quad.items()},
            {k: c * v for k, v in self.lin.items()},
            c * self.const,
        )

    def is_zero(self) -> bool:
        return not self.quad and not self.lin and self.const == 0

    def degree(self) -> int:
        if self.quad:
            return 2
        if self.lin:
            return 1
        return 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Quad2)
            and self.algebra.basis_labels == other.algebra.basis_labels
            and self.quad == other.quad
            and self.lin == other.lin
            and self.const == other.const
        )

    def __hash__(self):
        # over exactly what __eq__ compares
        return hash(
            (
                self.algebra.basis_labels,
                frozenset(self.quad.items()),
                frozenset(self.lin.items()),
                self.const,
            )
        )

    def __repr__(self):
        labels = self.algebra.basis_labels
        parts = []
        for (i, j), c in sorted(self.quad.items()):
            parts.append(f"{c}*{labels[i]}{labels[j]}")
        for i, c in sorted(self.lin.items()):
            parts.append(f"{c}*{labels[i]}")
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def _add_outer(table: dict, v: dict, w: dict) -> None:
    """table[(a, b)] += v[a] w[b] over the sparse vectors v and w."""
    for a, x in v.items():
        for b, y in w.items():
            key = (a, b)
            table[key] = table.get(key, 0) + x * y


def _normal_order(
    algebra: LieAlgebra, table: dict, lin: Optional[dict] = None, const=0
) -> Quad2:
    """sum c X_a X_b over the (a, b) -> c table, plus lin and const, in PBW
    normal order.

    X_a X_b with a <= b is a normal monomial; with a > b it is X_b X_a +
    [X_a, X_b], one commutator into the linear part.  Callers fill the table
    first and order it once, so no Quad2 is built per term.
    """
    quad: dict = {}
    lin = dict(lin) if lin else {}
    for (a, b), c in table.items():
        if not c:
            continue
        if a > b:
            for k, d in algebra.bracket_basis_sparse(a, b).items():
                lin[k] = lin.get(k, 0) + c * d
            a, b = b, a
        key = (a, b)
        quad[key] = quad.get(key, 0) + c
    return Quad2(algebra, quad, lin, const)


def product_of_linear(algebra: LieAlgebra, v: dict, w: dict) -> Quad2:
    """The product (sum v_i X_i)(sum w_j X_j) of two sparse vectors,
    normal-ordered."""
    table: dict = {}
    _add_outer(table, v, w)
    return _normal_order(algebra, table)


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
    if sub.dim == 0:
        return Quad2.zero(algebra)
    table: dict = {}
    for z, y in _dual_pairs(sub, form):
        _add_outer(table, z, y)
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
    if sub.dim == 0:
        return Quad2.zero(algebra)
    half = Fraction(1, 2)
    table: dict = {}
    for z, y in _dual_pairs(sub, form):
        half_z = {k: half * x for k, x in z.items()}
        _add_outer(table, half_z, y)
        _add_outer(table, y, half_z)
    return _normal_order(algebra, table)


def bracket_with(q: Quad2, x) -> Quad2:
    """Commutator [q, x] with a degree-one element, normal-ordered.

    x may be a basis index or a sparse vector; the result stays in degree
    <= 2 since [deg 2, deg 1] has degree <= 2.  Only the basis vectors X_i
    that occur in q are bracketed with x.
    """
    algebra = q.algebra
    xv = {x: 1} if isinstance(x, int) else x
    support = set(q.lin).union(*q.quad)
    ad = {i: algebra.bracket({i: 1}, xv) for i in support}  # ad[i] = [X_i, x]
    table: dict = {}
    for (i, j), c in q.quad.items():
        # [X_i X_j, x] = X_i [X_j, x] + [X_i, x] X_j
        _add_outer(table, {i: c}, ad[j])
        _add_outer(table, ad[i], {j: c})
    return _normal_order(algebra, table, combination(q.lin, ad))


def _reduce_split(q: Quad2, front_alg: LieAlgebra, front: list, eta: list) -> Quad2:
    """q modulo U(g) h, written over the front space through X_k = f_k + eta_k.

    front[k] is f_k in front_alg coordinates and eta[k] is eta_k in h in
    ambient coordinates, both as sparse vectors.  Modulo U(g) h,

        X_k = f_k    and    X_i X_j = f_i f_j + front([eta_i, f_j]),

    because f eta and eta eta lie in U(g) h and eta_i f_j = f_j eta_i +
    [eta_i, f_j].  Both terms are bilinear in (X_i, X_j), so one pass over
    the quad terms c_ij X_i X_j of q fills two coefficient tables,

        M[a, b] = sum c_ij f_i[a] f_j[b]      in front coordinates,
        N[a, b] = sum c_ij eta_i[a] e_j[b]    in ambient coordinates,

    in Python ints: the c_ij, the f_k they touch and their eta_i are each
    brought to one denominator, d_q, d_f and d_e, so the tables hold
    d_f^2 d_q M and d_e d_q N, and each nonzero entry becomes one Fraction.
    Grouping the terms by i, M = sum_i f_i (x) (sum_j c_ij f_j).

    N brackets eta_i with X_j = f_j + eta_j rather than with f_j.  The extra
    [eta_i, eta_j] lies in h, so its front part is zero when the front space
    is the standard complement of h, and lies in l cap h in the transfer,
    where the final reduction modulo U(l)(l cap h) removes it.  N only
    enters through the antisymmetric [X_a, X_b], so it is kept on a < b.
    sum M[a, b] X_a X_b is normal-ordered once in front_alg; the ambient
    rest, the linear part of q plus sum N[a, b] [X_a, X_b] in g, goes to the
    front in one step, y -> sum_k y_k f_k.
    """
    g = q.algebra
    rows: dict = {}
    for (i, j), c in q.quad.items():
        rows.setdefault(i, {})[j] = c
    rows, d_q = over_one_denominator(rows)
    f, d_f = over_one_denominator({k: front[k] for k in set(rows).union(*rows.values())})
    e, d_e = over_one_denominator({i: eta[i] for i in rows})
    m_table: dict = {}
    n_table: dict = {}
    for i, terms in rows.items():
        # sum_j c_ij f_j, front coordinates
        _add_outer(m_table, f[i], combination(terms, f))
        for a, x in e[i].items():
            for b, y in terms.items():  # sum_j c_ij e_j
                if a < b:
                    key = (a, b)
                    n_table[key] = n_table.get(key, 0) + x * y
                elif a > b:
                    key = (b, a)
                    n_table[key] = n_table.get(key, 0) - x * y
    m_table = {key: Fraction(n, d_f * d_f * d_q) for key, n in m_table.items() if n}
    rest = dict(q.lin)
    for (a, b), n in n_table.items():
        if n:
            c = Fraction(n, d_e * d_q)
            for k, d in g.bracket_basis_sparse(a, b).items():
                rest[k] = rest.get(k, 0) + c * d
    return _normal_order(front_alg, m_table, combination(rest, front), q.const)


def _echelon_split(h: SubspaceBasis) -> tuple:
    """(front, eta) of the split X_k = f_k + eta_k whose front space is the
    standard complement of h, both as sparse vectors in ambient coordinates.

    h is in reduced echelon form, so the standard basis vectors off its
    pivots span a complement.  Off a pivot X_i = f_i with eta_i = 0; at the
    pivot p of the h vector v, eta_p = v and f_p = e_p - v, zero at every
    pivot.  The front part y -> sum_k y_k f_k is the projection of g onto
    the coordinates off the pivots, with kernel h.  No elimination is needed.
    """
    n = h.ambient_dim
    front = [{k: Fraction(1)} for k in range(n)]
    eta: list = [{} for _ in range(n)]
    for p, v in zip(h.pivots(), h.vectors):
        eta[p] = v
        front[p] = {i: -x for i, x in v.items() if i != p}  # v[p] = 1
    return front, eta


class IdealReducer:
    """Canonical reduction modulo the left ideal U(g) h for a fixed h.

    The split is _echelon_split(h).  The splitting identity of
    _reduce_split then leaves only normal-ordered monomials in front
    indices, which is the canonical form; the brackets picked up when
    f_i f_j is normal-ordered in g are sent to the front again.
    """

    def __init__(self, algebra: LieAlgebra, h: SubspaceBasis):
        if h.ambient_dim != algebra.dim:
            raise ValueError("h lives in the wrong ambient space")
        if not is_subalgebra(algebra, h):
            raise ValueError("h is not a subalgebra; reduction would be ill-defined")
        self.algebra = algebra
        self.h = h
        self._front, self._eta = _echelon_split(h)

    def reduce(self, q: Quad2) -> Quad2:
        split = _reduce_split(q, self.algebra, self._front, self._eta)
        # the front space is no subalgebra: normal ordering f_i f_j leaves it
        lin = combination(split.lin, self._front)
        return Quad2(self.algebra, split.quad, lin, split.const)


def reduce_mod_left_ideal(q: Quad2, h: SubspaceBasis) -> Quad2:
    """Canonical representative of q modulo U(g) h, in the algebra's basis."""
    return IdealReducer(q.algebra, h).reduce(q)


def equals_mod_ideal(a: Quad2, b: Quad2, h: SubspaceBasis) -> bool:
    a._same_algebra(b)
    return reduce_mod_left_ideal(a - b, h).is_zero()


def check_h_invariant(q: Quad2, h: SubspaceBasis) -> bool:
    """[q, y] = 0 mod U(g) h for every y in the basis of h."""
    reducer = IdealReducer(q.algebra, h)
    for y in h.vectors:
        if not reducer.reduce(bracket_with(q, y)).is_zero():
            return False
    return True


def _h_invariant(t: TripleDescriptor, q: Quad2) -> bool:
    """check_h_invariant(q, t.h), decided once per value of q on t."""
    verdicts = t.h_invariance
    if q not in verdicts:
        verdicts[q] = check_h_invariant(q, t.h)
    return verdicts[q]


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
    owns the rest: the canonical split, the H-invariance verdict of each q
    (memoized by value) and the reducer modulo U(l)(l cap h).
    """
    g = t.g
    if q.algebra is not g and q.algebra.basis_labels != g.basis_labels:
        raise ValueError("q is not an element over the ambient algebra")
    front, eta = _transfer_split(t, complement_seed)
    if not _h_invariant(t, q):
        raise NotInvariant("element is not H-invariant modulo U(g) h")
    image = _reduce_split(q, t.l_alg, front, eta)
    return t.l_cap_h_reducer.reduce(image)


def _transfer_split(t: TripleDescriptor, seed: Optional[int] = None) -> tuple:
    """(front, eta) for g = l + h: X_k = f_k + eta_k with f_k in l, in frame
    coordinates, and eta_k in h, both as sparse vectors.

    Without a seed, the descriptor's canonical split, shared (not to be
    mutated).  A seed adds a seeded integer combination sum c u of the basis
    of l cap h to each f_k and subtracts sum c F u from eta_k, which keeps
    eta_k = e_k - F f_k inside h: nothing is solved per call.
    """
    if not t.triple_report.transitive:
        raise NotTransitive("l + h does not fill g")
    front, eta, images = t.transfer_split
    if seed is None:
        return front, eta
    rng = random.Random(seed)
    basis, n, moved = t.l_cap_h_in_l.vectors, len(images), ([], [])
    for f_k, eta_k in zip(front, eta):
        c = {j: rng.randint(-3, 3) for j in range(n)}
        # f_k + sum c_j u_j and eta_k - sum c_j F u_j; f_k and eta_k sit at index n
        moved[0].append(combination({n: 1, **c}, [*basis, f_k]))
        moved[1].append(combination({n: 1, **{j: -x for j, x in c.items()}}, [*images, eta_k]))
    return moved


def _not_transitive(_) -> NotTransitive:
    return NotTransitive("l + h does not fill g")


def _canonical_transfer_split(t: TripleDescriptor) -> tuple:
    """(front, eta, images): the canonical split of _transfer_split and the
    image F u, in ambient coordinates, of each basis vector u of l cap h.

    The frame vectors off the pivots of l cap h (in frame coordinates) span
    a complement of l cap h in l.  When l + h = g (condition (ii) of the
    descriptor's report) they map onto g/h isomorphically, a section of g/h
    inside l.  The front part pi of _echelon_split(h) reads g/h as the
    coordinates off the pivots of h, so f_k is the coordinates of pi(e_k)
    in the basis {pi(frame_a) : a in the section}, put on those frame
    vectors, and eta_k = e_k - frame f_k lies in the kernel of pi, h.
    """
    lh = t.l_cap_h_in_l
    section = [a for a in range(lh.ambient_dim) if a not in lh.pivots()]
    pi, _ = _echelon_split(t.h)
    frame = t.frame_vectors
    basis = [combination(frame[a], pi) for a in section]
    front, eta = [], []
    for k, x in enumerate(coordinates_in(basis, pi, _not_transitive)):
        f_k = {section[b]: y for b, y in x.items()}
        front.append(f_k)
        eta.append(combination({0: 1, 1: -1}, [{k: 1}, combination(f_k, frame)]))
    return front, eta, [combination(u, frame) for u in lh.vectors]


def decompose_in_span(
    target: Quad2, generators: Sequence[Quad2], h: SubspaceBasis
) -> Optional[list]:
    """Exact coefficients writing target as a combination of the generators
    modulo U(g) h, or None when no such combination exists.

    The system is solved on canonical reduced forms; free directions (for
    instance a generator that reduces to zero) are pinned to coefficient 0.
    """
    for gen in generators:
        target._same_algebra(gen)
    reducer = IdealReducer(target.algebra, h)

    def coordinates(q: Quad2) -> dict:
        """The reduced form of q as a sparse vector over its quad keys, its
        lin keys and the constant."""
        e = reducer.reduce(q)
        out = {("quad", k): c for k, c in e.quad.items()}
        out.update({("lin", k): c for k, c in e.lin.items()})
        if e.const:
            out["const"] = e.const
        return out

    cols, rhs = [coordinates(gen) for gen in generators], coordinates(target)
    # one equation per coordinate that some reduced form uses
    keys = dict.fromkeys(k for c in [*cols, rhs] for k in c)
    rows = [{j: c[k] for j, c in enumerate(cols) if k in c} for k in keys]
    return solve(RatMatrix._of_rows(rows, len(cols)), [rhs.get(k, 0) for k in keys])
