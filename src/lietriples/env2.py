"""Degree-two universal enveloping algebra calculus.

Elements are kept in PBW normal order with respect to the owning algebra's
fixed basis: only monomials X_i X_j with i <= j are stored, plus a linear
part and a constant.  Reordering a product X_j X_i with j > i costs exactly
one commutator, which keeps everything inside degree two.

The two workhorses are reduction modulo a left ideal U(g) h (delete every
normal-ordered monomial whose rightmost factor lies in h, after moving to a
basis adapted to h) and the transfer of an H-invariant element of U(g) into
U(l) along a decomposition g = l + h.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

from .liealg import LieAlgebra, is_subalgebra
from .pairs import TripleDescriptor
from .ratlin import (
    RatMatrix,
    SubspaceBasis,
    inverse,
    rank,
    solve,
    subspace_sum,
)


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
            c = Fraction(c)
            if c != 0:
                q[(i, j)] = c
        ln = {}
        for i, c in (lin or {}).items():
            c = Fraction(c)
            if c != 0:
                ln[i] = c
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "quad", q)
        object.__setattr__(self, "lin", ln)
        object.__setattr__(self, "const", Fraction(const))

    def __setattr__(self, name, value):
        raise AttributeError("Quad2 is immutable")

    @staticmethod
    def zero(algebra: LieAlgebra) -> "Quad2":
        return Quad2(algebra)

    @staticmethod
    def basis_element(algebra: LieAlgebra, i: int) -> "Quad2":
        return Quad2(algebra, lin={i: 1})

    @staticmethod
    def linear(algebra: LieAlgebra, vec: Sequence) -> "Quad2":
        return Quad2(algebra, lin={i: Fraction(x) for i, x in enumerate(vec) if x != 0})

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
        c = Fraction(c)
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


def product_of_linear(algebra: LieAlgebra, v: Sequence, w: Sequence) -> Quad2:
    """The product (sum v_i X_i)(sum w_j X_j), normal-ordered."""
    quad: dict = {}
    lin: dict = {}
    nz_v = [(i, Fraction(x)) for i, x in enumerate(v) if x != 0]
    nz_w = [(j, Fraction(x)) for j, x in enumerate(w) if x != 0]
    for i, a in nz_v:
        for j, b in nz_w:
            c = a * b
            if i <= j:
                key = (i, j)
                quad[key] = quad.get(key, Fraction(0)) + c
            else:
                key = (j, i)
                quad[key] = quad.get(key, Fraction(0)) + c
                for k, d in algebra.bracket_basis_sparse(i, j).items():
                    lin[k] = lin.get(k, Fraction(0)) + c * d
    return Quad2(algebra, quad, lin)


def casimir(algebra: LieAlgebra, sub: SubspaceBasis, form: RatMatrix) -> Quad2:
    """Sum of X_i Y_i over form-dual bases of the subspace, normal-ordered.

    The element does not depend on the chosen basis of the subspace: with
    G the Gram matrix it is sum_ij (G^-1)_ij Z_i Z_j, and G^-1 transforms
    contravariantly.  For a subalgebra with an invariant form this is the
    usual Casimir; for a plain subspace the same formula is applied as is.
    """
    if sub.dim == 0:
        return Quad2.zero(algebra)
    if form.rows != sub.dim or form.cols != sub.dim:
        raise ValueError("form has the wrong size for the subspace basis")
    if not form.is_symmetric():
        raise DegenerateForm("normalizing form must be symmetric")
    if rank(form) != sub.dim:
        raise DegenerateForm("normalizing form is singular on the subspace")
    ginv = inverse(form)
    vectors = [list(v) for v in sub.vectors]
    total = Quad2.zero(algebra)
    for i in range(sub.dim):
        for j in range(sub.dim):
            c = ginv[i, j]
            if c != 0:
                total = total + product_of_linear(algebra, vectors[i], vectors[j]).scale(c)
    return total


def symmetrized_casimir(
    algebra: LieAlgebra, sub: SubspaceBasis, form: RatMatrix
) -> Quad2:
    """(1/2) sum (X_i Y_i + Y_i X_i) over form-dual bases.

    Provably equal to casimir() for any symmetric form: the difference is
    half the contraction of the symmetric inverse Gram with the
    antisymmetric bracket.  Provided so the equality is a computed fact
    rather than a claim.
    """
    if sub.dim == 0:
        return Quad2.zero(algebra)
    plain = casimir(algebra, sub, form)
    ginv = inverse(form)
    vectors = [list(v) for v in sub.vectors]
    reversed_total = Quad2.zero(algebra)
    for i in range(sub.dim):
        for j in range(sub.dim):
            c = ginv[i, j]
            if c != 0:
                reversed_total = reversed_total + product_of_linear(
                    algebra, vectors[j], vectors[i]
                ).scale(c)
    return (plain + reversed_total).scale(Fraction(1, 2))


def bracket_with(q: Quad2, x) -> Quad2:
    """Commutator [q, x] with a degree-one element, normal-ordered.

    x may be a basis index or a coordinate vector; the result stays in
    degree <= 2 since [deg 2, deg 1] has degree <= 2.
    """
    algebra = q.algebra
    if isinstance(x, int):
        xv = [Fraction(0)] * algebra.dim
        xv[x] = Fraction(1)
    else:
        xv = [Fraction(c) for c in x]
    out = Quad2.zero(algebra)
    e = [Fraction(0)] * algebra.dim
    for (i, j), c in q.quad.items():
        # [X_i X_j, x] = X_i [X_j, x] + [X_i, x] X_j
        ei = list(e)
        ei[i] = Fraction(1)
        ej = list(e)
        ej[j] = Fraction(1)
        bj = algebra.bracket(ej, xv)
        if any(t != 0 for t in bj):
            out = out + product_of_linear(algebra, ei, bj).scale(c)
        bi = algebra.bracket(ei, xv)
        if any(t != 0 for t in bi):
            out = out + product_of_linear(algebra, bi, ej).scale(c)
    lin_acc = [Fraction(0)] * algebra.dim
    for i, c in q.lin.items():
        ei = list(e)
        ei[i] = Fraction(1)
        for k, d in enumerate(algebra.bracket(ei, xv)):
            lin_acc[k] += c * d
    out = out + Quad2.linear(algebra, lin_acc)
    return out


class _AdaptedBasis:
    """Change of coordinates to an ordered basis (front block, back block).

    Columns of T are the new basis vectors in algebra coordinates; S = T^-1.
    Brackets of new basis vectors, expressed in new coordinates, are cached
    lazily.  transform() rewrites a Quad2 into normal-ordered coefficients
    with respect to the new basis order.
    """

    def __init__(self, algebra: LieAlgebra, t: RatMatrix):
        if rank(t) != algebra.dim:
            raise ValueError("adapted basis is not a basis")
        self.algebra = algebra
        self.t = t
        self.s = inverse(t)
        self._bracket_cache: dict = {}

    def bracket_new(self, a: int, b: int) -> list:
        key = (a, b)
        if key not in self._bracket_cache:
            old = self.algebra.bracket(self.t.column(a), self.t.column(b))
            self._bracket_cache[key] = self.s.apply(old)
        return self._bracket_cache[key]

    def transform(self, q: Quad2) -> tuple[dict, dict, Fraction]:
        """Normal-ordered (quad, lin, const) of q in the new coordinates."""
        n = self.algebra.dim
        s = self.s
        # raw quadratic coefficients: Q'_{ab} = sum_{i<=j} c_ij S_ai S_bj
        raw: dict = {}
        for (i, j), c in q.quad.items():
            col_i = [s[a, i] for a in range(n)]
            col_j = [s[b, j] for b in range(n)]
            for a, sa in enumerate(col_i):
                if sa == 0:
                    continue
                csa = c * sa
                for b, sb in enumerate(col_j):
                    if sb == 0:
                        continue
                    key = (a, b)
                    raw[key] = raw.get(key, Fraction(0)) + csa * sb
        quad: dict = {}
        lin = [Fraction(0)] * n
        for (a, b), c in raw.items():
            if c == 0:
                continue
            if a <= b:
                key = (a, b)
                quad[key] = quad.get(key, Fraction(0)) + c
            else:
                key = (b, a)
                quad[key] = quad.get(key, Fraction(0)) + c
                for k, d in enumerate(self.bracket_new(a, b)):
                    if d != 0:
                        lin[k] += c * d
        for i, c in q.lin.items():
            for a in range(n):
                if s[a, i] != 0:
                    lin[a] += c * s[a, i]
        return quad, {i: c for i, c in enumerate(lin) if c != 0}, q.const


class IdealReducer:
    """Canonical reduction modulo the left ideal U(g) h for a fixed h.

    The adapted order puts the standard coordinate complement of h first and
    the h basis last; a normal-ordered monomial then lies in U(g) h exactly
    when its rightmost factor has index in the h block, and those monomials
    are deleted.  Because the complement consists of standard basis vectors
    in ascending order, the surviving part maps back to the algebra's own
    coordinates by relabeling alone.
    """

    def __init__(self, algebra: LieAlgebra, h: SubspaceBasis):
        if h.ambient_dim != algebra.dim:
            raise ValueError("h lives in the wrong ambient space")
        if not is_subalgebra(algebra, h):
            raise ValueError("h is not a subalgebra; reduction would be ill-defined")
        self.algebra = algebra
        self.h = h
        pivots = set(h.pivots())
        self.complement = [i for i in range(algebra.dim) if i not in pivots]
        cols = []
        for i in self.complement:
            e = [Fraction(0)] * algebra.dim
            e[i] = Fraction(1)
            cols.append(e)
        cols.extend(list(v) for v in h.vectors)
        self.n_front = len(self.complement)
        self.adapted = _AdaptedBasis(algebra, RatMatrix.from_columns(algebra.dim, cols))

    def reduce(self, q: Quad2) -> Quad2:
        if q.is_zero():
            return q
        quad, lin, const = self.adapted.transform(q)
        nf = self.n_front
        back = self.complement
        out_quad = {
            (back[i], back[j]): c for (i, j), c in quad.items() if j < nf and c != 0
        }
        out_lin = {back[i]: c for i, c in lin.items() if i < nf and c != 0}
        return Quad2(self.algebra, out_quad, out_lin, const)


def reduce_mod_left_ideal(q: Quad2, h: SubspaceBasis) -> Quad2:
    """Canonical representative of q modulo U(g) h, in the algebra's basis."""
    return IdealReducer(q.algebra, h).reduce(q)


def equals_mod_ideal(a: Quad2, b: Quad2, h: SubspaceBasis) -> bool:
    a._same_algebra(b)
    return reduce_mod_left_ideal(a - b, h).is_zero()


def _greedy_complement(
    g_dim: int, frame_cols: list, candidates: list
) -> list:
    """Extend frame columns to a basis of g by greedily adding candidates."""
    chosen: list = []
    current = list(frame_cols)
    base = SubspaceBasis(g_dim, current)
    for cand in candidates:
        if base.dim == g_dim:
            break
        if not base.contains(cand):
            chosen.append(cand)
            current.append(list(cand))
            base = SubspaceBasis(g_dim, current)
    if base.dim != g_dim:
        raise NotTransitive("l + h does not span the ambient algebra")
    return chosen


def check_h_invariant(q: Quad2, h: SubspaceBasis) -> bool:
    """[q, y] = 0 mod U(g) h for every y in the basis of h."""
    reducer = IdealReducer(q.algebra, h)
    for y in h.vectors:
        if not reducer.reduce(bracket_with(q, list(y))).is_zero():
            return False
    return True


def iota_embed(
    t: TripleDescriptor, q: Quad2, complement_seed: Optional[int] = None
) -> Quad2:
    """Transfer an H-invariant degree <= 2 element of U(g) into U(l).

    Writes q in an ordered basis (l first, then a complement w inside h),
    deletes the monomials with rightmost factor in w (all of which lie in
    U(g) h), and reduces the surviving element of U(l) modulo U(l)(l cap h).
    The result is the canonical representative of the image of q under the
    transfer map and does not depend on the choice of w; passing
    complement_seed picks a randomized valid w for exercising exactly that.
    """
    g = t.g
    if q.algebra is not g and q.algebra.basis_labels != g.basis_labels:
        raise ValueError("q is not an element over the ambient algebra")
    h = t.h
    l = t.l
    if subspace_sum(l, h).dim != g.dim:
        raise NotTransitive("l + h does not fill g")
    if not check_h_invariant(q, h):
        raise NotInvariant("element is not H-invariant modulo U(g) h")

    frame_cols = [list(col) for col in t.frame.columns()]

    if complement_seed is None:
        candidates = [list(v) for v in h.vectors]
    else:
        rng = random.Random(complement_seed)
        h_vecs = [list(v) for v in h.vectors]
        candidates = []
        for _ in range(4 * len(h_vecs)):
            coeffs = [rng.randint(-3, 3) for _ in h_vecs]
            vec = [
                sum(c * hv[i] for c, hv in zip(coeffs, h_vecs))
                for i in range(g.dim)
            ]
            if any(x != 0 for x in vec):
                candidates.append(vec)
        candidates.extend(h_vecs)  # safety net so a basis always completes

    w_vecs = _greedy_complement(g.dim, frame_cols, candidates)
    n_l = len(frame_cols)
    adapted = _AdaptedBasis(g, RatMatrix.from_columns(g.dim, frame_cols + w_vecs))
    quad, lin, const = adapted.transform(q)
    surv_quad = {(i, j): c for (i, j), c in quad.items() if j < n_l}
    surv_lin = {i: c for i, c in lin.items() if i < n_l}
    survivor = Quad2(t.l_alg, surv_quad, surv_lin, const)
    return reduce_mod_left_ideal(survivor, t.l_cap_h_in_l)


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
    red_target = reducer.reduce(target)
    red_gens = [reducer.reduce(gen) for gen in generators]
    keys: list = []
    seen = set()
    for elem in red_gens + [red_target]:
        for k in elem.quad:
            if ("q", k) not in seen:
                seen.add(("q", k))
                keys.append(("q", k))
        for k in elem.lin:
            if ("l", k) not in seen:
                seen.add(("l", k))
                keys.append(("l", k))
    keys.append(("c", None))

    def coord(elem: Quad2, key):
        kind, k = key
        if kind == "q":
            return elem.quad.get(k, Fraction(0))
        if kind == "l":
            return elem.lin.get(k, Fraction(0))
        return elem.const

    rows = [[coord(gen, key) for gen in red_gens] for key in keys]
    rhs = [coord(red_target, key) for key in keys]
    return solve(RatMatrix(rows), rhs)
