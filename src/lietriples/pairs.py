"""Involutions, symmetric-pair splits, and the transitive-triple conditions.

A triple descriptor packages an ambient algebra g with two commuting
involutions (sigma cutting out h, theta the Cartan involution) and a
reductive subalgebra l.  The three conditions checked here are
(i) l reductively embedded, (ii) l + h = g, (iii) l cap h compact, where
compactness of a subalgebra means negative definiteness of the restricted
ambient Killing form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Callable, NamedTuple, Optional, Sequence

from .env2 import _canonical_transfer_split
from .liealg import (
    LieAlgebra,
    NotClosed,
    _flatten,
    _table_bracket,
    killing_form,
    restrict_form,
    subalgebra_on_own_basis,
)
from .ratlin import (
    RatMatrix,
    SubspaceBasis,
    combination,
    coordinates_in,
    inverse,
    kernel,
    over_one_denominator,
    signature,
)


class NotTransitiveTriple(ValueError):
    """A transitive triple was required and the descriptor is not one."""


class DescriptorError(ValueError):
    """The parts of a descriptor do not fit together.

    field names the part at fault: "sigma", "theta", "sigma, theta" (they do
    not commute), "l", "l_frame" or "l_labels".
    """

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class Involution:
    """A linear involutive automorphism of a Lie algebra, as a matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: RatMatrix):
        if matrix.rows != matrix.cols:
            raise ValueError("involution matrix must be square")
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("Involution is immutable")

    def validate(self, g: LieAlgebra) -> None:
        m = self.matrix
        if m.rows != g.dim:
            raise ValueError("involution has wrong dimension")
        # in ints over C = d_m m: C C = d_m^2 I, then m[X_i, X_j] vs [m X_i, m X_j] times d d_m^2
        cols, d_m = over_one_denominator(dict(enumerate(m.transpose().data)))
        if any(combination(cols[j], cols) != {j: d_m * d_m} for j in cols):
            raise ValueError("involution does not square to the identity")
        table, _ = g.int_table
        for i, j in combinations(range(g.dim), 2):
            image = combination({k: d_m * c for k, c in table.get((i, j), {}).items()}, cols)
            if image != _table_bracket(table, cols[i], cols[j]):
                raise ValueError(f"involution is not an automorphism at basis pair ({i},{j})")

    def commutes_with(self, other: "Involution") -> bool:
        return self.matrix @ other.matrix == other.matrix @ self.matrix


def _matrix_map_involution(
    g: LieAlgebra, image_of: Callable[[RatMatrix], RatMatrix], what: str
) -> Involution:
    """Involution induced by a map on the realizing matrices of g.

    Each image matrix is re-expanded in the algebra basis exactly.
    """
    if g.matrices is None:
        raise ValueError(f"{what} needs a matrix realization")
    images = coordinates_in(
        [_flatten(m) for m in g.matrices],
        (_flatten(image_of(m)) for m in g.matrices),
        lambda _: ValueError(f"{what} does not preserve the algebra"),
    )
    return Involution(RatMatrix._of_rows(images, g.dim).transpose())


def conjugation_involution(g: LieAlgebra, s: RatMatrix) -> Involution:
    """Involution X -> S X S^-1 of a matrix-realized algebra.

    Requires S^2 to be a scalar multiple of the identity so that conjugation
    is involutive.
    """
    s_inv = inverse(s)
    return _matrix_map_involution(g, lambda m: s @ m @ s_inv, "conjugation")


def negative_transpose_involution(g: LieAlgebra) -> Involution:
    """Involution X -> -X^T of a matrix-realized algebra."""
    return _matrix_map_involution(g, lambda m: -m.transpose(), "negative transpose")


def swap_involution(g: LieAlgebra) -> Involution:
    """The factor swap (X, Y) -> (Y, X) on a direct sum of equal factors."""
    if g.dim % 2 != 0:
        raise ValueError("not a direct sum of two equal factors")
    half = g.dim // 2
    images = [{(i + half) % g.dim: Fraction(1)} for i in range(g.dim)]
    return Involution(RatMatrix._of_rows(images, g.dim).transpose())


def eigenspace_split(
    g: LieAlgebra, inv: Involution
) -> tuple[SubspaceBasis, SubspaceBasis]:
    """(+1, -1) eigenspaces of an involution; they always fill the algebra."""
    ident = RatMatrix.identity(g.dim)
    return kernel(inv.matrix - ident), kernel(inv.matrix + ident)


class TripleDescriptor:
    """A candidate triple: ambient g, involutions sigma / theta, subalgebra l.

    l is given once, by l_frame: its columns (in g-coordinates) are the
    ordered basis of l used for enveloping-algebra work and evidence
    records, and l_labels names them.  Everything else (h, q, k, s, l as a
    subspace, the Killing form, each involution times the frame, l as an
    algebra, its Cartan split, l cap h, the report on the three conditions,
    the canonical transfer split) is derived lazily, once, and kept here, so
    every verb reads the same objects; none of it refers back to the
    descriptor, so reference counting frees it all.  The reducers modulo
    U(g) h (with the H-invariance verdicts) and U(l)(l cap h) are on g, l_alg.
    Whatever lies in l is in the coordinates of the frame: each subspace is
    one kernel (in_l) and each form restricts the one Gram frame_gram.
    The descriptor is immutable and compares by identity.
    """

    def __init__(
        self,
        g: LieAlgebra,
        sigma: Involution,
        theta: Involution,
        l_frame: RatMatrix,
        name: str = "",
        l_labels: Optional[Sequence[str]] = None,
    ):
        # the one write of the fields; cached_property stores each derived
        # object in the instance __dict__ directly, past __setattr__
        self.__dict__.update(
            g=g, sigma=sigma, theta=theta, l_frame=l_frame, name=name, l_labels=l_labels
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"TripleDescriptor is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"TripleDescriptor is immutable: cannot delete {name!r}")

    @cached_property
    def _sigma_split(self) -> tuple[SubspaceBasis, SubspaceBasis]:
        return eigenspace_split(self.g, self.sigma)

    @cached_property
    def _theta_split(self) -> tuple[SubspaceBasis, SubspaceBasis]:
        return eigenspace_split(self.g, self.theta)

    @property
    def h(self) -> SubspaceBasis:
        return self._sigma_split[0]

    @property
    def q(self) -> SubspaceBasis:
        return self._sigma_split[1]

    @property
    def k(self) -> SubspaceBasis:
        return self._theta_split[0]

    @property
    def s(self) -> SubspaceBasis:
        return self._theta_split[1]

    @cached_property
    def killing(self) -> RatMatrix:
        """The Killing Gram of g."""
        return killing_form(self.g)

    @cached_property
    def frame_vectors(self) -> list:
        """The columns of the frame, as sparse vectors in g-coordinates."""
        return list(self.l_frame.transpose().data)

    @cached_property
    def l(self) -> SubspaceBasis:
        """The span of the frame's columns, in canonical form."""
        return SubspaceBasis(self.g.dim, self.frame_vectors)

    @cached_property
    def l_alg(self) -> LieAlgebra:
        """l as a Lie algebra in its own right, on the basis of the frame."""
        return subalgebra_on_own_basis(self.g, self.frame_vectors, self.l_labels)

    def in_l(self, theta: int = 0, sigma: int = 0) -> SubspaceBasis:
        """The x in frame coordinates with theta(Fx) = theta * Fx and
        sigma(Fx) = sigma * Fx, for the signs given (0 leaves an involution
        out; at least one is given): one kernel of the stacked (inv - sign) F.
        With F of full rank, this is l cap k (theta=1), l cap s (theta=-1),
        l cap h (sigma=1) or l cap s cap q (both -1) in the coordinates of l."""
        f, images = self.l_frame, self._frame_images
        rows = []
        for sign, inv in ((theta, self.theta), (sigma, self.sigma)):
            if sign:
                if inv not in images:
                    images[inv] = inv.matrix @ f
                rows += (images[inv] - f.scale(sign)).data
        return kernel(RatMatrix._of_rows(rows, f.cols))

    @cached_property
    def _frame_images(self) -> dict:
        """Involution -> its matrix times the frame, filled by in_l."""
        return {}

    @cached_property
    def frame_gram(self) -> RatMatrix:
        """The Killing form on the frame of l, F^T B F; every form on l
        reads it."""
        f = self.l_frame
        return f.transpose() @ self.killing @ f

    @cached_property
    def cartan_split(self) -> tuple[SubspaceBasis, SubspaceBasis]:
        """(k_l, s_l) = (l cap k, l cap s) in l-coordinates.

        Raises DescriptorError naming theta unless theta is a Cartan
        involution of g (the Killing form negative definite on fix(theta)
        and positive definite on the minus-space) that preserves l, that is
        l = k_l + s_l, so that l inherits a Cartan decomposition."""
        b, k, s = self.killing, self.k, self.s
        if signature(restrict_form(b, k)) != (0, k.dim, 0):
            raise DescriptorError("theta", "fix(theta) is not compact")
        if signature(restrict_form(b, s)) != (s.dim, 0, 0):
            raise DescriptorError("theta", "theta minus-space is not positive definite")
        k_l, s_l = self.in_l(theta=1), self.in_l(theta=-1)
        if k_l.dim + s_l.dim != self.l_frame.cols:
            raise DescriptorError(
                "theta", "theta does not preserve l; no Cartan split available"
            )
        return k_l, s_l

    @cached_property
    def l_cap_h_in_l(self) -> SubspaceBasis:
        """l cap h in the coordinates of the frame."""
        return self.in_l(sigma=1)

    @cached_property
    def triple_report(self) -> TripleReport:
        """Conditions (i), (ii) and (iii), decided once from the Killing
        signatures on l and on l cap h, which the report keeps; both read
        the frame's Gram, whose inertia does not depend on the basis."""
        g, h, lh = self.g, self.h, self.l_cap_h_in_l
        sig_l = signature(self.frame_gram)
        sig_lh = signature(restrict_form(self.frame_gram, lh))
        reductive = sig_l[2] == 0
        # dim (l + h) = dim l + dim h - dim (l cap h)
        transitive = self.l.dim + h.dim - lh.dim == g.dim
        compact = sig_lh == (0, lh.dim, 0)
        dims = {"g": g.dim, "h": h.dim, "l": self.l.dim, "l_cap_h": lh.dim}
        holds = reductive and transitive and compact
        verdict = "TransitiveTriple" if holds else "NotTransitiveTriple"
        return TripleReport(reductive, transitive, compact, dims, verdict, sig_l, sig_lh)

    @cached_property
    def transfer_split(self) -> tuple:
        """env2._canonical_transfer_split, built at the first transfer."""
        return _canonical_transfer_split(self)

    def validate(self) -> None:
        """Raise DescriptorError unless the involutions, the frame of l and
        its labels fit together and l is a subalgebra.  The descriptor is
        immutable, so a descriptor that passes is checked once."""
        self._validated

    @cached_property
    def _validated(self) -> bool:
        for field, inv in (("sigma", self.sigma), ("theta", self.theta)):
            try:
                inv.validate(self.g)
            except ValueError as exc:
                raise DescriptorError(field, str(exc)) from None
        if not self.sigma.commutes_with(self.theta):
            raise DescriptorError("sigma, theta", "sigma and theta do not commute")
        if self.l.dim != self.l_frame.cols:
            raise DescriptorError("l_frame", "l_frame does not have full rank")
        if self.l_labels is not None and len(self.l_labels) != self.l_frame.cols:
            raise DescriptorError("l_labels", "l_labels do not match the l frame")
        try:
            self.l_alg
        except NotClosed:
            raise DescriptorError("l", "l is not a subalgebra") from None
        return True

    def __repr__(self):
        return f"TripleDescriptor({self.name or 'unnamed'}, dim g = {self.g.dim})"


class TripleReport(NamedTuple):
    reductive: bool
    transitive: bool
    compact_intersection: bool
    dims: dict
    verdict: str
    # Killing signatures (pos, neg, zero) on l and on l cap h
    signature_on_l: tuple
    signature_on_l_cap_h: tuple

    @property
    def is_transitive_triple(self) -> bool:
        return self.verdict == "TransitiveTriple"

    def failed_conditions(self) -> list[str]:
        names = (
            (self.reductive, "(i) reductively embedded"),
            (self.transitive, "(ii) infinitesimally transitive"),
            (self.compact_intersection, "(iii) compact intersection"),
        )
        return [name for holds, name in names if not holds]


def check_transitive_triple(t: TripleDescriptor) -> TripleReport:
    """The descriptor's report on the three conditions."""
    return t.triple_report
