"""Casimir eigenvalue bookkeeping and the Lorentzian spectrum report.

WeightFrame fixes exact inner-product data on the dual of a Cartan
subalgebra (Killing normalization), so that lowest-type and
infinitesimal-character scalars are pure rational arithmetic.  The
Lorentzian report enumerates the positive discrete Laplace eigenvalues
l^2 - n^2 and carries the three spectral bands with their series
attributions as plain metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .ratlin import RatMatrix, signature


# Most discrete eigenvalues a report lists; a larger cutoff is an input error.
MAX_EIGENVALUES = 10_000


@dataclass(frozen=True)
class WeightFrame:
    """Inner product and rho vector on a rational weight coordinate system."""

    rank: int
    gram: RatMatrix
    rho: tuple

    def __post_init__(self):
        if self.gram.rows != self.rank or self.gram.cols != self.rank:
            raise ValueError("gram has the wrong size")
        if signature(self.gram) != (self.rank, 0, 0):
            raise ValueError("gram must be positive definite")
        if len(self.rho) != self.rank:
            raise ValueError("rho has the wrong length")
        object.__setattr__(self, "rho", tuple(Fraction(x) for x in self.rho))

    def pairing(self, a: Sequence, b: Sequence) -> Fraction:
        av = [Fraction(x) for x in a]
        bv = [Fraction(x) for x in b]
        if len(av) != self.rank or len(bv) != self.rank:
            raise ValueError("weight vector of wrong length")
        return sum(av[i] * self.gram[i, j] * bv[j] for i in range(self.rank) for j in range(self.rank))


def casimir_scalar_lowest_type(frame: WeightFrame, mu: Sequence) -> Fraction:
    """<mu + 2 rho, mu>: the Casimir scalar on the type with lowest weight mu."""
    shifted = [Fraction(m) + 2 * r for m, r in zip(mu, frame.rho)]
    return frame.pairing(shifted, mu)


def infinitesimal_character_scalar(frame: WeightFrame, lam: Sequence) -> Fraction:
    """<Lambda, Lambda> - <rho, rho> for a Harish-Chandra parameter Lambda."""
    return frame.pairing(lam, lam) - frame.pairing(frame.rho, frame.rho)


def _rank_one_frame(b_norm: Fraction, root_coordinate: Fraction) -> WeightFrame:
    # <alpha, alpha> = alpha(T)^2 / B(T, T) on the appropriate real line;
    # coordinates are in units of the fundamental weight omega = alpha / 2.
    alpha_sq = root_coordinate * root_coordinate / b_norm
    omega_sq = alpha_sq / 4
    return WeightFrame(rank=1, gram=RatMatrix([[omega_sq]]), rho=(Fraction(1),))


def frame_sl2r() -> WeightFrame:
    """Rank-one frame of sl(2,R) with Killing normalization.

    Weights are integers in fundamental-weight units: mu = (m,) means
    m * (alpha / 2) where alpha is the root with alpha(H) = 2.
    """
    from .liealg import killing_form, sl

    g = sl(2)
    b = killing_form(g).gram[0, 0]  # B(H, H)
    return _rank_one_frame(b, Fraction(2))


def frame_su2() -> WeightFrame:
    """Rank-one frame of su(2); same dual data as sl(2,R) by complexification."""
    from .liealg import killing_form, su

    g = su(2, 0)
    b = killing_form(g).gram[0, 0]  # B(iH1, iH1), negative
    # roots take the value +-2i on iH1, so +-2 on the real line -i*iH1 whose
    # squared norm is -B.
    return _rank_one_frame(-b, Fraction(2))


def frame_so3() -> WeightFrame:
    """Rank-one frame of so(3); ad(M[1,2]) has eigenvalues +-i."""
    from .liealg import killing_form, so

    g = so(3, 0)
    b = killing_form(g).gram[0, 0]  # B(M[1,2], M[1,2]), negative
    return _rank_one_frame(-b, Fraction(1))


@dataclass(frozen=True)
class Band:
    """A spectral interval with its representation-series attribution."""

    lower: Optional[Fraction]  # None means -infinity
    lower_open: bool
    upper: Optional[Fraction]  # None means +infinity
    upper_open: bool
    attribution: str

    def interval_text(self) -> str:
        lo = "-inf" if self.lower is None else str(self.lower)
        hi = "+inf" if self.upper is None else str(self.upper)
        left = "(" if self.lower_open or self.lower is None else "["
        right = ")" if self.upper_open or self.upper is None else "]"
        return f"{left}{lo}, {hi}{right}"


@dataclass(frozen=True)
class SpectrumReport:
    n: int
    bands: tuple
    discrete_positive: tuple  # pairs (l, eigenvalue), strictly increasing
    eigenspace_note: str
    cutoff: Fraction


def lorentzian_spectrum_report(n: int, cutoff) -> SpectrumReport:
    """Banded Laplace spectrum of the compact Lorentzian quotients.

    Requires n >= 2.  The positive discrete eigenvalues are l^2 - n^2 for
    l = n+1, n+2, ... up to the cutoff; the three bands partition the real
    eigenvalue axis as (-inf, -n^2], (-n^2, 0], (0, +inf).  They are
    counted before any is listed: l^2 <= n^2 + floor(cutoff) gives
    isqrt(n^2 + floor(cutoff)) - n of them, and more than MAX_EIGENVALUES
    is a ValueError.
    """
    if n < 2:
        raise ValueError("the Lorentzian family needs n >= 2")
    cutoff = Fraction(cutoff)
    count = max(0, math.isqrt(max(0, n * n + math.floor(cutoff))) - n)
    if count > MAX_EIGENVALUES:
        raise ValueError(
            f"cutoff {cutoff} lists {count} discrete eigenvalues, more than "
            f"MAX_EIGENVALUES = {MAX_EIGENVALUES}"
        )
    minus_n_sq = Fraction(-n * n)
    bands = (
        Band(
            lower=None,
            lower_open=True,
            upper=minus_n_sq,
            upper_open=False,
            attribution=(
                "unitary principal series; at -n^2 also limits of discrete series"
            ),
        ),
        Band(
            lower=minus_n_sq,
            lower_open=True,
            upper=Fraction(0),
            upper_open=False,
            attribution=(
                "complementary series, ends of complementary series, "
                "non-integrable discrete series"
            ),
        ),
        Band(
            lower=Fraction(0),
            lower_open=True,
            upper=None,
            upper_open=True,
            attribution="integrable discrete series",
        ),
    )
    discrete = [
        (ell, Fraction(ell * ell - n * n)) for ell in range(n + 1, n + 1 + count)
    ]
    note = (
        "eigenspaces of the positive discrete eigenvalues are infinite "
        "dimensional; the boundary value -n^2 is listed with the first band "
        "(limits of discrete series) following the stated intervals"
    )
    return SpectrumReport(
        n=n,
        bands=bands,
        discrete_positive=tuple(discrete),
        eigenspace_note=note,
        cutoff=cutoff,
    )
