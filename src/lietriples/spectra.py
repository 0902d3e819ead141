"""The Lorentzian spectrum report.

The report enumerates the positive discrete Laplace eigenvalues l^2 - n^2
of the compact quotients of SO(2,2n)/SO(1,2n) and carries the three
spectral bands with their series attributions as plain metadata.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from ._exact import _rat


# Most discrete eigenvalues a report lists; a larger cutoff is an input error.
MAX_EIGENVALUES = 10_000


class Band(NamedTuple):
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


class SpectrumReport(NamedTuple):
    n: int
    bands: tuple
    discrete_positive: tuple  # pairs (l, eigenvalue), strictly increasing
    eigenspace_note: str
    cutoff: Fraction


def lorentzian_spectrum_report(n: int, cutoff) -> SpectrumReport:
    """Banded Laplace spectrum of the compact Lorentzian quotients.

    Requires n >= 2, and a cutoff that _exact._rat reads as an exact
    rational (TypeError or ValueError otherwise).  The positive discrete
    eigenvalues are l^2 - n^2 for l = n+1, n+2, ... up to the cutoff; the
    three bands partition the real eigenvalue axis as (-inf, -n^2],
    (-n^2, 0], (0, +inf).  They are counted before any is listed:
    l^2 <= n^2 + floor(cutoff) gives isqrt(n^2 + floor(cutoff)) - n of
    them, and more than MAX_EIGENVALUES is a ValueError.
    """
    if n < 2:
        raise ValueError("the Lorentzian family needs n >= 2")
    cutoff = _rat(cutoff)
    count = max(0, math.isqrt(max(0, n * n + math.floor(cutoff))) - n)
    if count > MAX_EIGENVALUES:
        raise ValueError(
            f"cutoff {cutoff} lists {count} discrete eigenvalues, more than "
            f"MAX_EIGENVALUES = {MAX_EIGENVALUES}"
        )
    # each band is (lower, upper]: open below, and above only at +inf
    edges = (None, Fraction(-n * n), Fraction(0), None)
    attributions = (
        "unitary principal series; at -n^2 also limits of discrete series",
        "complementary series, ends of complementary series, "
        "non-integrable discrete series",
        "integrable discrete series",
    )
    bands = tuple(
        Band(lower, True, upper, upper is None, text)
        for lower, upper, text in zip(edges, edges[1:], attributions)
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
