from fractions import Fraction

import pytest

from helpers import adjoint_casimir_matrix
from lietriples.liealg import killing_form, sl, so, su
from lietriples.ratlin import RatMatrix, inverse
from lietriples.spectra import lorentzian_spectrum_report


def test_adjoint_casimir_identity_matrix():
    # with the Killing normalization the Casimir acts on each simple ideal of
    # the adjoint by 1: split real forms, a non-compact su and a sum of two
    # ideals, next to the compact su(2) and so(3) of acceptance criterion 6
    for g in (sl(2), so(2, 1), su(2, 1), so(2, 2)):
        assert adjoint_casimir_matrix(g) == RatMatrix.identity(g.dim)


def defining_casimir_matrix(g):
    gram = killing_form(g)
    ginv = inverse(gram)
    size = g.matrices[0].rows
    total = RatMatrix.zeros(size, size)
    for i in range(g.dim):
        for j in range(g.dim):
            if ginv[i, j] != 0:
                total = total + (g.matrices[i] @ g.matrices[j]).scale(ginv[i, j])
    return total


def test_su2_fundamental_matches_matrix_oracle():
    # the defining representation of su(2) realified: Casimir acts by 3/8
    g = su(2, 0)
    assert defining_casimir_matrix(g) == RatMatrix.identity(4).scale(Fraction(3, 8))


def lowest_weight_model(lam: Fraction, levels: int):
    """Truncated lowest-weight module of sl(2,R) with F v_0 = 0.

    H e_m = (lam + 2m) e_m, E e_m = e_{m+1}, F e_m = -m (lam + m - 1) e_{m-1};
    the normal-ordered Casimir (1/8)H^2 + (1/2)EF - (1/4)H stays exact on
    every truncated level since it never applies E at the top.
    """
    h = RatMatrix.diagonal([lam + 2 * m for m in range(levels)])
    e_rows = [[Fraction(0)] * levels for _ in range(levels)]
    f_rows = [[Fraction(0)] * levels for _ in range(levels)]
    for m in range(levels - 1):
        e_rows[m + 1][m] = Fraction(1)
    for m in range(1, levels):
        f_rows[m - 1][m] = -Fraction(m) * (lam + m - 1)
    return h, RatMatrix(e_rows), RatMatrix(f_rows)


@pytest.mark.parametrize("lam", [Fraction(2), Fraction(3), Fraction(5, 2), Fraction(-1)])
def test_sl2_lowest_weight_oracle(lam):
    levels = 8
    h, e, f = lowest_weight_model(lam, levels)
    # commutation holds away from the truncation edge
    comm = e @ f - f @ e
    for m in range(levels - 1):
        assert comm[m, m] == h[m, m]
    omega = (
        (h @ h).scale(Fraction(1, 8))
        + (e @ f).scale(Fraction(1, 2))
        + h.scale(Fraction(-1, 4))
    )
    expected = ((lam - 1) ** 2 - 1) / 8
    assert omega == RatMatrix.identity(levels).scale(expected)


# -- spectrum reports ---------------------------------------------------------


def test_report_n2_cutoff50():
    rep = lorentzian_spectrum_report(2, 50)
    assert [v for _, v in rep.discrete_positive] == [5, 12, 21, 32, 45]
    assert [ell for ell, _ in rep.discrete_positive] == [3, 4, 5, 6, 7]


def test_report_n2_small_cutoff_empty():
    rep = lorentzian_spectrum_report(2, 4)
    assert rep.discrete_positive == ()


def test_report_n3_cutoff10():
    rep = lorentzian_spectrum_report(3, 10)
    assert [(ell, v) for ell, v in rep.discrete_positive] == [(4, Fraction(7))]


def test_report_rejects_small_n():
    with pytest.raises(ValueError):
        lorentzian_spectrum_report(1, 10)


def test_band_partition():
    rep = lorentzian_spectrum_report(2, 50)
    b1, b2, b3 = rep.bands
    assert b1.lower is None and b1.upper == Fraction(-4) and not b1.upper_open
    assert b2.lower == Fraction(-4) and b2.lower_open
    assert b2.upper == Fraction(0) and not b2.upper_open
    assert b3.lower == Fraction(0) and b3.lower_open and b3.upper is None
    # adjacent endpoints coincide with flipped openness: no gaps, no overlaps
    assert b1.upper == b2.lower and b1.upper_open != b2.lower_open
    assert b2.upper == b3.lower and b2.upper_open != b3.lower_open


def test_band_attributions_name_the_series():
    rep = lorentzian_spectrum_report(2, 50)
    b1, b2, b3 = rep.bands
    assert "unitary principal series" in b1.attribution
    assert "limits of discrete series" in b1.attribution
    assert "complementary series" in b2.attribution
    assert "non-integrable discrete series" in b2.attribution
    assert "integrable discrete series" in b3.attribution
    assert "infinite" in rep.eigenspace_note


def test_first_discrete_eigenvalue_is_2n_plus_1():
    for n in range(2, 11):
        rep = lorentzian_spectrum_report(n, 10 * n * n)
        values = [v for _, v in rep.discrete_positive]
        assert values[0] == 2 * n + 1 == (n + 1) ** 2 - n * n
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v == ell * ell - n * n for ell, v in rep.discrete_positive)
