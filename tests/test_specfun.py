"""Special function checks against independent approximations and mpmath."""

import math

import numpy as np
import pytest

from fraclat.specfun import (
    WG7,
    WGK15,
    XGK15,
    bessel_i_scaled,
    bessel_i_scaled_row,
    bessel_k,
    gamma_ratio,
    log_abs_gamma_neg,
    log_gamma,
)

# frozen with mpmath at 40 digits
MPMATH = {
    "lgamma_0.5": 0.57236494292470009,
    "lgamma_1e-3": 6.9071788853838537,
    "lgamma_12.7": 19.233043179570087,
    "lgamma_1e6": 12815504.569147612,
    "gI_3_7.2": 0.07806836259538849,
    "gI_0_0.3": 0.75758062518254786,
    "gI_12_45": 0.011941287158097288,
    "gI_40_1000": 0.0056676279027530963,
    "K_0.3_0.7": 0.68956248975697506,
    "K_0.7_3.0": 0.037302582431968067,
    "K_0.25_20.0": 5.7500020724036826e-10,
}


def lanczos_log_gamma(x):
    """Independent shifted-Lanczos oracle (g = 7, 9 terms)."""
    coef = [0.99999999999980993, 676.5203681218851, -1259.1392167224028,
            771.32342877765313, -176.61502916214059, 12.507343278686905,
            -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7]
    shift = 0.0
    while x < 0.5:
        shift -= math.log(x)
        x += 1.0
    a = coef[0]
    for k in range(1, 9):
        a += coef[k] / (x - 1.0 + k)
    t = x + 6.5
    return (0.5 * math.log(2.0 * math.pi) + (x - 0.5) * math.log(t) - t
            + math.log(a)) + shift


class TestLogGamma:
    def test_trivial_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(MPMATH["lgamma_0.5"], abs=1e-14)

    def test_frozen_values(self):
        assert log_gamma(1e-3) == pytest.approx(MPMATH["lgamma_1e-3"], rel=1e-14)
        assert log_gamma(12.7) == pytest.approx(MPMATH["lgamma_12.7"], rel=1e-14)
        assert log_gamma(1e6) == pytest.approx(MPMATH["lgamma_1e6"], rel=1e-14)

    def test_against_lanczos_oracle(self):
        # two structurally different approximations agreeing to 1e-12
        for x in np.geomspace(1e-3, 1e6, 117):
            a = log_gamma(float(x))
            b = lanczos_log_gamma(float(x))
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_recurrence(self):
        for x in np.linspace(0.1, 100.0, 211):
            lhs = math.exp(log_gamma(float(x) + 1.0) - log_gamma(float(x)))
            assert lhs == pytest.approx(x, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-3.2)


class TestGammaRatio:
    def test_trivial(self):
        assert gamma_ratio(1.0, 2.0) == 1.0

    def test_recurrence_value(self):
        # Gamma(3.5) = 2.5 * 1.5 * Gamma(1.5)
        assert gamma_ratio(3.5, 1.5) == pytest.approx(3.75, rel=1e-13)

    def test_large_argument_asymptotics(self):
        # ratio(m-s, m+1+s) * m^{1+2s} -> 1
        m, s = 1.0e4, 0.5
        val = gamma_ratio(m - s, m + 1.0 + s) * m ** (1.0 + 2.0 * s)
        assert abs(val - 1.0) < 0.01

    def test_asymptotic_path_consistency(self):
        # large nearly-equal arguments (the Stirling side of the 171 switch)
        # agree with the log-Gamma difference within the digits it keeps
        a, b = 9.5e3, 9.501e3
        direct = gamma_ratio(a, b)
        a2, b2 = 2.0e4, 2.0001e4
        asym = gamma_ratio(a2, b2)
        assert direct == pytest.approx(math.exp(log_gamma(a) - log_gamma(b)), rel=1e-12)
        assert asym == pytest.approx(math.exp(log_gamma(a2) - log_gamma(b2)), rel=1e-9)

    def test_switch_at_171(self):
        # Gamma quotient below 171, Stirling difference beyond: each side
        # matches mpmath
        import mpmath as mp

        mp.mp.dps = 30
        for a, b, rel in ((0.01, 2.99, 4e-15), (39.01, 41.99, 4e-15),
                          (170.5, 170.99, 4e-15), (171.2, 172.0, 1e-12)):
            ref = float(mp.gamma(mp.mpf(a)) / mp.gamma(mp.mpf(b)))
            assert gamma_ratio(a, b) == pytest.approx(ref, rel=rel)

    def test_nearby_large_arguments_against_mpmath(self):
        # the ratios of the kernel, its tails and its bounds: a = M - s and
        # b - a in {1, 2, 3} + 2s, across the band 171..1e4 where poch lost
        # up to 4e-11
        import mpmath as mp

        with mp.workdps(30):
            for big_m in np.geomspace(150.0, 2.0e4, 30):
                for s in (0.01, 0.05, 0.5, 0.95, 0.99):
                    for k in (1.0, 2.0, 3.0):
                        a = big_m - s
                        b = a + k + 2.0 * s
                        ref = float(mp.gamma(mp.mpf(a)) / mp.gamma(mp.mpf(b)))
                        assert gamma_ratio(a, b) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_ratio(-1.0, 2.0)


class TestReflection:
    def test_against_identity(self):
        # |Gamma(-s)| * Gamma(1+s) * s * sin(pi s) = pi
        for s in (0.1, 0.25, 0.5, 0.75, 0.9):
            val = math.exp(log_abs_gamma_neg(s) + log_gamma(1.0 + s))
            assert val * math.sin(math.pi * s) == pytest.approx(math.pi, rel=1e-13)

    def test_near_one(self):
        # sin(pi s) near s = 1 is taken at pi (1 - s), which keeps its digits
        import mpmath as mp

        mp.mp.dps = 30
        for s in (0.99, 0.995, 0.9999):
            ref = float(mp.log(abs(mp.gamma(-mp.mpf(s)))))
            assert log_abs_gamma_neg(s) == pytest.approx(ref, rel=1e-15, abs=1e-15)


class TestBesselIScaled:
    def test_trivial(self):
        assert bessel_i_scaled(0, 0.0) == 1.0
        assert bessel_i_scaled(5, 0.0) == 0.0

    def test_symmetry(self):
        assert bessel_i_scaled(-3, 7.2) == bessel_i_scaled(3, 7.2)

    def test_frozen_values(self):
        assert bessel_i_scaled(3, 7.2) == pytest.approx(MPMATH["gI_3_7.2"], rel=1e-13)
        assert bessel_i_scaled(0, 0.3) == pytest.approx(MPMATH["gI_0_0.3"], rel=1e-13)
        assert bessel_i_scaled(12, 45.0) == pytest.approx(MPMATH["gI_12_45"], rel=1e-13)
        assert bessel_i_scaled(40, 1000.0) == pytest.approx(MPMATH["gI_40_1000"], rel=1e-13)

    def test_large_argument_normalization(self):
        # e^{-t} I_0(t) sqrt(2 pi t) -> 1
        t = 1.0e4
        assert abs(bessel_i_scaled(0, t) * math.sqrt(2.0 * math.pi * t) - 1.0) < 0.005

    def test_three_term_recurrence(self):
        for n in range(-20, 21):
            for t in (0.5, 2.0, 7.7, 21.0, 50.0):
                lhs = bessel_i_scaled(n - 1, t) - bessel_i_scaled(n + 1, t)
                rhs = (2.0 * n / t) * bessel_i_scaled(n, t)
                scale = max(abs(lhs), abs(rhs), 1e-300)
                assert abs(lhs - rhs) / scale < 1e-10

    def test_range(self):
        for n in (0, 1, 4, 30, 150):
            for t in (0.0, 1e-3, 1.0, 19.0, 500.0, 1e7):
                v = bessel_i_scaled(n, t)
                assert 0.0 <= v <= 1.0

    def test_branch_seams(self):
        # scipy's ive serves every finite argument; around t = 20 and the
        # former switch point max(400, 4 n^2) of the large-argument
        # expansion it matches mpmath to ~1e-12
        import mpmath as mp

        mp.mp.dps = 30
        for n in (0, 1, 5, 11, 40, 120):
            for t0 in (20.0, max(400.0, 4.0 * n * n)):
                for t in (t0 * (1.0 - 1e-9), t0 * (1.0 + 1e-9)):
                    ref = float(mp.exp(-t) * mp.besseli(n, t))
                    assert bessel_i_scaled(n, t) == pytest.approx(ref, rel=1e-12)

    def test_row_matches_scalar(self):
        for t in (0.4, 18.0, 33.0, 2.0e3):
            out = np.empty(41)
            bessel_i_scaled_row(40, t, out)
            for n in range(41):
                ref = bessel_i_scaled(n, t)
                assert out[n] == pytest.approx(ref, rel=1e-12, abs=1e-280)

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_i_scaled(0, -1.0)

    def test_beyond_scipy_argument_limit(self):
        # scipy.special.ive is nan past t ~ 1.07e9; the expansion covers it
        t = 2.0e9
        out = np.empty(41)
        bessel_i_scaled_row(40, t, out)
        for n in (0, 1, 5, 40):
            ref = (1.0 - (4.0 * n * n - 1.0) / (8.0 * t)) / math.sqrt(2.0 * math.pi * t)
            assert math.isfinite(bessel_i_scaled(n, t))
            assert bessel_i_scaled(n, t) == pytest.approx(ref, rel=1e-12)
            assert out[n] == pytest.approx(ref, rel=1e-12)


class TestBesselK:
    def test_half_integer_identity(self):
        for x in (0.1, 1.0, 10.0):
            ref = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
            assert bessel_k(0.5, x) == pytest.approx(ref, rel=1e-11)

    def test_small_argument_limit(self):
        # x^s K_s(x) 2^{1-s} / Gamma(s) -> 1; the first correction is
        # O(x^{2s}), so s >= 0.6 keeps it below the 1e-6 budget at x = 1e-6
        x = 1e-6
        for s in (0.6, 0.75, 0.9):
            val = (x ** s) * bessel_k(s, x) * 2.0 ** (1.0 - s) / math.exp(log_gamma(s))
            assert abs(val - 1.0) < 1e-6

    def test_positive_decreasing(self):
        for s in (0.2, 0.5, 0.8):
            xs = np.geomspace(1e-4, 50.0, 40)
            vals = [bessel_k(s, float(x)) for x in xs]
            assert all(v > 0 for v in vals)
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_frozen_values(self):
        assert bessel_k(0.3, 0.7) == pytest.approx(MPMATH["K_0.3_0.7"], rel=1e-11)
        assert bessel_k(0.7, 3.0) == pytest.approx(MPMATH["K_0.7_3.0"], rel=1e-11)
        assert bessel_k(0.25, 20.0) == pytest.approx(MPMATH["K_0.25_20.0"], rel=1e-11)

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_k(1.5, 1.0)
        with pytest.raises(ValueError):
            bessel_k(0.5, 0.0)


class TestQuadratureConstants:
    def test_weights_sum(self):
        assert np.sum(WGK15) == pytest.approx(2.0, abs=1e-14)
        assert np.sum(WG7) == pytest.approx(2.0, abs=1e-14)

    def test_polynomial_exactness(self):
        # Kronrod-15 integrates degree <= 22 exactly; Gauss-7 degree <= 13
        for deg in (0, 3, 8, 13):
            exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
            k15 = float(np.sum(WGK15 * XGK15 ** deg))
            g7 = float(np.sum(WG7 * XGK15[1::2] ** deg))
            assert k15 == pytest.approx(exact, abs=2e-14)
            assert g7 == pytest.approx(exact, abs=2e-14)
        for deg in (16, 20, 22):
            exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
            assert float(np.sum(WGK15 * XGK15 ** deg)) == pytest.approx(exact, abs=2e-13)
