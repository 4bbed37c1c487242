"""Special function checks against independent approximations and mpmath."""

import math
import warnings

import numpy as np
import pytest

from fraclat.specfun import (
    WG7,
    WGK15,
    XGK15,
    bessel_i_scaled,
    bessel_i_scaled_cols,
    bessel_k,
    gamma_ratio,
    gamma_ratio_shifted,
    log_abs_gamma_neg,
    log_gamma,
)

# (n, t, e^{-t} I_n(t)) past scipy's argument limit, frozen with mpmath at
# 30 digits: (63245, 2e9) and (46475, 1.08e9) are the last orders of the
# large-argument expansion at their t, the next ones the first of the
# uniform one
MPMATH_LARGE_T = [
    (5, 3.0e9, 7.2836561739021120193e-6),
    (1000, 2.0e9, 8.918390704921670493e-6),
    (40000, 2.0e9, 5.9796707982195903513e-6),
    (63245, 2.0e9, 3.2817703237794764766e-6),
    (63246, 2.0e9, 3.2816665468178266361e-6),
    (100000, 2.0e9, 7.3224912806581397537e-7),
    (300000, 2.0e9, 1.5092779981805198299e-15),
    (46475, 1.08e9, 4.4659993969910738714e-6),
    (46476, 1.08e9, 4.4658072163529912443e-6),
]

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


# e^{-x} I_k(x) frozen with mpmath at 40 digits (besseli(k, x) * exp(-x)):
# (x, m, k, value) with m = int(sqrt(90 x)) + 68, the wrap-sum order
# cut-off of a torus with N = 16, and k up to m
MPMATH_ROWS = [
    (0.001, 68, 0, 0.9990007495835156),
    (0.001, 68, 34, 1.9696145872409843e-151),
    (0.001, 68, 67, 1.8561241e-316),
    (0.001, 68, 68, 1.364e-321),
    (0.00836, 68, 1, 0.004145237076476193),
    (0.00836, 68, 34, 4.427907005478963e-120),
    (0.00836, 68, 67, 1.130397781304624e-254),
    (0.00836, 68, 68, 6.948621629790892e-259),
    (0.0699, 70, 0, 0.933626447110719),
    (0.0699, 70, 35, 9.46403213144511e-92),
    (0.0699, 70, 69, 1.7147421530884916e-199),
    (0.0699, 70, 70, 8.561460503012368e-203),
    (0.585, 75, 1, 0.17002441986145253),
    (0.585, 75, 37, 7.158727606791875e-64),
    (0.585, 75, 74, 5.250456879134051e-148),
    (0.585, 75, 75, 2.0476474483928385e-150),
    (4.89, 88, 0, 0.18573251473383842),
    (4.89, 88, 44, 3.922667372273055e-40),
    (4.89, 88, 87, 2.3026704715939033e-101),
    (4.89, 88, 88, 6.392884633926944e-103),
    (40.9, 128, 1, 0.06180402219995968),
    (40.9, 128, 64, 4.911156365800242e-21),
    (40.9, 128, 127, 4.149472337894936e-64),
    (40.9, 128, 128, 6.469472389145537e-65),
    (342.0, 243, 0, 0.021580225522529282),
    (342.0, 243, 121, 1.3142323225413012e-11),
    (342.0, 243, 242, 2.919303409010145e-38),
    (342.0, 243, 243, 1.5076885394752285e-38),
    (2860.0, 575, 1, 0.007458819457735012),
    (2860.0, 575, 287, 4.1973347620682585e-09),
    (2860.0, 575, 574, 8.625094575933695e-28),
    (2860.0, 575, 575, 7.064589931635381e-28),
    (23900.0, 1534, 0, 0.002580556586975238),
    (23900.0, 1534, 767, 1.1669901470707552e-08),
    (23900.0, 1534, 1533, 1.165394100314307e-24),
    (23900.0, 1534, 1534, 1.0930136972387406e-24),
    (200000.0, 4310, 1, 0.0008920603854574132),
    (200000.0, 4310, 2155, 8.095532824502326e-09),
    (200000.0, 4310, 4309, 6.1906792269110035e-24),
    (200000.0, 4310, 4310, 6.0587222232179294e-24),
]


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

    def test_shifted_against_mpmath(self):
        # Gamma(m - s)/Gamma(m + s) and Gamma(m - s)/Gamma(m + 1 + s) with m
        # kept apart from the shifts: the rounding of m - s cost 1.3e-9 at
        # m = 1e6 when the sums went to gamma_ratio
        import mpmath as mp

        with mp.workdps(30):
            for m in (1, 2, 7, 100, 171, 1000, 10**4, 540673, 10**6):
                for s in (0.01, 0.05, 0.5, 0.95, 0.99):
                    for alpha, beta in ((-s, s), (-s, 1.0 + s)):
                        ref = float(mp.gamma(m + mp.mpf(alpha)) / mp.gamma(m + mp.mpf(beta)))
                        got = gamma_ratio_shifted(m, alpha, beta)
                        assert got == pytest.approx(ref, rel=1e-14, abs=0.0), (m, s)

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

    def test_past_scipy_argument_limit(self):
        # beyond t ~ 1.07e9, where scipy's ive is nan, the large-argument
        # expansion serves 4n^2 - 1 < 8t and the uniform expansion the rest;
        # points on both sides of that switch, frozen with mpmath at 30 digits
        assert {4 * n * n - 1 >= 8 * t for n, t, _ in MPMATH_LARGE_T} == {True, False}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n, t, ref in MPMATH_LARGE_T:
                got = bessel_i_scaled(n, t)
                assert 0.0 <= got <= 1.0
                assert got == pytest.approx(ref, rel=1e-12, abs=0.0), (n, t)

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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (0.4, 18.0, 33.0, 2.0e3):
                out = bessel_i_scaled_cols(np.arange(41), np.array([t]))[0]
                for n in range(41):
                    ref = bessel_i_scaled(n, t)
                    assert out[n] == pytest.approx(ref, rel=1e-12, abs=1e-280)
            # direct rows (at most 4 orders), the recurrence, x = 0, a
            # subnormal x, a row that ends at its floor, and x past scipy's
            # argument limit
            for nmax in (0, 1, 3, 4, 7, 8, 90, 600):
                for t in (0.0, 1e-310, 1e-180, 20.8, 2.0e3, 1.0e6, 2.0e9):
                    out = bessel_i_scaled_cols(np.arange(nmax + 1), np.array([t]))[0]
                    for n in range(nmax + 1):
                        ref = bessel_i_scaled(n, t)
                        assert out[n] == pytest.approx(ref, rel=1e-12, abs=1e-280)

    def test_cols_direct_match_swept_rows(self):
        # up to 4 orders are one direct ive call, 5 and more are taken from
        # one sweep: on both sides of that switch the columns match the
        # swept row up to the largest order, column by column.  Far below
        # its order (x < 1e-7 at order 23) ive is off by up to 300 ulps
        # where the sweep stays within 8, hence 1e-12
        rng = np.random.default_rng(11)
        x = np.sort(2.0 * np.exp(rng.uniform(-40.0, 12.0, 300)))
        for count in (1, 3, 4, 5, 6, 12):
            for _ in range(4):
                orders = np.sort(rng.choice(41, size=count, replace=False))
                cols = bessel_i_scaled_cols(orders, x)
                assert cols.shape == (x.size, count)
                top = max(int(orders[-1]), 8)
                rows = bessel_i_scaled_cols(np.arange(top + 1), x)
                assert np.allclose(cols, rows[:, orders], rtol=1e-12, atol=1e-280), orders
        with pytest.raises(ValueError):
            bessel_i_scaled_cols(np.arange(3), np.array([1.0, -1.0]))

    def test_row_against_mpmath(self):
        # within 32 ulps of the 40-digit values wherever they exceed 1e-250
        # (and as close as the scalar below), one argument per call and all
        # of them in one batch, given in descending order
        eps = np.finfo(float).eps
        xs = sorted({x for x, _, _, _ in MPMATH_ROWS}, reverse=True)
        top = max(m for _, m, _, _ in MPMATH_ROWS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = bessel_i_scaled_cols(np.arange(top + 1), np.array(xs))
            for x, m, k, ref in MPMATH_ROWS:
                out = bessel_i_scaled_cols(np.arange(m + 1), np.array([x]))[0]
                for got in (out[k], batch[xs.index(x), k]):
                    if ref > 1e-250:
                        assert abs(got - ref) <= 32.0 * eps * ref, (x, k)
                    else:
                        assert got == pytest.approx(ref, rel=1e-12, abs=1e-280), (x, k)

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_i_scaled(0, -1.0)

    def test_beyond_scipy_argument_limit(self):
        # scipy.special.ive is nan past t ~ 1.07e9; the expansion covers it
        t = 2.0e9
        out = bessel_i_scaled_cols(np.arange(41), np.array([t]))[0]
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
