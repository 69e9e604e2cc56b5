"""Reconstruction quality metrics and their algebraic identities."""

import warnings

import numpy as np
import pytest

from stegolink.metrics import SSIM_MAX_MAGNITUDE, MetricsReport, _mean, compare, mse, psnr, ssim
from stegolink.rng import gaussian_stream


def pair(seed, shape=(1, 8, 8)):
    n = 2 * int(np.prod(shape))
    buf = gaussian_stream(seed, n)
    return buf[:n // 2].reshape(shape), buf[n // 2:].reshape(shape)


class TestMse:
    def test_identical_grids(self):
        a, _ = pair(1)
        assert mse(a, a) == 0.0

    def test_hand_value(self):
        assert mse(np.zeros(2), np.ones(2)) == 1.0

    def test_matches_reordered_summation(self):
        a, b = pair(2, (4, 8, 8))
        d = (a - b).ravel() ** 2
        reordered = float(np.sum(np.sort(d)) / d.size)
        assert abs(mse(a, b) - reordered) < 1e-12

    def test_permutation_invariant(self):
        a, b = pair(3)
        perm = np.random.default_rng(0).permutation(a.size)
        assert abs(mse(a, b) - mse(a.ravel()[perm], b.ravel()[perm])) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((3, 3)))


class TestMean:
    # mse and ssim take their means without np.mean's wrapper; the sum and
    # the division are np.mean's own, so every bit agrees

    @pytest.mark.parametrize("sizes", [range(1, 301), [1024, 4096, 65536]], ids=["1-300", "large"])
    def test_equals_np_mean_bit_for_bit(self, sizes):
        for n in sizes:
            x = gaussian_stream(1000 + n, n) * 3.0 + 0.5
            for grid in (x, x * x, x.reshape(1, 1, n)):
                assert _mean(grid).tobytes() == np.mean(grid).tobytes(), n

    def test_metrics_equal_their_np_mean_formulas(self):
        for seed in range(20):
            a, b = pair(500 + seed, (1, 16, 16))
            assert mse(a, b) == float(np.mean((a - b) ** 2))
            fa, fb = a.ravel(), b.ravel()
            da, db = fa - fa.mean(), fb - fb.mean()
            c1, c2 = (0.01 * 4.0) ** 2, (0.03 * 4.0) ** 2
            num = (2.0 * fa.mean() * fb.mean() + c1) * (2.0 * np.mean(da * db) + c2)
            den = (fa.mean() ** 2 + fb.mean() ** 2 + c1) * (np.mean(da * da) + np.mean(db * db) + c2)
            assert ssim(a, b, 4.0) == float(min(1.0, max(-1.0, num / den)))


class TestPsnr:
    def test_formula_oracle_20db(self):
        # peak 1, mse exactly 1/100
        a = np.zeros((10, 10))
        b = np.zeros((10, 10))
        b[0, 0] = 1.0
        assert psnr(a, b, 1.0) == 20.0

    def test_zero_error_caps_at_100(self):
        a, _ = pair(4)
        assert psnr(a, a, 1.0) == 100.0

    def test_huge_peak_caps_at_100(self):
        a = np.zeros(4)
        b = np.full(4, 1e-9)
        assert psnr(a, b, 1e9) == 100.0

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_consistent_with_mse(self, seed):
        a, b = pair(seed)
        peak = 2.0
        value = psnr(a, b, peak)
        if value < 100.0:
            expect = 10.0 * np.log10(peak ** 2) - 10.0 * np.log10(mse(a, b))
            assert abs(value - expect) < 1e-10

    def test_peak_validated(self):
        a, b = pair(8)
        with pytest.raises(ValueError):
            psnr(a, b, 0.0)
        with pytest.raises(ValueError):
            psnr(a, b, -1.0)
        for peak in (float("nan"), float("inf")):
            for metric in (psnr, ssim):
                with pytest.raises(ValueError, match="peak"):
                    metric(a, b, peak)


class TestSsim:
    def test_self_similarity_exactly_one(self):
        a, _ = pair(9)
        assert ssim(a, a, 1.0) == 1.0

    def test_symmetry(self):
        a, b = pair(10)
        assert abs(ssim(a, b, 1.0) - ssim(b, a, 1.0)) < 1e-12

    def test_range(self):
        for seed in range(20):
            a, b = pair(100 + seed)
            assert -1.0 <= ssim(a, b, 1.0) <= 1.0

    def test_anticorrelated_approaches_minus_one(self):
        # zero mean, variance huge against C2 -> the structural factor
        # dominates and lands near -1
        a = 1e3 * gaussian_stream(11, 4096)
        a = a - a.mean()
        assert ssim(a, -a, 1.0) == pytest.approx(-1.0, abs=1e-3)

    def test_constant_shift_closed_form(self):
        # variance terms vanish, leaving only the luminance factor
        mu, c = 0.5, 0.2
        a = np.full((8, 8), mu)
        b = a + c
        c1 = (0.01 * 1.0) ** 2
        expect = (2.0 * mu * (mu + c) + c1) / (mu ** 2 + (mu + c) ** 2 + c1)
        assert abs(ssim(a, b, 1.0) - expect) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((2, 2)), np.zeros((3, 3)), 1.0)

    @pytest.mark.parametrize("k", [300, 800, 1000])
    def test_power_of_two_scale_leaves_the_bits(self, k):
        # past SSIM_MAX_MAGNITUDE the terms would overflow unscaled; the
        # rescale by a power of two gives the unit-scale score bit for bit
        a, b = pair(15, (1, 16, 16))
        b = 14.0 * b  # a receiver that amplifies far beyond its target
        s = 2.0 ** k
        assert max(np.abs(b).max() * s, 3.0 * s) > SSIM_MAX_MAGNITUDE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = ssim(a * s, b * s, 3.0 * s)
        assert big == ssim(a, b, 3.0)


class TestCompareAndReport:
    def test_compare_bundles_all_three(self):
        a, b = pair(14)
        rep = compare(a, b, peak=2.0)
        assert rep.mse == mse(a, b)
        assert rep.psnr_db == psnr(a, b, 2.0)
        assert rep.ssim == ssim(a, b, 2.0)

    def test_compare_validates_peak(self):
        a, b = pair(16)
        for peak in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="peak"):
                compare(a, b, peak)

    @pytest.mark.parametrize("scale", [1e154, 1e200])
    def test_overflowing_mse_raises_without_a_warning(self, scale):
        # finite grids whose squared difference leaves float64: an error,
        # never an inf MSE and a -inf PSNR in a report
        a, b = pair(17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: mse(a * scale, -b * scale), lambda: psnr(a * scale, -b * scale, 2.0),
                         lambda: compare(a * scale, -b * scale, 2.0)):
                with pytest.raises(ValueError, match="overflows float64"):
                    call()
            assert np.isfinite(compare(a * 1e150, b * 1e150, 2.0).mse)

    def test_report_round_trips_through_dict(self):
        rep = MetricsReport(mse=0.25, psnr_db=12.5, ssim=0.75)
        assert rep.to_dict() == {"mse": 0.25, "psnr_db": 12.5, "ssim": 0.75}
