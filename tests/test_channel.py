"""Power-normalized codec and seeded AWGN link."""

import warnings

import numpy as np
import pytest

from stegolink.channel import ChannelConfig, SymbolFrame, decode, encode, transmit
from stegolink.rng import Seed64, gaussian_stream


class TestEncode:
    def test_known_affine_example(self):
        # zero mean, power 4 -> halved symbols, scale 2, offset 0
        z = np.array([[2.0, -2.0], [2.0, -2.0]])
        f = encode(z)
        assert np.array_equal(f.symbols, z.ravel() / 2.0)
        assert f.scale == 2.0 and f.offset == 0.0 and not f.degenerate

    def test_unit_power_over_random_grids(self):
        for i in range(100):
            z = gaussian_stream(Seed64(3000 + i), 64).reshape(1, 8, 8) * (1 + i % 5) + i
            f = encode(z)
            assert abs(float(np.mean(f.symbols ** 2)) - 1.0) < 1e-9

    def test_constant_grid_degenerate(self):
        f = encode(np.full((1, 4, 4), 3.25))
        assert f.degenerate and f.scale == 1.0 and f.offset == 3.25
        assert not f.symbols.any()

    def test_empty_and_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            encode(np.zeros((0,)))
        with pytest.raises(ValueError):
            encode(np.array([1.0, np.inf]))

    def test_overflowing_power_rejected_without_warnings(self):
        # finite values whose squares exceed float64
        z = np.array([[1e200, -1e200], [3e200, 2e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="grid power overflows float64"):
                encode(z)


class TestTransmit:
    def test_noiseless_is_pure_gain(self):
        f = encode(gaussian_stream(Seed64(1), 64).reshape(1, 8, 8))
        out = transmit(f, ChannelConfig(noiseless=True, h=1.0))
        assert np.array_equal(out.symbols, f.symbols)
        out2 = transmit(f, ChannelConfig(noiseless=True, h=2.0))
        assert np.array_equal(out2.symbols, 2.0 * f.symbols)

    def test_noise_variance_at_10_db(self):
        # sigma^2 = P / 10 = 0.1 on unit-power symbols
        s = gaussian_stream(Seed64(2), 1_000_000)
        frame = SymbolFrame(symbols=s / np.sqrt(np.mean(s ** 2)), scale=1.0, offset=0.0)
        noisy = transmit(frame, ChannelConfig(snr_db=10.0, noise_seed=9))
        noise = noisy.symbols - frame.symbols
        assert abs(float(np.mean(noise ** 2)) / 0.1 - 1.0) < 0.02

    @pytest.mark.parametrize("snr_db", [5.0, 10.0, 15.0, 20.0])
    def test_empirical_snr_calibration(self, snr_db):
        s = gaussian_stream(Seed64(4), 1_000_000)
        frame = SymbolFrame(symbols=s / np.sqrt(np.mean(s ** 2)), scale=1.0, offset=0.0)
        noisy = transmit(frame, ChannelConfig(snr_db=snr_db, noise_seed=11))
        noise = noisy.symbols - frame.symbols
        measured = 10.0 * np.log10(np.mean(frame.symbols ** 2) / np.mean(noise ** 2))
        assert abs(measured - snr_db) < 0.1

    def test_seeded_noise_reproducible(self):
        f = encode(gaussian_stream(Seed64(5), 256))
        cfg = ChannelConfig(snr_db=5.0, noise_seed=21)
        assert np.array_equal(transmit(f, cfg).symbols, transmit(f, cfg).symbols)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChannelConfig(snr_db=np.inf)
        with pytest.raises(ValueError):
            ChannelConfig(h=np.nan)


class TestDecode:
    def test_noiseless_round_trip(self):
        z = gaussian_stream(Seed64(7), 64).reshape(1, 8, 8) * 3.0 + 1.5
        cfg = ChannelConfig(noiseless=True)
        back = decode(transmit(encode(z), cfg), cfg, (1, 8, 8))
        assert np.max(np.abs(back - z)) < 1e-12

    def test_gain_equalized_round_trip(self):
        z = gaussian_stream(Seed64(8), 64).reshape(1, 8, 8)
        cfg = ChannelConfig(noiseless=True, h=2.0)
        back = decode(transmit(encode(z), cfg), cfg, (1, 8, 8))
        assert np.max(np.abs(back - z)) < 1e-12

    def test_degenerate_round_trip(self):
        z = np.full((2, 4, 4), -0.75)
        cfg = ChannelConfig(noiseless=True)
        back = decode(transmit(encode(z), cfg), cfg, (2, 4, 4))
        assert np.array_equal(back, z)

    def test_zero_gain_rejected(self):
        f = encode(np.arange(8.0))
        with pytest.raises(ValueError):
            decode(f, ChannelConfig(h=0.0), (8,))

    def test_error_variance_propagation(self):
        # per-entry error variance tracks sigma^2 scale^2 / h^2 within 5%
        z = gaussian_stream(Seed64(9), 1_000_000) * 2.5 + 0.5
        f = encode(z)
        cfg = ChannelConfig(snr_db=5.0, h=2.0, noise_seed=13)
        back = decode(transmit(f, cfg), cfg, z.shape)
        sigma2 = 10.0 ** (-5.0 / 10.0)  # unit-power symbols
        predicted = sigma2 * f.scale ** 2 / cfg.h ** 2
        measured = float(np.mean((back - z) ** 2))
        assert abs(measured / predicted - 1.0) < 0.05

    def test_mse_monotone_in_snr(self):
        z = gaussian_stream(Seed64(10), 4096)
        f = encode(z)
        means = []
        for snr_db in (5.0, 10.0, 15.0, 20.0):
            errs = []
            for seed in range(20):
                cfg = ChannelConfig(snr_db=snr_db, noise_seed=500 + seed)
                back = decode(transmit(f, cfg), cfg, z.shape)
                errs.append(float(np.mean((back - z) ** 2)))
            means.append(float(np.mean(errs)))
        assert all(lo > hi for lo, hi in zip(means, means[1:]))
