"""Power-normalized codec and seeded AWGN link."""

import math
import sys
import warnings

import numpy as np
import pytest

from stegolink.channel import ChannelConfig, SymbolFrame, decode, encode, transmit
from stegolink.rng import gaussian_stream

# 10 log10 of the smallest normal float64: the highest snr_db whose noise
# divisor 10^(snr_db/10) rounds below it
SUBNORMAL_DIVISOR_DB = 10.0 * math.log10(sys.float_info.min)


class TestEncode:
    def test_known_affine_example(self):
        # zero mean, power 4 -> halved symbols, scale 2, offset 0
        z = np.array([[2.0, -2.0], [2.0, -2.0]])
        f = encode(z)
        assert np.array_equal(f.symbols, z.ravel() / 2.0)
        assert f.scale == 2.0 and f.offset == 0.0

    def test_unit_power_over_random_grids(self):
        for i in range(100):
            z = gaussian_stream(3000 + i, 64).reshape(1, 8, 8) * (1 + i % 5) + i
            f = encode(z)
            assert abs(float(np.mean(f.symbols ** 2)) - 1.0) < 1e-9

    def test_constant_grid_degenerate(self):
        f = encode(np.full((1, 4, 4), 3.25))
        assert f.scale == 1.0 and f.offset == 3.25
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


class TestSymbolFrame:
    @pytest.mark.parametrize("field,value", [
        ("symbols", np.array([1.0, np.nan])), ("symbols", np.array([np.inf, 1.0])), ("symbols", np.zeros(0)),
        ("symbols", np.ones((2, 2))), ("symbols", ["a", "b"]), ("symbols", None),
        ("scale", math.nan), ("scale", math.inf), ("scale", 0.0), ("scale", -1.0), ("scale", 10 ** 400),
        ("scale", "1"), ("scale", None), ("scale", True),
        ("offset", math.inf), ("offset", -math.inf), ("offset", math.nan), ("offset", -10 ** 400),
        ("offset", "0"), ("offset", None),
    ])
    def test_malformed_frame_rejected_by_name_without_warnings(self, field, value):
        # transmit and decode once took each of these: a NaN scale, an
        # infinite offset or NaN symbols decoded to an all-NaN or all-inf
        # grid, a string scale raised TypeError, and empty symbols warned
        frame = {"symbols": np.ones(4), "scale": 1.0, "offset": 0.0, field: value}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                SymbolFrame(**frame)
        assert str(exc.value).startswith(f"{field}: ")

    def test_integer_scale_and_offset_accepted(self):
        f = SymbolFrame(symbols=[1, -1], scale=2, offset=-3)
        assert f.symbols.dtype == np.float64
        assert np.array_equal(decode(f, (2,)), [-1.0, -5.0])


class TestTransmit:
    def test_noiseless_sends_the_symbols_bit_for_bit(self):
        f = encode(gaussian_stream(1, 64).reshape(1, 8, 8))
        out = transmit(f, ChannelConfig(noiseless=True, snr_db=-20.0))
        assert out.symbols.tobytes() == f.symbols.tobytes()
        assert (out.scale, out.offset) == (f.scale, f.offset)

    def test_noise_variance_at_10_db(self):
        # sigma^2 = P / 10 = 0.1 on unit-power symbols
        s = gaussian_stream(2, 1_000_000)
        frame = SymbolFrame(symbols=s / np.sqrt(np.mean(s ** 2)), scale=1.0, offset=0.0)
        noisy = transmit(frame, ChannelConfig(snr_db=10.0, noise_seed=9))
        noise = noisy.symbols - frame.symbols
        assert abs(float(np.mean(noise ** 2)) / 0.1 - 1.0) < 0.02

    @pytest.mark.parametrize("snr_db", [5.0, 10.0, 15.0, 20.0])
    def test_empirical_snr_calibration(self, snr_db):
        s = gaussian_stream(4, 1_000_000)
        frame = SymbolFrame(symbols=s / np.sqrt(np.mean(s ** 2)), scale=1.0, offset=0.0)
        noisy = transmit(frame, ChannelConfig(snr_db=snr_db, noise_seed=11))
        noise = noisy.symbols - frame.symbols
        measured = 10.0 * np.log10(np.mean(frame.symbols ** 2) / np.mean(noise ** 2))
        assert abs(measured - snr_db) < 0.1

    def test_seeded_noise_reproducible(self):
        f = encode(gaussian_stream(5, 256))
        cfg = ChannelConfig(snr_db=5.0, noise_seed=21)
        assert np.array_equal(transmit(f, cfg).symbols, transmit(f, cfg).symbols)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChannelConfig(snr_db=np.inf)

    @pytest.mark.parametrize("field,value", [
        ("snr_db", -6000.0), ("snr_db", 4000.0), ("snr_db", math.inf), ("snr_db", -math.inf),
        ("snr_db", math.nan), ("snr_db", -3090.0), ("snr_db", -3077), ("snr_db", SUBNORMAL_DIVISOR_DB),
        ("noise_seed", -1), ("noise_seed", 1.5), ("noiseless", "no"), ("noiseless", 1),
        ("snr_db", True), ("snr_db", "10"), ("snr_db", None),
    ])
    def test_unusable_field_rejected_by_name_without_warnings(self, field, value):
        # transmit cannot use these: an infinite noise divisor or one below
        # the smallest normal float64, whose noise variance overflows, a
        # seed the noise stream refuses, a noiseless that is not a bool, or
        # a value of another kind
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                ChannelConfig(**{field: value})
        assert str(exc.value).startswith(f"{field}: ")

    def test_smallest_normal_divisor_accepted_with_finite_noise(self):
        # the lowest accepted snr_db: its divisor is the smallest normal
        # float64, and a unit-power frame's noise variance stays finite
        snr_db = math.nextafter(SUBNORMAL_DIVISOR_DB, 0.0)
        assert 10.0 ** (snr_db / 10.0) >= sys.float_info.min
        f = encode(gaussian_stream(3, 64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            received = transmit(f, ChannelConfig(snr_db=snr_db))
        assert np.isfinite(received.symbols).all()

    @pytest.mark.parametrize("symbols,snr_db", [(np.full(64, 1e200), 10.0), (np.full(64, 1e150), -100.0)])
    def test_overflowing_noise_variance_rejected_without_warnings(self, symbols, snr_db):
        # a directly built frame: its power overflows float64 (1e200
        # symbols), or its finite power does once divided by 10^(snr_db/10)
        f = SymbolFrame(symbols=symbols, scale=1.0, offset=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the noise variance overflows float64: signal power "):
                transmit(f, ChannelConfig(snr_db=snr_db))


class TestDecode:
    def test_noiseless_round_trip(self):
        z = gaussian_stream(7, 64).reshape(1, 8, 8) * 3.0 + 1.5
        cfg = ChannelConfig(noiseless=True)
        back = decode(transmit(encode(z), cfg), (1, 8, 8))
        assert np.max(np.abs(back - z)) < 1e-12

    def test_round_trip_at_any_snr_when_noiseless(self):
        z = gaussian_stream(8, 64).reshape(1, 8, 8)
        cfg = ChannelConfig(noiseless=True, snr_db=-20.0)
        back = decode(transmit(encode(z), cfg), (1, 8, 8))
        assert np.max(np.abs(back - z)) < 1e-12

    def test_degenerate_round_trip(self):
        z = np.full((2, 4, 4), -0.75)
        cfg = ChannelConfig(noiseless=True)
        back = decode(transmit(encode(z), cfg), (2, 4, 4))
        assert np.array_equal(back, z)

    def test_overflowing_decode_rejected_without_warnings(self):
        # a directly built frame whose finite scale carries its symbols past float64
        f = SymbolFrame(symbols=np.full(8, 1e10), scale=1e300, offset=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the decoded grid overflows float64: scale 1e\\+300"):
                decode(f, (8,))

    def test_error_variance_propagation(self):
        # per-entry error variance tracks sigma^2 scale^2 within 5%
        z = gaussian_stream(9, 1_000_000) * 2.5 + 0.5
        f = encode(z)
        cfg = ChannelConfig(snr_db=5.0, noise_seed=13)
        back = decode(transmit(f, cfg), z.shape)
        sigma2 = 10.0 ** (-5.0 / 10.0)  # unit-power symbols
        predicted = sigma2 * f.scale ** 2
        measured = float(np.mean((back - z) ** 2))
        assert abs(measured / predicted - 1.0) < 0.05

    def test_mse_monotone_in_snr(self):
        z = gaussian_stream(10, 4096)
        f = encode(z)
        means = []
        for snr_db in (5.0, 10.0, 15.0, 20.0):
            errs = []
            for seed in range(20):
                cfg = ChannelConfig(snr_db=snr_db, noise_seed=500 + seed)
                back = decode(transmit(f, cfg), z.shape)
                errs.append(float(np.mean((back - z) ** 2)))
            means.append(float(np.mean(errs)))
        assert all(lo > hi for lo, hi in zip(means, means[1:]))
