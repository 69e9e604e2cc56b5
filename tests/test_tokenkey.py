"""Token-derived latents, perturbation masks, sign-flip involution."""

import numpy as np
import pytest

from stegolink.rng import hash_token, gaussian_stream
from stegolink.tokenkey import PerturbationMask, build_mask, init_latent, perturb, restore


class TestInitLatent:
    def test_deterministic(self):
        assert np.array_equal(init_latent("9000", (2, 8, 8)), init_latent("9000", (2, 8, 8)))

    def test_is_the_tokens_init_stream(self):
        grid = init_latent("9000", (1, 4, 4))
        assert np.array_equal(grid.ravel(), gaussian_stream(hash_token("9000", "init"), 16))

    def test_distinct_tokens_differ_almost_everywhere(self):
        a = init_latent("9000", (1, 100, 100))
        b = init_latent("6718", (1, 100, 100))
        assert float(np.mean(a != b)) > 0.99

    def test_moments_at_scale(self):
        grid = init_latent("moment-check", (1, 1000, 1000))
        assert abs(float(grid.mean())) < 0.005
        assert abs(float(grid.var()) - 1.0) < 0.01

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            init_latent("9000", (0, 8, 8))

    @pytest.mark.parametrize("shape", [(1, 8.5, 8), (1, True, 8), (1.0, 8, 8), ("2", 4, 4)])
    def test_non_integer_dimensions_rejected_by_name(self, shape):
        # refused by name before the draw, not by numpy's reshape after it
        with pytest.raises(ValueError, match="^shape: "):
            init_latent("9000", shape)
        with pytest.raises(ValueError, match="^shape: "):
            build_mask("9000", shape, 0.05)


class TestBuildMask:
    def test_eta_zero_all_clear(self):
        assert not build_mask("9000", (4, 16, 16), 0.0).bits.any()

    def test_eta_one_all_set(self):
        assert build_mask("9000", (4, 16, 16), 1.0).bits.all()

    def test_bits_binary_uint8(self):
        m = build_mask("9000", (2, 8, 8), 0.3)
        assert m.bits.dtype == np.uint8
        assert set(np.unique(m.bits)) <= {0, 1}

    def test_paper_grid_count_band(self):
        # 4x64x64 at eta 0.05: binomial 3 sigma is 819.2 +/- 83.7
        m = build_mask("9000", (4, 64, 64), 0.05)
        assert abs(int(m.bits.sum()) - 819.2) <= 84.0

    @pytest.mark.parametrize("eta", [0.01, 0.05, 0.1, 0.5])
    def test_density_within_binomial_band(self, eta):
        shape = (4, 64, 64)
        n = 4 * 64 * 64
        m = build_mask("density-token", shape, eta)
        band = 3.0 * np.sqrt(eta * (1.0 - eta) / n)
        assert abs(m.bits.mean() - eta) <= band

    def test_deterministic(self):
        a = build_mask("9000", (2, 8, 8), 0.5)
        b = build_mask("9000", (2, 8, 8), 0.5)
        assert np.array_equal(a.bits, b.bits)

    def test_eta_out_of_range_rejected(self):
        # a bool once built an all-set mask, and a string raised Python's TypeError
        for eta in (-0.01, 1.01, True, "0.5"):
            with pytest.raises(ValueError, match="^eta: "):
                build_mask("9000", (2, 8, 8), eta)

    def test_token_sensitivity_agreement_fraction(self):
        # independent masks agree on (1-eta)^2 + eta^2 of positions
        eta, n = 0.05, 4 * 64 * 64
        a = build_mask("token-a", (4, 64, 64), eta)
        b = build_mask("token-b", (4, 64, 64), eta)
        agree = float(np.mean(a.bits == b.bits))
        expect = (1.0 - eta) ** 2 + eta ** 2
        band = 3.0 * np.sqrt(expect * (1.0 - expect) / n)
        assert abs(agree - expect) <= band

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            PerturbationMask(bits=np.full((2, 2), 2, dtype=np.uint8))

    @pytest.mark.parametrize("bits", [np.array([0.5, 1.7]), np.array([0.0, np.nan]), [-1], ["1"]],
                             ids=["fractions", "nan", "minus-one", "string"])
    def test_bits_are_checked_before_the_cast(self, bits):
        # a cast first would round 0.5 and 1.7 to 0 and 1, turn a NaN into 0
        # with a RuntimeWarning, fail on -1 with an OverflowError, and parse
        # the string "1" as the bit 1
        with pytest.raises(ValueError, match="^mask bits must be 0 or 1$"):
            PerturbationMask(bits=bits)

    @pytest.mark.parametrize("bits, ok", [
        (np.array([[True, False], [False, True]]), True),
        (np.array([[0, 1], [1, 0]]), True),
        (np.array([[0, 1], [1, 0]], dtype=np.uint8), True),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), True),
        (np.zeros((2, 2), dtype=bool), True),
        (np.array([[0, 2], [1, 0]]), False),
        (np.array([[0, 1], [255, 0]]), False),
        (np.full((2, 2), 255, dtype=np.uint8), False),
        (np.array([[0, 1], [-1, 0]]), False),  # wraps to 255 as uint8
    ])
    def test_accepts_exactly_what_isin_accepted(self, bits, ok):
        # the uint8 bits pass iff np.isin(bits, (0, 1)).all()
        assert np.isin(np.asarray(bits, dtype=np.uint8), (0, 1)).all() == ok
        if ok:
            assert np.array_equal(PerturbationMask(bits=bits).bits, np.asarray(bits, dtype=np.uint8))
        else:
            with pytest.raises(ValueError, match="0 or 1"):
                PerturbationMask(bits=bits)


class TestPerturbRestore:
    def test_direct_evaluation(self):
        m = PerturbationMask(bits=np.array([0, 1, 1], dtype=np.uint8))
        assert np.array_equal(perturb(np.array([1.0, -2.0, 3.0]), m),
                              np.array([1.0, 2.0, -3.0]))

    def test_all_clear_mask_is_identity(self):
        z = gaussian_stream(1, 64).reshape(1, 8, 8)
        m = build_mask("9000", (1, 8, 8), 0.0)
        assert np.array_equal(perturb(z, m), z)

    @pytest.mark.parametrize("eta", [0.01, 0.05, 0.1, 0.5, 1.0])
    def test_involution_bit_exact(self, eta):
        for i in range(50):
            z = gaussian_stream(1000 + i, 64).reshape(1, 8, 8)
            m = build_mask(f"tok-{i}", (1, 8, 8), eta)
            assert np.array_equal(perturb(perturb(z, m), m), z)
            assert np.array_equal(restore(perturb(z, m), m), z)

    def test_shape_mismatch_rejected(self):
        m = build_mask("9000", (1, 8, 8), 0.5)
        with pytest.raises(ValueError):
            perturb(np.zeros((2, 8, 8)), m)

    def test_moments_preserved(self):
        z = gaussian_stream(77, 1_000_000)
        m = build_mask("moments", (1_000_000,), 0.5)
        flipped = perturb(z, m)
        assert abs(float(flipped.mean())) < 0.005
        assert abs(float(flipped.var()) - 1.0) < 0.01

    def test_wrong_mask_corrupts_expected_fraction(self):
        # restoring with an independent mask flips the xor of the two masks,
        # a 2 eta (1 - eta) fraction
        eta, n = 0.05, 4 * 64 * 64
        z = gaussian_stream(5, n).reshape(4, 64, 64)
        right = build_mask("right-token", (4, 64, 64), eta)
        wrong = build_mask("wrong-token", (4, 64, 64), eta)
        got = restore(perturb(z, right), wrong)
        frac = float(np.mean(got != z))
        expect = 2.0 * eta * (1.0 - eta)
        band = 3.0 * np.sqrt(expect * (1.0 - expect) / n)
        assert abs(frac - expect) <= band
