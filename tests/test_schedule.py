"""Noise schedule construction and its per-step coefficient identities."""

import numpy as np
import pytest

from stegolink.schedule import build_schedule


class TestBuildSchedule:
    def test_single_step_hand_values(self):
        s = build_schedule(1, 0.1, 0.1)
        assert np.allclose(s.alpha_bar, [1.0, 0.9])
        assert s.a[1] == pytest.approx(np.sqrt(1.0 / 0.9), abs=1e-15)
        assert s.a[1] == pytest.approx(1.0540925533894598, abs=1e-12)

    def test_first_step_noise_mix_boundary(self):
        # sqrt(1 - alpha_bar[0]) = 0, so b[1] = -a[1] * sqrt(1 - alpha_bar[1])
        s = build_schedule(1, 0.1, 0.1)
        assert s.b[1] == pytest.approx(-s.a[1] * np.sqrt(1.0 - 0.9), abs=1e-15)

    @pytest.mark.parametrize("beta", [0.001, 0.02, 0.1])
    def test_constant_beta_closed_form(self, beta):
        s = build_schedule(20, beta, beta)
        t = np.arange(21)
        assert np.allclose(s.alpha_bar, (1.0 - beta) ** t, rtol=0, atol=1e-12)

    def test_linear_beta_endpoints(self):
        s = build_schedule(50, 1e-4, 2e-2)
        assert s.alpha_bar[1] == pytest.approx(1.0 - 1e-4, abs=1e-15)
        assert s.alpha_bar[50] / s.alpha_bar[49] == pytest.approx(1.0 - 2e-2, abs=1e-12)

    def test_alpha_bar_monotone_in_unit_interval(self):
        s = build_schedule(50)
        assert s.alpha_bar[0] == 1.0
        assert np.all(np.diff(s.alpha_bar) < 0.0)
        assert np.all(s.alpha_bar > 0.0) and np.all(s.alpha_bar <= 1.0)

    @pytest.mark.parametrize("T", [1, 10, 50])
    def test_coefficient_identities(self, T):
        s = build_schedule(T)
        assert np.max(np.abs(s.gamma[1:] * s.a[1:] - 1.0)) < 1e-15
        assert np.max(np.abs(s.omega[1:] - s.b[1:] * s.gamma[1:])) < 1e-15

    def test_slot_zero_is_identity(self):
        s = build_schedule(10)
        assert s.a[0] == 1.0 and s.b[0] == 0.0 and s.gamma[0] == 1.0 and s.omega[0] == 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_schedule(0)
        with pytest.raises(ValueError, match="^steps: "):  # a bool once built a 1-step schedule
            build_schedule(True)
        with pytest.raises(ValueError):
            build_schedule(10, 0.0, 0.02)
        with pytest.raises(ValueError):
            build_schedule(10, 1e-4, 1.0)
        with pytest.raises(ValueError):
            build_schedule(10, 0.02, 1e-4)


class TestScheduleCache:
    def test_equal_arguments_share_one_schedule(self):
        assert build_schedule(12, 1e-4, 2e-2) is build_schedule(12, 1e-4, 2e-2)
        assert build_schedule(12, 1e-4, 2e-2) is not build_schedule(12, 1e-4, 3e-2)

    def test_arrays_are_read_only(self):
        s = build_schedule(12)
        for name in ("beta", "alpha_bar", "a", "b", "gamma", "omega"):
            arr = getattr(s, name)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[1] = 0.0

    def test_boxed_coefficients_equal_the_arrays(self):
        s = build_schedule(12)
        for name in ("a", "b", "gamma", "omega"):
            arr, boxed = getattr(s, name), getattr(s.coef, name)
            assert len(boxed) == len(arr) == 13
            for t, value in enumerate(boxed):
                assert isinstance(value, np.ndarray) and value.shape == () and value.dtype == np.float64
                assert value.tobytes() == arr[t].tobytes()
                assert not value.flags.writeable
                with pytest.raises(ValueError):
                    value[...] = 0.0

    def test_cache_hits_share_the_boxed_coefficients(self):
        first, second = build_schedule(14), build_schedule(14)
        assert first.coef is second.coef
        assert all(x is y for name in ("a", "b", "gamma", "omega")
                   for x, y in zip(getattr(first.coef, name), getattr(second.coef, name)))

    def test_cached_integer_does_not_admit_an_equal_float(self):
        build_schedule(12, 1e-4, 2e-2)
        with pytest.raises(ValueError):
            build_schedule(12.0, 1e-4, 2e-2)


class TestTelescopedGain:
    # the product of gamma over all T steps telescopes to sqrt(alpha_bar[T])

    def test_single_step_hand_value(self):
        s = build_schedule(1, 0.1, 0.1)
        assert np.sqrt(s.alpha_bar[1]) == pytest.approx(np.sqrt(0.9), abs=1e-15)
        assert np.sqrt(s.alpha_bar[1]) == pytest.approx(0.9486832980505138, abs=1e-12)

    @pytest.mark.parametrize("T", [1, 10, 50])
    def test_equals_product_of_gammas(self, T):
        s = build_schedule(T)
        assert abs(np.sqrt(s.alpha_bar[T]) - float(np.prod(s.gamma[1:]))) < 1e-12

    def test_equals_brute_force_beta_product(self):
        s = build_schedule(50, 1e-4, 2e-2)
        betas = np.linspace(1e-4, 2e-2, 50)
        assert np.sqrt(s.alpha_bar[50]) == pytest.approx(np.sqrt(np.prod(1.0 - betas)), abs=1e-12)
