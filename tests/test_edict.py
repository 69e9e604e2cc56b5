"""Coupled-chain invertible sampler and the single-chain baseline."""

import dataclasses
import warnings

import numpy as np
import pytest

import stegolink.edict as edict

from stegolink.edict import (
    CoupledState,
    SamplerDivergenceError,
    SamplerParams,
    ddim_sample,
    edict_forward,
    edict_reverse,
)
from stegolink.predictor import ConditionSet, Predictor, embed_text
from stegolink.rng import Seed64, gaussian_stream, hash_token
from stegolink.schedule import build_schedule

SHAPES = [(1, 8, 8), (2, 8, 8), (4, 8, 8)]


def seeded_state(tag, i, shape=None):
    shape = shape or SHAPES[i % len(SHAPES)]
    n = int(np.prod(shape))
    buf = gaussian_stream(hash_token(f"{tag}|{i}", "trial"), 2 * n)
    return CoupledState(z=buf[:n].reshape(shape), u=buf[n:].reshape(shape))


def plain(pred, grid, sched):
    """Unconditioned one-row bias over sched for latents shaped like grid."""
    return pred.bias(np.asarray(grid).size, sched, [None])


def shared_conditions():
    return ConditionSet(
        key_embedding=embed_text("key", 64),
        feature_embedding=embed_text("feature", 64),
        ref_embedding=embed_text("reference", 64),
    )


class TestStateAndParams:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CoupledState(np.zeros((1, 8, 8)), np.zeros((2, 8, 8)))

    def test_mixing_p_range(self):
        with pytest.raises(ValueError):
            SamplerParams(mixing_p=0.0)
        with pytest.raises(ValueError):
            SamplerParams(mixing_p=1.5)
        SamplerParams(mixing_p=1.0)  # closed upper endpoint allowed

    def test_edit_strength_range(self):
        with pytest.raises(ValueError):
            SamplerParams(mixing_p=0.9, edit_strength=0.0)
        with pytest.raises(ValueError):
            SamplerParams(mixing_p=0.9, edit_strength=1.1)

    def test_window_from_edit_strength(self):
        assert SamplerParams(mixing_p=0.9, edit_strength=0.5).window(10) == 5
        assert SamplerParams(mixing_p=0.9, edit_strength=0.41).window(10) == 5
        assert SamplerParams(mixing_p=0.9, edit_strength=1.0).window(10) == 10


class TestSubstepAlgebra:
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.93, 1.0])
    def test_mixing_then_unmixing_is_identity(self, p):
        # the convex mixing layer and its unmix inverse, straight from the
        # update equations, composed directly in the test
        rng_z = gaussian_stream(Seed64(31), 64)
        rng_u = gaussian_stream(Seed64(32), 64)
        z_mix = p * rng_z + (1.0 - p) * rng_u
        u_mix = p * rng_u + (1.0 - p) * z_mix
        u_back = (u_mix - (1.0 - p) * z_mix) / p
        z_back = (z_mix - (1.0 - p) * u_back) / p
        assert np.max(np.abs(z_back - rng_z)) < 1e-12
        assert np.max(np.abs(u_back - rng_u)) < 1e-12


class TestClosedForms:
    def test_forward_zero_predictor_telescopes(self):
        sched = build_schedule(10)
        v = gaussian_stream(Seed64(40), 64).reshape(1, 8, 8)
        state = CoupledState(v.copy(), v.copy())
        pred = Predictor("zero", 7)
        out = edict_forward(state, plain(pred, v, sched),
                            SamplerParams(mixing_p=0.93, edit_strength=1.0))
        gain = np.sqrt(sched.alpha_bar[10])  # the product of gamma[1..10]
        assert np.max(np.abs(out.z - gain * v)) < 1e-12
        assert np.max(np.abs(out.u - gain * v)) < 1e-12

    def test_forward_single_step_hand_value(self):
        sched = build_schedule(1, 0.1, 0.1)
        state = CoupledState(np.ones((1, 4, 4)), np.ones((1, 4, 4)))
        pred = Predictor("zero", 7)
        out = edict_forward(state, plain(pred, state.z, sched),
                            SamplerParams(mixing_p=0.93, edit_strength=1.0))
        assert out.z[0, 0, 0] == pytest.approx(0.9486832980505138, abs=1e-12)

    def test_reverse_zero_predictor_divides_by_gain(self):
        sched = build_schedule(10)
        v = gaussian_stream(Seed64(41), 64).reshape(1, 8, 8)
        state = CoupledState(v.copy(), v.copy())
        pred = Predictor("zero", 7)
        out = edict_reverse(state, plain(pred, v, sched),
                            SamplerParams(mixing_p=0.93, edit_strength=1.0))
        assert np.max(np.abs(out.z - v / np.sqrt(sched.alpha_bar[10]))) < 1e-12

    def test_reverse_single_step_p_one(self):
        sched = build_schedule(1, 0.1, 0.1)
        v = gaussian_stream(Seed64(42), 16).reshape(1, 4, 4)
        state = CoupledState(v.copy(), v.copy())
        pred = Predictor("zero", 7)
        out = edict_reverse(state, plain(pred, v, sched),
                            SamplerParams(mixing_p=1.0, edit_strength=1.0))
        assert np.max(np.abs(out.z - sched.a[1] * v)) < 1e-15

    def test_p_one_chains_evolve_independently(self):
        # unmixing is the identity at p=1, so distinct chains just telescope
        sched = build_schedule(10)
        st = seeded_state("p1-indep", 0, (1, 8, 8))
        pred = Predictor("zero", 7)
        out = edict_forward(st, plain(pred, st.z, sched),
                            SamplerParams(mixing_p=1.0, edit_strength=1.0))
        gain = np.sqrt(sched.alpha_bar[10])  # the product of gamma[1..10]
        assert np.max(np.abs(out.z - gain * st.z)) < 1e-12
        assert np.max(np.abs(out.u - gain * st.u)) < 1e-12

    def test_chain_symmetry_with_state_independent_predictor(self):
        sched = build_schedule(10)
        v = gaussian_stream(Seed64(43), 64).reshape(1, 8, 8)
        params = SamplerParams(mixing_p=0.93, edit_strength=1.0)
        pred = Predictor("zero", 7)
        fwd = edict_forward(CoupledState(v.copy(), v.copy()), plain(pred, v, sched), params)
        assert np.max(np.abs(fwd.z - fwd.u)) < 1e-12
        rev = edict_reverse(CoupledState(v.copy(), v.copy()), plain(pred, v, sched), params)
        assert np.max(np.abs(rev.z - rev.u)) < 1e-12

    def test_window_respects_edit_strength(self):
        # forward over half the schedule telescopes over just that window
        sched = build_schedule(10)
        v = gaussian_stream(Seed64(44), 64).reshape(1, 8, 8)
        pred = Predictor("zero", 7)
        out = edict_forward(CoupledState(v.copy(), v.copy()), plain(pred, v, sched),
                            SamplerParams(mixing_p=0.93, edit_strength=0.5))
        gain = float(np.prod(sched.gamma[1:6]))
        assert np.max(np.abs(out.z - gain * v)) < 1e-12


INVERSION_CELLS = []
for kind in ("zero", "linear", "tiny-mlp"):
    for p in (0.5, 0.93, 1.0):
        for T in (1, 10, 50):
            marks = []
            if p == 0.5 and T == 50:
                # the unmix layer expands the antisymmetric component by
                # (1/p^2) per step; at p=0.5, T=50 that is 4^50 ~ 1.3e30,
                # so float64 rounding dominates and inversion cannot meet
                # the tolerance
                marks.append(pytest.mark.xfail(
                    strict=True,
                    reason="float64 rounding amplified by (1/p^2)^T = 4^50"))
            INVERSION_CELLS.append(pytest.param(kind, p, T, marks=marks,
                                                id=f"{kind}-p{p}-T{T}"))


class TestExactInversion:
    @pytest.mark.parametrize("kind,p,T", INVERSION_CELLS)
    def test_round_trip(self, kind, p, T):
        sched = build_schedule(T)
        pred = Predictor(kind, weight_seed=7)
        params = SamplerParams(mixing_p=p, edit_strength=1.0)
        worst = 0.0
        for i in range(6):
            st = seeded_state(f"edict-rt|{kind}|{p}|{T}", i)
            bias = plain(pred, st.z, sched)
            back = edict_reverse(edict_forward(st, bias, params), bias, params)
            worst = max(worst,
                        float(np.max(np.abs(back.z - st.z))),
                        float(np.max(np.abs(back.u - st.u))))
        assert worst < 1e-8

    @pytest.mark.parametrize("kind", ["zero", "linear", "tiny-mlp"])
    @pytest.mark.parametrize("p,T", [(0.5, 10), (0.93, 10), (0.93, 50), (1.0, 50)])
    def test_conditioned_round_trip(self, kind, p, T):
        # same tolerance when both directions share one condition set
        sched = build_schedule(T)
        pred = Predictor(kind, weight_seed=7)
        params = SamplerParams(mixing_p=p, edit_strength=1.0)
        st = seeded_state(f"edict-cond|{kind}|{p}|{T}", 0)
        cond = pred.bias(st.z.size, sched, [shared_conditions()])
        back = edict_reverse(edict_forward(st, cond, params), cond, params)
        err = max(float(np.max(np.abs(back.z - st.z))),
                  float(np.max(np.abs(back.u - st.u))))
        assert err < 1e-8

    def test_partial_window_round_trip(self):
        sched = build_schedule(50)
        pred = Predictor("tiny-mlp", weight_seed=7)
        params = SamplerParams(mixing_p=0.93, edit_strength=0.5)
        st = seeded_state("edict-window", 1)
        bias = plain(pred, st.z, sched)
        back = edict_reverse(edict_forward(st, bias, params), bias, params)
        assert float(np.max(np.abs(back.z - st.z))) < 1e-8


class TestDivergenceSignal:
    def test_overflowing_state_raises_with_step(self):
        sched = build_schedule(50)
        pred = Predictor("zero", weight_seed=7)
        params = SamplerParams(mixing_p=0.5, edit_strength=1.0)
        huge = np.full((1, 4, 4), 1e308)
        state = CoupledState(huge, -huge)
        with pytest.raises(SamplerDivergenceError) as exc:
            edict_forward(state, plain(pred, huge, sched), params)
        assert "step" in str(exc.value)

    # the steps below were measured on the sampler that checked every
    # intermediate (four checks per forward step, three per reverse step);
    # checking only each step's outputs must raise at the same step

    @pytest.mark.parametrize("kind", ["zero", "linear", "tiny-mlp"])
    def test_unmix_overflow_raises_at_its_step(self, kind):
        # p = 0.01 stretches the chain gap by 10^4 per step; at step 77 the
        # unmix of a finite state overflows before the predictor runs
        sched = build_schedule(100)
        pred = Predictor(kind, weight_seed=7)
        st = seeded_state("edict-diverge", 0, (1, 8, 8))
        bias = plain(pred, st.z, sched)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SamplerDivergenceError) as exc:
                edict_forward(st, bias, SamplerParams(mixing_p=0.01))
            before = SamplerParams(mixing_p=0.01, edit_strength=0.76)
            assert before.window(100) == 76
            last = edict_forward(st, bias, before)
        assert (exc.value.op, exc.value.step) == ("edict_forward", 77)
        with np.errstate(over="ignore", invalid="ignore"):
            u_inter = (last.u - 0.99 * last.z) / 0.01
            z_inter = (last.z - 0.99 * u_inter) / 0.01
        assert not np.isfinite(z_inter).all()

    @pytest.mark.parametrize("kind, step", [("zero", 45), ("linear", 50), ("tiny-mlp", 45)])
    def test_reverse_overflow_names_op_and_step(self, kind, step):
        sched = build_schedule(50)
        pred = Predictor(kind, weight_seed=7)
        big = np.full((1, 8, 8), 1.7e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SamplerDivergenceError) as exc:
                edict_reverse(CoupledState(big, big), plain(pred, big, sched),
                              SamplerParams(mixing_p=0.5))
        assert (exc.value.op, exc.value.step) == ("edict_reverse", step)
        assert str(exc.value) == f"edict_reverse produced a non-finite state at step {step}"

    @pytest.mark.parametrize("kind, step", [("zero", 45), ("linear", 50), ("tiny-mlp", 45)])
    def test_ddim_overflow_names_op_and_step(self, kind, step):
        sched = build_schedule(50)
        pred = Predictor(kind, weight_seed=7)
        big = np.full((1, 8, 8), 1.7e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SamplerDivergenceError) as exc:
                ddim_sample(big, plain(pred, big, sched), "denoising", SamplerParams(mixing_p=1.0))
        assert (exc.value.op, exc.value.step) == ("ddim_sample", step)


class SpikePredictor:
    """A zero noise estimate, except one NaN value for a finite input at step ``at``.

    On an EDICT forward step only u turns non-finite at that step, and on a
    reverse step z first; counts calls.
    """

    def __init__(self, at, once=False):
        self.at, self.once, self.calls = at, once, 0

    def predict(self, z, t, bias):
        self.calls += 1
        eps = np.zeros(z.shape)
        if t == self.at and np.isfinite(z).all():
            eps.flat[5] = np.nan
            if self.once:
                self.at = None
        return eps


def spiked(st, pred):
    """A zero predictor's bias over build_schedule(10) for st, run by pred instead."""
    return dataclasses.replace(Predictor("zero").bias(st.z.size, build_schedule(10), [None]), predictor=pred)


# T = 10 and edit strength 0.6 give a 6-step window; the first and the last
# step of each pass, in the order it runs them
WINDOW = SamplerParams(mixing_p=0.93, edit_strength=0.6)
PASSES = {
    "edict_forward": (lambda st, pred: edict_forward(st, spiked(st, pred), WINDOW), 2, [1, 6]),
    "edict_reverse": (lambda st, pred: edict_reverse(st, spiked(st, pred), WINDOW), 2, [6, 1]),
    "ddim_noising": (lambda st, pred: ddim_sample(st.z, spiked(st, pred), "noising", WINDOW), 1, [1, 6]),
    "ddim_denoising": (lambda st, pred: ddim_sample(st.z, spiked(st, pred), "denoising", WINDOW), 1, [6, 1]),
}


class TestPassCheck:
    # each pass checks its last state once and replays its steps, checking
    # each, only when that state is non-finite

    @pytest.mark.parametrize("kind", ["zero", "linear", "tiny-mlp"])
    def test_finite_pass_predicts_once_per_evaluation(self, monkeypatch, kind):
        sched = build_schedule(10)
        pred = Predictor(kind, weight_seed=7)
        st = seeded_state("pass-check", 0)
        bias = plain(pred, st.z, sched)
        calls = []
        real = Predictor.predict
        monkeypatch.setattr(Predictor, "predict", lambda *a, **k: calls.append(1) or real(*a, **k))
        hi = WINDOW.window(10)
        edict_forward(st, bias, WINDOW)
        assert len(calls) == 2 * hi
        edict_reverse(st, bias, WINDOW)
        assert len(calls) == 4 * hi
        ddim_sample(st.z, bias, "noising", WINDOW)
        ddim_sample(st.z, bias, "denoising", WINDOW)
        assert len(calls) == 6 * hi

    @pytest.mark.parametrize("name", sorted(PASSES))
    @pytest.mark.parametrize("position", [0, 1], ids=["first", "last"])
    def test_divergence_named_at_the_ends_of_the_window(self, name, position):
        run, per_step, order = PASSES[name]
        pred = SpikePredictor(at=order[position])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SamplerDivergenceError) as exc:
                run(seeded_state("pass-check", 1), pred)
        op = "ddim_sample" if name.startswith("ddim") else name
        assert (exc.value.op, exc.value.step) == (op, order[position])
        # one full pass, then a replay that stops at the failing step
        replayed = 1 if position == 0 else WINDOW.window(10)
        assert pred.calls == per_step * (WINDOW.window(10) + replayed)

    @pytest.mark.parametrize("name", sorted(PASSES))
    def test_unreproduced_divergence_names_the_last_step(self, name):
        # a predictor that is not a pure function of its inputs: the replay
        # stays finite, so the pass fails at its last step, where its first
        # run was seen non-finite
        run, _, order = PASSES[name]
        with pytest.raises(SamplerDivergenceError) as exc:
            run(seeded_state("pass-check", 2), SpikePredictor(at=order[0], once=True))
        assert exc.value.step == order[1]


def reference_pass(name, st, sched, pred, bias, params):
    """Each pass written out with Python-float coefficients, one step at a time."""
    hi = params.window(sched.T)
    p, q = params.mixing_p, 1.0 - params.mixing_p
    a, b, gamma, omega = ([float(x) for x in coef] for coef in (sched.a, sched.b, sched.gamma, sched.omega))
    z, u = st.z, st.u
    if name == "edict_forward":
        for t in range(1, hi + 1):
            u_inter = (u - q * z) / p
            z_inter = (z - q * u_inter) / p
            u = gamma[t] * (u_inter - b[t] * pred.predict(z_inter, t, bias))
            z = gamma[t] * (z_inter - b[t] * pred.predict(u, t, bias))
        return z, u
    if name == "edict_reverse":
        for t in range(hi, 0, -1):
            z_inter = a[t] * z + b[t] * pred.predict(u, t, bias)
            u_inter = a[t] * u + b[t] * pred.predict(z_inter, t, bias)
            z = p * z_inter + q * u_inter
            u = p * u_inter + q * z
        return z, u
    if name == "ddim_denoising":
        for t in range(hi, 0, -1):
            z = a[t] * z + b[t] * pred.predict(z, t, bias)
        return (z,)
    for t in range(1, hi + 1):
        z = gamma[t] * z - omega[t] * pred.predict(z, t, bias)
    return (z,)


def run_pass(name, st, bias, params):
    if name.startswith("ddim"):
        return (ddim_sample(st.z, bias, name[len("ddim_"):], params),)
    out = (edict_forward if name == "edict_forward" else edict_reverse)(st, bias, params)
    return out.z, out.u


class TestBoxedCoefficients:
    # the passes multiply by the schedule's 0-d arrays and p, 1 - p boxed
    # the same way; the IEEE operations are those of Python floats

    @pytest.mark.parametrize("name", sorted(PASSES))
    @pytest.mark.parametrize("kind", ["zero", "linear", "tiny-mlp"])
    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("mixing_p", [0.9, 1])
    def test_pass_equals_the_python_float_loop(self, name, kind, rows, mixing_p):
        sched = build_schedule(20)
        pred = Predictor(kind, weight_seed=7)
        shape = (rows, 1, 8, 8) if rows > 1 else (1, 8, 8)
        st = seeded_state(f"boxed|{rows}", 0, shape)
        conds = [shared_conditions()] * rows if rows > 1 else [None]
        bias = pred.bias(64, sched, conds, 0.5 if rows > 1 else 1.0)
        params = SamplerParams(mixing_p=mixing_p, edit_strength=0.7)
        got = run_pass(name, st, bias, params)
        want = reference_pass(name, st, sched, pred, bias, params)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == np.float64 and g.shape == shape
            assert g.tobytes() == w.tobytes()


class TestBiasNamesItsPass:
    # a pass runs the predictor and the schedule its bias names, and a bias's
    # subset of rows names the same two

    @pytest.mark.parametrize("name", sorted(PASSES))
    def test_pass_runs_the_predictor_and_schedule_of_its_bias(self, name):
        sched = build_schedule(10)
        pred = Predictor("tiny-mlp", weight_seed=8)
        rows = [shared_conditions(), shared_conditions().without_reference()]
        bias = pred.bias(64, sched, rows, 0.5).take([1])
        assert bias.predictor is pred and bias.sched is sched
        st = seeded_state("bias-names", 0, (1, 8, 8))
        params = SamplerParams(mixing_p=0.93, edit_strength=1.0)
        want = reference_pass(name, st, sched, pred, bias, params)
        for g, w in zip(run_pass(name, st, bias, params), want, strict=True):
            assert g.tobytes() == w.tobytes()


class TestEndStateCheck:
    # a pass checks the state it ends on once; the CoupledState it returns
    # does not check the same chains again

    @pytest.fixture
    def checks(self, monkeypatch):
        seen = []
        real = edict._finite
        monkeypatch.setattr(edict, "_finite", lambda arrays: seen.append(len(arrays)) or real(arrays))
        return seen

    @pytest.mark.parametrize("kind", ["zero", "tiny-mlp"])
    def test_finite_pass_checks_its_end_state_once(self, checks, kind):
        sched = build_schedule(10)
        pred = Predictor(kind, weight_seed=7)
        st = seeded_state("end-check", 0, (1, 8, 8))
        bias = plain(pred, st.z, sched)
        assert checks == [2]  # building st from outside checked it
        checks.clear()
        fwd = edict_forward(st, bias, WINDOW)
        assert checks == [2]
        edict_reverse(fwd, bias, WINDOW)
        assert checks == [2, 2]
        ddim_sample(st.z, bias, "noising", WINDOW)
        assert checks == [2, 2, 1]


class TestDDIM:
    def test_zero_predictor_denoise_closed_form(self):
        sched = build_schedule(10)
        v = gaussian_stream(Seed64(50), 64).reshape(1, 8, 8)
        pred = Predictor("zero", 7)
        out = ddim_sample(v, plain(pred, v, sched), "denoising",
                          SamplerParams(mixing_p=1.0, edit_strength=1.0))
        assert np.max(np.abs(out - v / np.sqrt(sched.alpha_bar[10]))) < 1e-12

    def test_zero_predictor_round_trip(self):
        sched = build_schedule(50)
        v = gaussian_stream(Seed64(51), 64).reshape(1, 8, 8)
        params = SamplerParams(mixing_p=1.0, edit_strength=1.0)
        pred = Predictor("zero", 7)
        noised = ddim_sample(v, plain(pred, v, sched), "noising", params)
        back = ddim_sample(noised, plain(pred, v, sched), "denoising", params)
        assert np.max(np.abs(back - v)) < 1e-12

    def test_direction_validated(self):
        sched = build_schedule(5)
        pred = Predictor("zero", 7)
        bias = plain(pred, np.zeros((1, 4, 4)), sched)
        with pytest.raises(ValueError):
            ddim_sample(np.zeros((1, 4, 4)), bias, "sideways", SamplerParams(mixing_p=1.0))

    def test_round_trip_error_exceeds_coupled_sampler(self):
        # the single-chain inversion reuses the prediction at the wrong
        # state, so its round-trip error dwarfs the coupled sampler's
        sched = build_schedule(50)
        pred = Predictor("tiny-mlp", weight_seed=7)
        params = SamplerParams(mixing_p=0.93, edit_strength=1.0)
        ddim_errs, edict_errs = [], []
        for i in range(10):
            st = seeded_state("ddim-gap", i)
            bias = plain(pred, st.z, sched)
            noised = ddim_sample(st.z, bias, "noising", params)
            back = ddim_sample(noised, bias, "denoising", params)
            ddim_errs.append(float(np.mean(np.abs(back - st.z))))
            rt = edict_reverse(edict_forward(st, bias, params), bias, params)
            edict_errs.append(float(np.mean(np.abs(rt.z - st.z))))
        assert np.mean(ddim_errs) >= 1e3 * np.mean(edict_errs)
        assert all(d > e for d, e in zip(ddim_errs, edict_errs))
