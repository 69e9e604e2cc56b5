"""End-to-end hide/reveal orchestration and the adversary models."""

import json
import math
import re
import sys
import warnings

from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import stegolink.edict as edict
import stegolink.pipeline as pipeline
from stegolink.channel import ChannelConfig, decode, encode, transmit
from stegolink.edict import CoupledState, SamplerDivergenceError, SamplerParams, edict_forward, edict_reverse
from stegolink.harness import ConfigError, SweepSpec, _trial_config, run_sweep, sweep_work
from stegolink.metrics import SSIM_MAX_MAGNITUDE
from stegolink.pipeline import (
    RECEIVERS,
    REVEAL_ROWS,
    STOCK_REFERENCE_TOKEN,
    KeyedLink,
    PipelineConfig,
    eavesdrop,
    hide,
    make_secret,
    reveal,
    run_trial,
    sync_gain,
)
from stegolink.predictor import Predictor
from stegolink.rng import RandomStream, _check_seed, derive, hash_token
from stegolink.schedule import _check_schedule, build_schedule
from stegolink.tokenkey import build_mask, restore


# the owner of each field's rule, its kind included, as a call on the value
OWNERS = {
    "mixing_p": lambda v: SamplerParams(mixing_p=v),
    "edit_strength": lambda v: SamplerParams(edit_strength=v),
    "snr_db": lambda v: ChannelConfig(snr_db=v),
    "steps": lambda v: _check_schedule(v, 1e-4, 2e-2),  # checked, not built: 2^64 - 1 steps would not fit
    "beta_start": lambda v: build_schedule(50, v),
    "beta_end": lambda v: build_schedule(50, beta_end=v),
    "predictor_kind": Predictor,
    "embed_dim": lambda v: Predictor("zero", embed_dim=v),
    "guidance_weight": lambda v: Predictor("zero").bias(64, build_schedule(1), [None], v),
    "eta": lambda v: build_mask("owner", (1, 2, 2), v),
    "noise_seed": lambda v: ChannelConfig(noise_seed=v),
    **{name: lambda v, name=name: _check_seed(v, name) for name in ("predictor_seed", "secret_seed")},
}

EDGE_VALUES = [
    0, 0.0, -0.0, 5e-324, -5e-324, 1e-320,
    math.nextafter(sys.float_info.min, 0.0), sys.float_info.min, math.nextafter(sys.float_info.min, 1.0),
    math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 1, -1, 2 ** 64, 2 ** 64 - 1,
    1e308, -1e308, 10 ** 400, -10 ** 400, math.inf, -math.inf, math.nan,
    True, False, "", "x", "10", None, [1, 8, 8], [], {},
]


def fast_cfg(**kw):
    base = dict(steps=10, shape=(1, 8, 8), noiseless=True)
    base.update(kw)
    return PipelineConfig(**base)


def sweep_configs(spec):
    return [_trial_config(spec, point, point_index, trial_index)
            for point_index, point in enumerate(spec.points()) for trial_index in range(spec.trials_per_point)]


def conditioned_like(link, conditions, guidance_weight):
    """A bias the link's predictor builds afresh over its schedule, one row per condition set."""
    bias = link.reveal.noise
    return bias.predictor.bias(bias.n, bias.sched, conditions, guidance_weight)


def uncached_conditions(cfg, token):
    """A token's condition set built afresh, past the build_conditions cache."""
    return pipeline.build_conditions.__wrapped__(
        token, key_text=cfg.public_key_text, feature_text=cfg.feature_text, embed_dim=cfg.embed_dim,
        kind=cfg.predictor_kind, model_seed=derive(cfg.predictor_seed, "reference-model"),
        steps=cfg.steps, beta_start=cfg.beta_start, beta_end=cfg.beta_end, shape=cfg.shape)


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("token", ""),
        ("eta", 1.5),
        ("eta", -0.1),
        ("steps", 0),
        ("mixing_p", 0.0),
        ("mixing_p", 1.2),
        ("edit_strength", 0.0),
        ("guidance_weight", 2.0),
        ("snr_db", float("inf")),
        ("predictor_kind", "resnet"),
        ("embed_dim", 0),
        ("beta_start", 0.0),
        ("shape", (1, 8)),
        ("shape", (0, 8, 8)),
        ("beta_start", 0.05),
        ("steps", 10.5),
        ("steps", True),
        ("embed_dim", 8.0),
        ("edit_strength", 1.5),
        ("beta_end", 1.0),
        ("predictor_seed", -1),
        ("secret_seed", -3),
        ("noise_seed", 2 ** 64),
        ("shape", (1, 8.5, 8)),
        ("shape", (1, True, 8)),
        ("shape", "188"),
        ("token", 9000),
        ("eavesdropper_token", 856427),
        ("predictor_kind", None),
        ("noiseless", "no"),
        ("noiseless", 1),
        ("snr_db", "10"),
        ("mixing_p", "0.9"),
        ("eta", True),
        ("snr_db", -6000.0),
        ("snr_db", 4000),
        ("snr_db", -3090.0),
        ("shape", (1, 1, 1)),
    ])
    def test_invalid_field_named_in_error(self, field, value):
        with pytest.raises(ValueError) as exc:
            PipelineConfig(**{field: value})
        assert field in str(exc.value)

    @pytest.mark.parametrize("field,value", [
        (field, value) for field in OWNERS for value in (
            0.0, 5e-324, -5e-324, 1e-320, math.nextafter(sys.float_info.min, 0.0), sys.float_info.min,
            math.nextafter(sys.float_info.min, 1.0), math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0),
            math.inf, -math.inf, math.nan, -6000.0, 4000.0, -1, 0, 1, 64, 2 ** 64 - 1, 2 ** 64,
            "zero", "linear", "tiny-mlp", "resnet", True, False, "", "10", None, [1, 8, 8], {})])
    def test_owner_decides_each_field(self, field, value):
        # a value, of any kind, is refused by the config exactly when the
        # field's owner refuses it, with the owner's message
        def refusal(build, value):
            try:
                build(value)
            except ValueError as e:
                return str(e)
            return None

        assert refusal(lambda v: PipelineConfig(**{field: v}), value) == refusal(OWNERS[field], value)

    @pytest.mark.parametrize("field", [f.name for f in fields(PipelineConfig)])
    def test_edge_values_accepted_or_refused_by_name(self, field):
        # each value is accepted, or refused naming the field alone, with no
        # other exception and no warning; as a sweep axis, a value the config
        # refuses and every list or object is refused naming axes.<field>
        base = PipelineConfig()
        wrong = []
        for value in EDGE_VALUES:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    PipelineConfig(**{field: value})
                    accepted = True
                except ValueError as e:
                    accepted = False
                    if not str(e).startswith(f"{field}: "):
                        wrong.append((value, str(e)))
                try:
                    SweepSpec(base=base, axes={field: [value]})
                    if not accepted or isinstance(value, (list, dict)):
                        wrong.append((value, "accepted as an axis"))
                except ConfigError as e:
                    if accepted and not isinstance(value, (list, dict)) or not str(e).startswith(f"axes.{field}: "):
                        wrong.append((value, str(e)))
        assert wrong == []

    def test_dict_round_trip(self):
        cfg = fast_cfg(token="4242", eta=0.1, snr_db=7.5)
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    def test_readme_reference_lists_every_field(self):
        # the backticked names in the first column of README's table
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        documented = {name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])}
        assert documented == {f.name for f in fields(PipelineConfig)}

    # the removed fields too: an old config file that still sets them fails
    @pytest.mark.parametrize("key", ["bogus_knob", "complex_iq", "perturb_both_chains", "reference_steps",
                                     "reference_predictor_seed", "h"])
    def test_unknown_key_rejected(self, key):
        d = fast_cfg().to_dict()
        d[key] = 1
        with pytest.raises(ValueError) as exc:
            PipelineConfig.from_dict(d)
        assert key in str(exc.value)


class TestSyncGain:
    def test_power_of_two(self):
        for p, steps in [(0.93, 25), (0.8, 10), (0.5, 3)]:
            g = sync_gain(p, steps)
            assert float(np.log2(g)) == int(np.log2(g))

    def test_default_window_value(self):
        # (1/0.93^2)^25 ~ 37.7, nearest power of two is 32
        assert sync_gain(0.93, 25) == 32.0

    def test_identity_mixing_needs_no_gain(self):
        assert sync_gain(1.0, 50) == 1.0

    def test_capped_finite(self):
        assert np.isfinite(sync_gain(0.01, 500))


class TestHide:
    def test_deterministic(self):
        cfg = fast_cfg()
        secret = make_secret(11, cfg.shape)
        link = KeyedLink(cfg)
        assert np.array_equal(hide(secret, link), hide(secret, link))
        assert np.array_equal(hide(secret, link), hide(secret, KeyedLink(cfg)))

    def test_output_carries_pair_in_double_channels(self):
        cfg = fast_cfg(shape=(2, 8, 8))
        secret = make_secret(11, cfg.shape)
        assert hide(secret, KeyedLink(cfg)).shape == (4, 8, 8)

    def test_shape_mismatch_rejected(self):
        cfg = fast_cfg()
        with pytest.raises(ValueError):
            hide(np.zeros((2, 8, 8)), KeyedLink(cfg))

    def test_nonfinite_secret_rejected(self):
        cfg = fast_cfg()
        bad = np.full(cfg.shape, np.nan)
        with pytest.raises(ValueError):
            hide(bad, KeyedLink(cfg))

    @pytest.mark.parametrize("kind", ["zero", "linear", "tiny-mlp"])
    def test_overflowing_difference_panel_named(self, kind):
        # mixing_p 1e-6 over 20 steps sets a pair gain of 2^797; times the
        # hidden chains' gap that leaves float64 (a RuntimeWarning, then a
        # "non-finite values" error from the channel encoder, before)
        cfg = fast_cfg(predictor_kind=kind, mixing_p=1e-6, steps=20, edit_strength=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="difference panel overflows float64"):
                run_trial(make_secret(11, cfg.shape), cfg)
            rows = run_sweep(SweepSpec(base=cfg, axes={"mixing_p": [1e-6]}, base_seed="pack"))
        assert rows[0]["error"].startswith("ValueError: the difference panel overflows float64")

    def test_coupled_pass_checks_each_pass_end_once(self, monkeypatch):
        # the sign flip between the two passes keeps the chains finite, so
        # neither it nor the passes' returned states are checked again
        cfg = fast_cfg()
        link = KeyedLink(cfg)
        secret = make_secret(11, cfg.shape)
        seen = []
        real = edict._finite
        monkeypatch.setattr(edict, "_finite", lambda arrays: seen.append(len(arrays)) or real(arrays))
        pipeline._noised.cache_clear()  # a memoised secret skips its start state and noising pass
        hide(secret, link)
        assert seen == [2, 2, 2]  # the secret's start state, then each pass's end
        seen.clear()
        hide(secret, link)
        assert seen == [2]  # the keyed half's end alone

    def test_stego_visible_half_not_secret(self):
        # the carrier must not leak the secret verbatim
        cfg = fast_cfg(steps=25)
        secret = make_secret(11, cfg.shape)
        visible = hide(secret, KeyedLink(cfg))[:cfg.shape[0]]
        rel = float(np.linalg.norm(visible - secret) /
                    max(np.linalg.norm(visible), np.linalg.norm(secret)))
        assert rel > 0.1

    def test_distinct_tokens_distinct_stego(self):
        cfg_by_token = {t: fast_cfg(steps=25, token=t) for t in ("9000", "76576", "6718")}
        secret = make_secret(11, (1, 8, 8))
        grids = {t: hide(secret, KeyedLink(c))[:1] for t, c in cfg_by_token.items()}
        names = list(grids)
        for i in range(3):
            for j in range(i + 1, 3):
                a, b = grids[names[i]], grids[names[j]]
                rel = float(np.linalg.norm(a - b) /
                            max(np.linalg.norm(a), np.linalg.norm(b)))
                assert rel > 0.1


E2E_CELLS = []
for kind in ("zero", "linear", "tiny-mlp"):
    for p in (0.5, 0.93):
        for T in (10, 50):
            for eta in (0.0, 0.05, 0.1, 0.5):
                marks = []
                if p == 0.5 and T == 50 and kind == "linear":
                    # rounding amplified by (1/p^2)^(T/2) = 4^25 clears the
                    # tolerance by orders of magnitude in this regime
                    marks.append(pytest.mark.xfail(
                        strict=True,
                        reason="float64 rounding amplified by 4^25"))
                elif p == 0.5 and T == 50 and kind == "tiny-mlp":
                    # same regime but the measured error straddles the
                    # 1e-6 tolerance, so pass/fail is platform float dust
                    marks.append(pytest.mark.xfail(
                        strict=False,
                        reason="error sits at the tolerance boundary"))
                E2E_CELLS.append(pytest.param(kind, p, T, eta, marks=marks,
                                              id=f"{kind}-p{p}-T{T}-eta{eta}"))


class TestEndToEndRecovery:
    @pytest.mark.parametrize("kind,p,T,eta", E2E_CELLS)
    def test_reveal_inverts_hide(self, kind, p, T, eta):
        cfg = PipelineConfig(predictor_kind=kind, mixing_p=p, steps=T, eta=eta,
                             shape=(1, 8, 8), noiseless=True)
        secret = make_secret(hash_token(f"e2e|{kind}|{p}|{T}|{eta}", "trial"), cfg.shape)
        link = KeyedLink(cfg)
        err = float(np.max(np.abs(reveal(hide(secret, link), link) - secret)))
        assert err < 1e-6

    def test_partial_guidance_weight_exact(self):
        cfg = fast_cfg(steps=25, guidance_weight=0.4)
        secret = make_secret(22, cfg.shape)
        link = KeyedLink(cfg)
        err = float(np.max(np.abs(reveal(hide(secret, link), link) - secret)))
        assert err < 1e-6

    def test_wrong_shape_stego_rejected(self):
        cfg = fast_cfg()
        with pytest.raises(ValueError):
            reveal(np.zeros((3, 8, 8)), KeyedLink(cfg))


class TestEavesdrop:
    def test_model_name_validated(self):
        cfg = fast_cfg()
        with pytest.raises(ValueError):
            eavesdrop(np.zeros((2, 8, 8)), KeyedLink(cfg), "E4")

    def test_readme_model_table_names_every_eavesdropper(self):
        # the backticked names in the first column of README's model table
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| model | capability |", 1)[1].split("\n\n", 1)[0]
        rows = [line for line in table.splitlines() if line.startswith("| `")]
        documented = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
        assert documented == [receiver.name for receiver in RECEIVERS if receiver.name != "legit"]

    def test_e1_returns_visible_stego(self):
        cfg = fast_cfg()
        secret = make_secret(31, cfg.shape)
        link = KeyedLink(cfg)
        stego = hide(secret, link)
        assert np.array_equal(eavesdrop(stego, link, "E1"), stego[:cfg.shape[0]])

    def test_e2_with_correct_token_degenerates_to_legit(self):
        cfg = fast_cfg(eavesdropper_token="9000", token="9000")
        secret = make_secret(32, cfg.shape)
        link = KeyedLink(cfg)
        stego = hide(secret, link)
        assert np.array_equal(eavesdrop(stego, link, "E2"), reveal(stego, link))

    def test_e2_with_wrong_token_differs(self):
        cfg = fast_cfg(eta=0.1)
        secret = make_secret(33, cfg.shape)
        link = KeyedLink(cfg)
        stego = hide(secret, link)
        assert not np.allclose(eavesdrop(stego, link, "E2"), secret, atol=1e-3)

    def test_wrong_token_recovery_strictly_worse(self):
        from stegolink.metrics import psnr
        legit_scores, eaves_scores = [], []
        for i in range(5):
            cfg = PipelineConfig(steps=25, shape=(1, 8, 8), eta=0.1, noiseless=True,
                                 secret_seed=400 + i)
            secret = make_secret(cfg.secret_seed, cfg.shape)
            link = KeyedLink(cfg)
            stego = hide(secret, link)
            peak = float(secret.max() - secret.min())
            legit_scores.append(psnr(reveal(stego, link), secret, peak))
            eaves_scores.append(psnr(eavesdrop(stego, link, "E2"), secret, peak))
        assert np.mean(legit_scores) > np.mean(eaves_scores)


def sent_and_received(secret, cfg, link):
    stego = hide(secret, link)
    return stego, decode(transmit(encode(stego), cfg.channel), stego.shape)


class TestBatchedReveal:
    def test_reveal_and_eavesdrop_return_the_rows_the_trial_scores(self, monkeypatch):
        cfg = fast_cfg(noiseless=False, snr_db=10.0, eta=0.1)
        secret = make_secret(51, cfg.shape)
        scored = []
        real = pipeline.compare

        def capturing(recovered, reference, peak):
            scored.append(recovered)
            return real(recovered, reference, peak)

        monkeypatch.setattr(pipeline, "compare", capturing)
        run_trial(secret, cfg)
        legit, _, e2, e3 = scored
        link = KeyedLink(cfg)
        _, stego_hat = sent_and_received(secret, cfg, link)
        assert np.array_equal(reveal(stego_hat, link), legit)
        assert np.array_equal(eavesdrop(stego_hat, link, "E2"), e2)
        assert np.array_equal(eavesdrop(stego_hat, link, "E3"), e3)

    def test_each_row_matches_its_own_one_row_reveal(self):
        # the unbatched reveal of each receiver, one row at a time with its
        # own conditions and mask; the batched product rounds differently,
        # so rows agree to a tolerance, far below what a wrong key moves
        cfg = fast_cfg(noiseless=False, snr_db=10.0, eta=0.1, steps=25)
        link = KeyedLink(cfg)
        _, stego_hat = sent_and_received(make_secret(52, cfg.shape), cfg, link)
        batched = {"legit": reveal(stego_hat, link), "E2": eavesdrop(stego_hat, link, "E2"),
                   "E3": eavesdrop(stego_hat, link, "E3")}

        n = int(np.prod(cfg.shape))
        pred, sched = link.reveal.noise.predictor, link.reveal.noise.sched
        plain = pred.bias(n, sched, [None])
        tokens = {"legit": cfg.token, "E2": cfg.eavesdropper_token, "E3": STOCK_REFERENCE_TOKEN}
        masks = {"legit": build_mask(cfg.token, cfg.shape, cfg.eta),
                 "E2": build_mask(cfg.eavesdropper_token, cfg.shape, cfg.eta), "E3": None}
        for name, row in batched.items():
            keyed = pred.bias(n, sched, [uncached_conditions(cfg, tokens[name])], cfg.guidance_weight)
            state = edict_forward(pipeline._unpack_pair(stego_hat, cfg.shape[0], link.gain), keyed, link.params)
            if masks[name] is not None:
                state = CoupledState(restore(state.z, masks[name]), restore(state.u, masks[name]))
            alone = edict_reverse(state, plain, link.params).z
            assert np.max(np.abs(row - alone)) < 1e-9, name
        assert not np.allclose(batched["E2"], batched["E3"], atol=1e-3)

    def test_rows_are_in_the_documented_order(self):
        # E3 names no mask token, so its mask row is all zeros, even when E2
        # holds the stock reference's token and so E3's conditions
        assert REVEAL_ROWS == ("legit", "E2", "E3", "roundtrip")
        for eavesdropper_token in ("856427", STOCK_REFERENCE_TOKEN):
            cfg = fast_cfg(eta=0.5, eavesdropper_token=eavesdropper_token)
            link = KeyedLink(cfg)
            bits = link.reveal.mask.bits
            legit = build_mask(cfg.token, cfg.shape, cfg.eta).bits
            assert np.array_equal(bits[0], legit)
            assert np.array_equal(bits[1], build_mask(eavesdropper_token, cfg.shape, cfg.eta).bits)
            assert bits[1].any() and not bits[2].any()
            assert np.array_equal(bits[3], legit)
            want = [uncached_conditions(cfg, t)
                    for t in (cfg.token, eavesdropper_token, STOCK_REFERENCE_TOKEN, cfg.token)]
            assert np.array_equal(link.reveal.noise.cond, conditioned_like(link, want, cfg.guidance_weight).cond)

    def test_divergence_inside_the_reveal_names_op_and_step(self):
        # p = 0.01 over 100 steps expands the chain gap by 10^400, past the
        # 2^1000 gain cap, so even a grid with no gap overflows while noising
        cfg = fast_cfg(predictor_kind="zero", steps=100, edit_strength=1.0, mixing_p=0.01)
        with pytest.raises(SamplerDivergenceError) as exc:
            reveal(np.ones((2, 8, 8)), KeyedLink(cfg))
        assert exc.value.op == "edict_forward" and 1 <= exc.value.step <= 100
        assert str(exc.value) == f"edict_forward produced a non-finite state at step {exc.value.step}"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_stego_rejected_before_any_step(self, monkeypatch, bad):
        link = KeyedLink(fast_cfg(predictor_kind="tiny-mlp"))
        calls = []
        real = Predictor.predict
        monkeypatch.setattr(Predictor, "predict", lambda *a, **k: calls.append(1) or real(*a, **k))
        grid = np.zeros((2, 8, 8))
        grid[1, 3, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            reveal(grid, link)
        with pytest.raises(ValueError, match="finite"):
            eavesdrop(grid, link, "E3")
        assert calls == []


class TestKeyedLink:
    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"Predictor": 0, "generate_reference": 0, "predict": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("Predictor", "generate_reference"):
            monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
        monkeypatch.setattr(Predictor, "predict", counting("predict", Predictor.predict))
        for cache in pipeline.BUILD_CACHES.values():
            cache.cache_clear()
        return counts

    @pytest.mark.parametrize("eavesdropper_token,references", [("856427", 3), ("9000", 2)])
    def test_trial_builds_each_model_and_reference_once(self, counts, eavesdropper_token, references):
        # one hiding and one reference model; one reference per distinct
        # token, 10 predictions each; 5 steps x 2 chains per sampler pass,
        # two passes to hide and two for the batched reveal
        cfg = fast_cfg(token="9000", eavesdropper_token=eavesdropper_token, noiseless=False)
        secret = make_secret(46, cfg.shape)
        run_trial(secret, cfg)
        assert counts == {"Predictor": 2, "generate_reference": references, "predict": 10 * references + 40}
        # another token's link of the same sampler builds its own reference
        # and finds the secret noised: the hide's keyed half and the reveal
        counts.update(dict.fromkeys(counts, 0))
        run_trial(secret, replace(cfg, token="76576"))
        assert counts == {"Predictor": 0, "generate_reference": 1, "predict": 10 + 10 + 20}

    def test_sweep_shares_the_model_and_references(self, counts):
        # the first trial builds both models and three references; the other
        # three trials of the same (config, token) build nothing keyed, and
        # the second point's trials find the first's two stegos: 2 hides of
        # 20 predictions and 4 batched reveals of 20
        spec = SweepSpec(base=fast_cfg(noiseless=False), axes={"snr_db": [5.0, 10.0]},
                         trials_per_point=2, base_seed="shared")
        for cfg in sweep_configs(spec):  # in-process: a sweep's helper counts in its own process
            run_trial(make_secret(cfg.secret_seed, cfg.shape), cfg)
        assert counts == {"Predictor": 2, "generate_reference": 3, "predict": 30 + 2 * 20 + 4 * 20}

    def test_warm_trial_predicts_200_times(self, counts):
        # default window (T=50, edit_strength 0.5, lam 1): 25 steps x 2
        # chains x 2 passes to hide, and as many for all four reveals
        cfg = PipelineConfig(shape=(1, 8, 8))
        run_trial(make_secret(47, cfg.shape), cfg)
        counts.update(dict.fromkeys(counts, 0))
        run_trial(make_secret(48, cfg.shape), replace(cfg, snr_db=5.0))
        assert counts == {"Predictor": 0, "generate_reference": 0, "predict": 200}

    @pytest.mark.parametrize("guidance_weight", [1.0, 0.4])
    def test_reference_generation_predicts_once_per_step(self, counts, guidance_weight):
        # three references over 50 steps; with the reference slot zeroed the
        # two guidance branches agree, so partial guidance costs no more
        KeyedLink(PipelineConfig(shape=(1, 8, 8), guidance_weight=guidance_weight))
        assert counts["predict"] == 150

    def test_caches_hold_at_most_one_links_objects(self):
        for token, kind in (("9000", "tiny-mlp"), ("76576", "zero"), ("6718", "linear")):
            cfg = fast_cfg(token=token, predictor_kind=kind)
            link = KeyedLink(cfg)
        assert pipeline._model.cache_info().currsize == 2
        assert pipeline.build_conditions.cache_info().currsize == 3
        model = pipeline._model("linear", cfg.predictor_seed, cfg.embed_dim)
        run = (link.reveal, link.hide)
        assert all(bias.predictor is model for bias in [p.noise for p in run] + [p.denoise for p in run])

    def test_fresh_tokens_evict_only_the_previous_token(self, counts):
        # each link looks up its token, then the shared eavesdropper and
        # stock references, which so stay the most recently used; looking
        # up the legit token again for the round-trip row would evict them
        n = 5
        for i in range(n):
            KeyedLink(fast_cfg(token=f"fresh-{i}", eavesdropper_token="856427"))
        assert counts["generate_reference"] == n + 2
        assert counts["Predictor"] == 2  # the hiding and the reference model, once each

    def test_receiver_keys(self, monkeypatch):
        # one condition set per distinct token, shared by every row it keys
        looked_up = []
        real = pipeline.build_conditions
        monkeypatch.setattr(pipeline, "build_conditions",
                            lambda token, **kw: looked_up.append(token) or real(token, **kw))
        cfg = fast_cfg(eta=0.5)
        link = KeyedLink(cfg)
        monkeypatch.undo()  # uncached_conditions reads the cache's own function
        assert looked_up == [cfg.token, cfg.eavesdropper_token, STOCK_REFERENCE_TOKEN]
        legit, e2, e3, roundtrip = link.reveal.noise.cond[0]  # guidance 1 keeps the full branch alone
        assert link.reveal.noise.rows == len(REVEAL_ROWS) and np.array_equal(roundtrip, legit)
        assert not np.array_equal(legit, e2) and not np.array_equal(e2, e3)
        want = [uncached_conditions(cfg, t) for t in (*looked_up, cfg.token)]
        assert np.array_equal(link.reveal.noise.cond, conditioned_like(link, want, cfg.guidance_weight).cond)
        assert not np.array_equal(link.reveal.mask.bits[0], link.reveal.mask.bits[1])

    def test_fresh_token_link_builds_only_its_own_mask(self, monkeypatch):
        # each (token, shape, eta) mask is built once, as its reference is;
        # the shared eavesdropper token's stays the most recently used
        built = []
        real = pipeline.build_mask
        monkeypatch.setattr(pipeline, "build_mask", lambda *args: built.append(args[0]) or real(*args))
        pipeline._mask_bits.cache_clear()
        links = [KeyedLink(fast_cfg(predictor_kind="zero", token=f"mask-{i}")) for i in range(3)]
        assert built == ["mask-0", "856427", "mask-1", "mask-2"]
        for i, link in enumerate(links):
            assert np.array_equal(link.reveal.mask.bits[0], real(f"mask-{i}", (1, 8, 8), 0.05).bits)
            assert np.array_equal(link.reveal.mask.bits[1], real("856427", (1, 8, 8), 0.05).bits)
        assert not pipeline._mask_bits("856427", (1, 8, 8), 0.05).flags.writeable

    def test_references_share_one_key_only_condition_set(self, monkeypatch):
        # one key-only set per (key text, feature text, dim), passed to every
        # reference generation without a copy
        seen, built = [], []
        real = pipeline.generate_reference
        monkeypatch.setattr(pipeline, "generate_reference",
                            lambda token, conditions, *args: seen.append(conditions) or real(token, conditions, *args))
        pipeline._key_only_conditions.cache_clear()
        pipeline.build_conditions.cache_clear()
        real_build = pipeline.build_conditions
        monkeypatch.setattr(pipeline, "build_conditions",
                            lambda token, **kw: built.append(real_build(token, **kw)) or built[-1])
        cfg = fast_cfg(eta=0.5)
        link = KeyedLink(cfg)
        key_only = seen[0]
        assert len(seen) == 3 and all(c is key_only for c in seen)
        assert key_only.without_reference() is key_only
        assert not key_only.ref_embedding.any() and not key_only.ref_embedding.flags.writeable
        assert len(built) == 3
        for c in built:
            assert c.key_embedding is key_only.key_embedding and c.feature_embedding is key_only.feature_embedding
            assert c.ref_embedding.any()
        want = conditioned_like(link, [*built, built[0]], cfg.guidance_weight)
        assert np.array_equal(link.reveal.noise.cond, want.cond)

    def test_guidance_sweep_generates_each_reference_once(self, counts):
        # the guidance weight mixes the branches at sampling time, so the
        # references do not depend on it and the cache keeps them across points
        spec = SweepSpec(base=fast_cfg(noiseless=False), axes={"guidance_weight": [0.0, 0.4, 1.0]},
                         trials_per_point=2, base_seed="lambda")
        before = sweep_work()["references"]
        assert all(row["error"] is None for row in run_sweep(spec))
        assert counts["generate_reference"] == 3
        assert sweep_work()["references"] - before == 3  # the helper's builds too


class TestLinkCache:
    @pytest.fixture(autouse=True)
    def cold(self):
        pipeline._keyed_link.cache_clear()

    @staticmethod
    def trial_configs(base):
        # one link's trials: only the channel and the trial's seeds differ
        return [replace(base, snr_db=snr_db, noise_seed=noise_seed, secret_seed=secret_seed, noiseless=False)
                for snr_db, noise_seed, secret_seed in ((10.0, 1, 11), (5.0, 2, 12), (20.0, 3, 13))]

    @staticmethod
    def record(cfg):
        return json.dumps(run_trial(make_secret(cfg.secret_seed, cfg.shape), cfg).to_dict(), sort_keys=True)

    @pytest.mark.parametrize("guidance_weight", [0.4, 1.0])
    @pytest.mark.parametrize("kind", ["zero", "linear", "tiny-mlp"])
    def test_record_same_with_a_cold_and_a_warm_link(self, kind, guidance_weight):
        cfgs = self.trial_configs(fast_cfg(predictor_kind=kind, guidance_weight=guidance_weight, eta=0.1))
        cold = []
        for cfg in cfgs:
            pipeline._keyed_link.cache_clear()
            cold.append(self.record(cfg))
        warm = [self.record(cfg) for cfg in cfgs]
        assert pipeline._keyed_link.cache_info().misses == 1 and warm == cold

    def test_eta_sweep_same_with_a_cold_and_a_warm_link_cache(self):
        spec = SweepSpec(base=fast_cfg(predictor_kind="tiny-mlp", guidance_weight=0.4, noiseless=False),
                         axes={"eta": [0.01, 0.05, 0.5]}, trials_per_point=2, base_seed="eta-links")
        warm = run_sweep(spec)
        cold = []
        for row in warm:
            pipeline._keyed_link.cache_clear()
            cold.append(self.record(PipelineConfig.from_dict(row["trial"]["config"])))
        assert [json.dumps(row["trial"], sort_keys=True) for row in warm] == cold

    def test_the_memo_returns_a_read_only_stego(self):
        cfg = fast_cfg()
        secret = make_secret(5, cfg.shape)
        stego = pipeline._stego(pipeline._link_key(cfg), secret.tobytes())
        assert np.array_equal(stego, hide(secret, KeyedLink(cfg)))
        with pytest.raises(ValueError, match="read-only"):
            stego[0, 0, 0] = 0.0

    def test_snr_sweep_builds_one_link(self):
        spec = SweepSpec(base=fast_cfg(noiseless=False), axes={"snr_db": [5.0, 10.0, 15.0]},
                         trials_per_point=2, base_seed="one-link")
        assert all(row["error"] is None for row in run_sweep(spec))
        assert pipeline._keyed_link.cache_info().misses == 1 and pipeline._keyed_link.cache_info().currsize == 1

    def test_eta_grid_keeps_its_three_links_across_passes(self):
        for index in range(3):
            spec = SweepSpec(base=fast_cfg(predictor_kind="linear", noiseless=False),
                             axes={"eta": [0.01, 0.05, 0.5]}, base_seed=f"pass/{index}")
            for cfg in sweep_configs(spec):  # in-process, as in test_sweep_shares_the_model_and_references
                run_trial(make_secret(cfg.secret_seed, cfg.shape), cfg)
        assert pipeline._keyed_link.cache_info().misses == 3 and pipeline._keyed_link.cache_info().currsize == 3

    def test_fresh_tokens_never_hold_more_than_the_bound(self):
        sizes = []
        for i in range(2 * pipeline._keyed_link.cache_info().maxsize + 1):
            cfg = fast_cfg(predictor_kind="zero", token=f"churn-{i}")
            run_trial(make_secret(i, cfg.shape), cfg)
            sizes.append(pipeline._keyed_link.cache_info().currsize)
        assert sizes == [1, 2, 3, 4, 4, 4, 4, 4, 4]
        assert pipeline._keyed_link.cache_info().misses == len(sizes)

    def test_least_recently_used_link_is_evicted(self):
        cfgs = [fast_cfg(predictor_kind="zero", token=f"lru-{i}") for i in range(5)]
        links = [pipeline._link(cfg) for cfg in cfgs[:4]]
        assert pipeline._link(cfgs[0]) is links[0]  # now the most recently used
        pipeline._link(cfgs[4])  # evicts lru-1
        assert pipeline._link(cfgs[0]) is links[0] and pipeline._link(cfgs[2]) is links[2]
        assert pipeline._keyed_link.cache_info().misses == 5
        assert pipeline._link(cfgs[1]) is not links[1] and pipeline._keyed_link.cache_info().misses == 6

    def test_key_is_every_field_but_the_channel_and_the_seeds(self):
        cfg = fast_cfg()
        link_fields = [f.name for f in fields(PipelineConfig) if f.name not in
                       ("snr_db", "noiseless", "noise_seed", "secret_seed")]
        assert pipeline._link_key(cfg) == tuple(getattr(cfg, name) for name in link_fields)
        link = pipeline._link(cfg)
        trial = replace(cfg, snr_db=3.0, noiseless=False, noise_seed=99, secret_seed=98)
        assert pipeline._link(trial) is link
        for name, value in (("eta", 0.2), ("token", "other"), ("guidance_weight", 0.5), ("steps", 12)):
            assert pipeline._link(replace(cfg, **{name: value})) is not link, name

    @pytest.mark.parametrize("kind", ["zero", "linear", "tiny-mlp"])
    def test_link_of_the_link_fields_gives_the_records_of_the_full_config(self, kind, monkeypatch):
        cfgs = self.trial_configs(fast_cfg(predictor_kind=kind, guidance_weight=0.4, eta=0.1))
        cached = [self.record(cfg) for cfg in cfgs]
        for cfg in cfgs:  # the memo's stego is the hide on the full config's link
            secret = make_secret(cfg.secret_seed, cfg.shape)
            stego = pipeline._stego(pipeline._link_key(cfg), secret.tobytes())
            assert np.array_equal(stego, hide(secret, KeyedLink(cfg)))
        monkeypatch.setattr(pipeline, "_link", KeyedLink)  # built from each trial's PipelineConfig
        assert [self.record(cfg) for cfg in cfgs] == cached
        assert pipeline._keyed_link.cache_info().misses == 1

    def test_link_config_holds_no_trial_field(self):
        link_cfg = pipeline._LinkConfig._make(pipeline._link_key(fast_cfg()))
        assert len(link_cfg) + len(pipeline._TRIAL_FIELDS) == len(fields(PipelineConfig))
        assert not any(hasattr(link_cfg, name) for name in pipeline._TRIAL_FIELDS)

    def test_link_keeps_no_trial_config(self):
        link = KeyedLink(fast_cfg())
        assert not hasattr(link, "cfg") and link.shape == (1, 8, 8)

    def test_hide_runs_the_legit_row_of_the_reveal_terms(self):
        link = KeyedLink(fast_cfg(predictor_kind="tiny-mlp", guidance_weight=0.4, eta=0.5))
        plain, mask, keyed = link.hide
        assert keyed.rows == plain.rows == 1
        assert np.array_equal(keyed.cond, link.reveal.noise.cond[:, [0]])
        assert plain.cond is None and plain.step is link.reveal.denoise.step
        assert np.array_equal(mask.bits, link.reveal.mask.bits[0])
        for bias in (plain, keyed, link.reveal.noise, link.reveal.denoise):
            assert bias.predictor is link.reveal.noise.predictor and bias.sched is link.reveal.noise.sched

    def test_link_holds_its_two_passes_and_nothing_else(self):
        link = KeyedLink(fast_cfg())
        assert sorted(vars(link)) == ["gain", "hide", "noising", "params", "reveal", "shape"]
        assert isinstance(link.hide, pipeline.Pass) and isinstance(link.reveal, pipeline.Pass)


class TestMakeSecret:
    def test_deterministic(self):
        assert np.array_equal(make_secret(5, (2, 8, 8)),
                              make_secret(5, (2, 8, 8)))

    def test_never_constant(self):
        for seed in range(10):
            s = make_secret(seed, (1, 8, 8))
            assert float(s.max() - s.min()) > 0.0

    @pytest.mark.parametrize("seed,shape,name", [
        (1.9, (1, 8, 8), "seed"),
        ("5", (1, 8, 8), "seed"),
        (True, (1, 8, 8), "seed"),
        (-1, (1, 8, 8), "seed"),
        (5, (1, 8.5, 8), "shape"),
        (5, (1, 8.0, 8), "shape"),
        (5, (8, 8), "shape"),
    ])
    def test_seed_and_shape_checked_never_converted(self, seed, shape, name):
        # seeds 1.9, "5" and True once ran as 1, 5 and 1, and 8.5 as 8
        with pytest.raises(ValueError, match=f"^{name}: "):
            make_secret(seed, shape)

    @staticmethod
    def written_out(seed, shape):
        # a fresh meshgrid per call and np.float64 wave parameters
        channels, height, width = shape
        stream = RandomStream(derive(seed, "secret-field"))
        yy, xx = np.meshgrid((np.arange(height) + 0.5) / height,
                             (np.arange(width) + 0.5) / width, indexing="ij")
        grids = []
        for _ in range(channels):
            u = stream.take(12)
            plane = np.zeros((height, width))
            for k in range(3):
                fy, fx, phase = 0.5 + 2.5 * u[3 * k], 0.5 + 2.5 * u[3 * k + 1], 2.0 * np.pi * u[3 * k + 2]
                plane += (1.0 / (k + 1)) * np.cos(2.0 * np.pi * (fy * yy + fx * xx) + phase)
            angle = 2.0 * np.pi * u[9]
            cy, cx = 0.3 + 0.4 * u[10], 0.3 + 0.4 * u[11]
            grids.append(plane + 0.8 * np.sign((yy - cy) * np.cos(angle) + (xx - cx) * np.sin(angle)))
        return np.stack(grids, axis=0)

    @pytest.mark.parametrize("shape", [(1, 8, 8), (2, 16, 16), (1, 32, 32), (3, 5, 7)])
    def test_equals_the_written_out_waves(self, shape):
        # Python-float wave parameters and a shared grid give the same bits
        for seed in (5, 11, 2 ** 64 - 1):
            assert make_secret(seed, shape).tobytes() == self.written_out(seed, shape).tobytes()

    def test_grid_is_shared_and_read_only(self):
        yy, xx = pipeline._secret_grid(8, 8)
        make_secret(1, (2, 8, 8))
        assert pipeline._secret_grid(8, 8)[0] is yy
        assert not yy.flags.writeable and not xx.flags.writeable


class TestRunTrial:
    def test_record_structure_and_finiteness(self):
        cfg = fast_cfg(noiseless=False, snr_db=10.0)
        rec = run_trial(make_secret(41, cfg.shape), cfg)
        for name in ("legit", "eaves1", "eaves2", "eaves3"):
            rep = rec.reports[name]
            assert np.isfinite(rep.mse) and np.isfinite(rep.psnr_db) and np.isfinite(rep.ssim)
        assert rec.edict_roundtrip_error >= 0.0
        assert rec.peak > 0.0

    def test_noiseless_correct_token_hits_cap(self):
        cfg = fast_cfg(steps=25, eta=0.05)
        rec = run_trial(make_secret(42, cfg.shape), cfg)
        assert rec.reports["legit"].psnr_db == 100.0
        assert rec.reports["legit"].ssim == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_records(self):
        cfg = fast_cfg(noiseless=False, snr_db=10.0)
        secret = make_secret(43, cfg.shape)
        first, second = (json.dumps(run_trial(secret, cfg).to_dict(), sort_keys=True) for _ in range(2))
        assert first == second

    def test_record_serialization_round_trip(self):
        cfg = fast_cfg(noiseless=False, snr_db=10.0)
        rec = run_trial(make_secret(44, cfg.shape), cfg)
        line = json.dumps(rec.to_dict(), sort_keys=True)
        assert json.loads(line) == rec.to_dict()

    def test_overflowing_secret_range_rejected(self):
        # every value is finite, but max - min overflows, or at 1e80 SSIM's
        # terms do (it scored -1.0): a ValueError, and no RuntimeWarning on
        # the way (which Tier-1 turns into a failure)
        cfg = fast_cfg()
        secret = make_secret(49, cfg.shape)
        for large in (np.where(secret > 0.0, 1e308, -1e308), secret * 1e80):
            with pytest.raises(ValueError, match="secret magnitude"):
                run_trial(large, cfg)

    def test_secret_at_the_ssim_bound_scores_finite(self):
        cfg = fast_cfg(noiseless=False, snr_db=10.0)
        secret = make_secret(11, cfg.shape)
        secret = secret / np.abs(secret).max() * SSIM_MAX_MAGNITUDE
        rec = run_trial(secret, cfg)
        assert all(-1.0 < rec.reports[name].ssim <= 1.0 for name in ("legit", "eaves1", "eaves2", "eaves3"))
        with pytest.raises(ValueError, match="secret magnitude"):
            run_trial(secret * (1.0 + 2.0 ** -52), cfg)

    def test_amplifying_receiver_at_the_ssim_bound_scores_finite(self):
        # the linear legit grid is ~14x the secret here, past the 1.34x the
        # bound allows for; SSIM rescales instead of overflowing (E2 scored
        # 0.0 after an overflow warning), and scores as at unit scale
        cfg = fast_cfg(predictor_kind="linear", mixing_p=0.5, steps=20, eta=0.05,
                       noiseless=False, snr_db=10.0)
        unit = make_secret(11, cfg.shape)
        secret = unit / np.abs(unit).max() * SSIM_MAX_MAGNITUDE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = run_trial(secret, cfg)
        ref = run_trial(unit, cfg)
        for name in ("legit", "eaves1", "eaves2", "eaves3"):
            assert np.isfinite(rec.reports[name].ssim)
            assert rec.reports[name].ssim == pytest.approx(ref.reports[name].ssim, rel=0.05)

    def test_channel_noise_separates_legit_from_cap(self):
        cfg = fast_cfg(noiseless=False, snr_db=10.0, steps=25)
        rec = run_trial(make_secret(45, cfg.shape), cfg)
        assert rec.reports["legit"].psnr_db < 100.0
        assert rec.edict_roundtrip_error < 1e-6  # channel-free diagnostic


# one other valid value of each scalar config field
OTHER_VALUES = {
    "token": "other", "public_key_text": "a quiet forest at noon", "feature_text": "two shapes side by side",
    "guidance_weight": 0.5, "steps": 12, "beta_start": 2e-4, "beta_end": 3e-2, "predictor_kind": "linear",
    "predictor_seed": 8, "embed_dim": 32, "mixing_p": 0.9, "edit_strength": 0.8, "eta": 0.2, "snr_db": 20.0,
    "noiseless": True, "noise_seed": 2, "secret_seed": 12, "eavesdropper_token": "other-eavesdropper",
}


INERT_BASE = PipelineConfig(steps=10, shape=(1, 8, 8))


def _scores(cfg):
    # a receiver's metrics and the round-trip error, not the config the record
    # echoes; the secret comes from secret_seed, as in a sweep or stegolink run
    record = run_trial(make_secret(cfg.secret_seed, cfg.shape), cfg).to_dict()
    return {key: value for key, value in record.items() if key not in ("config", "peak")}


@pytest.fixture(scope="module")
def default_scores():
    return _scores(INERT_BASE)


def test_inert_guard_covers_every_scalar_field():
    assert set(OTHER_VALUES) == {f.name for f in fields(PipelineConfig) if f.name != "shape"}


@pytest.mark.parametrize("field", list(OTHER_VALUES))
def test_no_config_field_is_inert(field, default_scores):
    # the field, set to another valid value, moves what the trial measures
    assert _scores(replace(INERT_BASE, **{field: OTHER_VALUES[field]})) != default_scores


def _link_noised(cfg):
    """hide's noising pass as the config's own link defines it, and the memo's state for it."""
    link = KeyedLink(cfg)
    secret = make_secret(11, cfg.shape)
    want = edict_forward(CoupledState(secret, secret), link.hide.noise, link.params)
    return want, pipeline._noised(link.noising, secret.tobytes())


@pytest.mark.parametrize("field", [*OTHER_VALUES, "shape"])
def test_the_noising_memo_keys_exactly_the_fields_its_pass_reads(field):
    # the memo returns the pass of the full config's link, and that pass
    # moves exactly when a keyed field does: a field the pass reads but the
    # key leaves out fails here, and so does a keyed field it never reads
    base = PipelineConfig(steps=10, shape=(1, 8, 8))
    other = replace(base, **{field: {**OTHER_VALUES, "shape": (1, 8, 4)}[field]})
    pipeline._noised.cache_clear()
    states = [_link_noised(cfg) for cfg in (base, other)]
    for want, got in states:
        assert (got.z.tobytes(), got.u.tobytes()) == (want.z.tobytes(), want.u.tobytes())
    (base_state, _), (other_state, _) = states
    moved = (other_state.z.tobytes(), other_state.u.tobytes()) != (base_state.z.tobytes(), base_state.u.tobytes())
    assert moved == (field in pipeline._NOISING_FIELDS)
    assert pipeline._noised.cache_info().misses == 1 + moved


def test_the_noising_memo_returns_a_read_only_state():
    _, state = _link_noised(fast_cfg())
    for chain in (state.z, state.u):
        with pytest.raises(ValueError, match="read-only"):
            chain[0, 0, 0] = 0.0


@pytest.mark.parametrize("kind", ["zero", "linear", "tiny-mlp"])
@pytest.mark.parametrize("axis,values", [("eta", [0.01, 0.05, 0.5]), ("token", ["9000", "76576", "6718"])])
def test_links_of_one_sampler_hide_as_cold_caches_do(kind, axis, values):
    # the links of an eta or token grid noise each secret once, and each
    # stego is the one hide makes with every cache cold, and the one
    # coupled pass (noise, flip, denoise) makes, byte for byte
    cfgs = [fast_cfg(predictor_kind=kind, guidance_weight=0.4, **{axis: v}) for v in values]
    secrets = [make_secret(s, cfgs[0].shape) for s in (11, 12)]

    def clear():
        for cache in pipeline.BUILD_CACHES.values():
            cache.cache_clear()

    clear()
    warm = [hide(s, KeyedLink(cfg)).tobytes() for cfg in cfgs for s in secrets]
    assert pipeline._noised.cache_info().misses == len(secrets)
    cold, whole = [], []
    for cfg in cfgs:
        for s in secrets:
            clear()
            link = KeyedLink(cfg)
            cold.append(hide(s, link).tobytes())
            state = pipeline._coupled_pass(CoupledState(s.copy(), s.copy()), link.hide, link.params)
            whole.append(pipeline._pack_pair(state, link.gain).tobytes())
    assert warm == cold == whole
