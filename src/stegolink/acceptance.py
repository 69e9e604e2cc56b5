"""Acceptance battery for the full simulator.

Eleven structural, statistical, and trend checks.  Each criterion is a
function that runs its check and returns a Check with its measured values;
``CRITERIA`` lists them in criterion order.  The Tier-1 tests and
``stegolink selftest`` run this same battery.
"""

from __future__ import annotations

import functools
import time

from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig, encode, transmit
from .edict import CoupledState, SamplerParams, ddim_sample, edict_forward, edict_reverse
from .harness import EXPORT_KINDS, SweepSpec, aggregates_csv, export_plot_data, records_to_jsonl, run_sweep
from .metrics import mse, psnr, ssim
from .pipeline import RECEIVERS, KeyedLink, PipelineConfig, hide, make_secret, reveal, run_trial
from .predictor import Predictor
from .rng import derive, gaussian_stream, hash_token
from .schedule import build_schedule
from .tokenkey import build_mask, init_latent, perturb


@dataclass(frozen=True)
class Check:
    ok: bool
    label: str
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.ok else 'FAIL'}] {self.label}: {self.detail}"


# -- shared work ----------------------------------------------------------------

SHAPES = ((1, 8, 8), (2, 8, 8), (3, 8, 8), (4, 8, 8))


@functools.cache
def _inversion_runs() -> dict:
    """100 forward/reverse round trips (criterion 1) plus DDIM baselines (criterion 3)."""
    sched = build_schedule(50)
    pred = Predictor("tiny-mlp")
    params = SamplerParams(mixing_p=0.93, edit_strength=1.0)
    states = []
    for i in range(100):
        shape = SHAPES[i % len(SHAPES)]
        seed = hash_token(f"acceptance-inversion|{i}", "trial")
        n = int(np.prod(shape))
        z = gaussian_stream(derive(seed, "z"), n).reshape(shape)
        u = gaussian_stream(derive(seed, "u"), n).reshape(shape)
        states.append((z, u, pred.bias(n, sched, [None])))

    start = time.perf_counter()
    edict_errs = []
    for z, u, plain in states:
        noised = edict_forward(CoupledState(z, u), plain, params)
        back = edict_reverse(noised, plain, params)
        edict_errs.append(max(np.max(np.abs(back.z - z)), np.max(np.abs(back.u - u))))
    elapsed = time.perf_counter() - start

    ddim_errs = []
    for z, _, plain in states:
        noised = ddim_sample(z, plain, "noising", params)
        back = ddim_sample(noised, plain, "denoising", params)
        ddim_errs.append(float(np.max(np.abs(back - z))))
    return {"edict": np.array(edict_errs), "ddim": np.array(ddim_errs), "elapsed": elapsed}


@functools.cache
def _trial_group(eta: float, snr_db: float) -> tuple:
    """20 independently seeded full trials at one (eta, snr) cell."""
    records = []
    for i in range(20):
        seed = hash_token(f"acc|{eta}|{snr_db}|{i}", "trial")
        cfg = PipelineConfig(eta=eta, snr_db=float(snr_db), steps=50, shape=(1, 8, 8),
                             secret_seed=derive(seed, "secret").value,
                             noise_seed=derive(seed, "noise").value)
        records.append(run_trial(make_secret(cfg.secret_seed, cfg.shape), cfg))
    return tuple(records)


def _mean_psnr(records, receiver: str) -> float:
    return float(np.mean([r.reports[receiver].psnr_db for r in records]))


# -- criteria -------------------------------------------------------------------

def exact_inversion() -> Check:
    runs = _inversion_runs()
    worst = float(runs["edict"].max())
    elapsed = runs["elapsed"]
    return Check(worst < 1e-8 and elapsed < 30.0,
                 "criterion 1 exact inversion",
                 f"max round-trip err {worst:.3e} over 100 coupled states "
                 f"(limit 1e-08), {elapsed:.1f}s (limit 30s)")


def keyed_recovery_noiseless() -> Check:
    start = time.perf_counter()
    worst = 0.0
    for i in range(50):
        seed = hash_token(f"acceptance-e2e|{i}", "trial")
        cfg = PipelineConfig(token=f"token-{seed.value % 10 ** 6:06d}",
                             eta=0.05, guidance_weight=1.0, edit_strength=0.5,
                             steps=50, noiseless=True,
                             secret_seed=derive(seed, "secret").value)
        secret = make_secret(cfg.secret_seed, cfg.shape)
        link = KeyedLink(cfg)
        recovered = reveal(hide(secret, link), link)
        worst = max(worst, float(np.max(np.abs(recovered - secret))))
    elapsed = time.perf_counter() - start
    return Check(worst < 1e-6 and elapsed < 60.0,
                 "criterion 2 keyed recovery",
                 f"max |reveal(hide(x)) - x| {worst:.3e} over 50 trials "
                 f"(limit 1e-06), {elapsed:.1f}s (limit 60s)")


def inversion_error_gap() -> Check:
    runs = _inversion_runs()
    edict_mean = float(runs["edict"].mean())
    ddim_mean = float(runs["ddim"].mean())
    ratio = ddim_mean / edict_mean
    return Check(ratio >= 1e3,
                 "criterion 3 inversion-error gap",
                 f"mean DDIM err {ddim_mean:.3e} / mean coupled err {edict_mean:.3e} "
                 f"= {ratio:.2e} (needs >= 1e3)")


def perturbation_involution() -> Check:
    etas = (0.01, 0.05, 0.1, 0.5, 1.0)
    checked = 0
    for eta in etas:
        for i in range(200):
            mask = build_mask(f"mask-{eta}-{i}", (2, 8, 8), eta)
            z = gaussian_stream(hash_token(f"grid|{eta}|{i}", "trial"), 128).reshape(2, 8, 8)
            if not np.array_equal(perturb(perturb(z, mask), mask), z):
                return Check(False, "criterion 4 perturbation involution",
                             f"double flip not bit-exact at eta={eta}, pair {i}")
            checked += 1
    return Check(checked == 1000, "criterion 4 perturbation involution",
                 f"double flip bit-exact on {checked}/1000 pairs, eta in {etas}")


def token_security_gap() -> Check:
    start = time.perf_counter()
    gaps = {}
    for eta in (0.01, 0.05, 0.5):
        records = _trial_group(eta, 10.0)
        gaps[eta] = _mean_psnr(records, "legit") - _mean_psnr(records, "eaves2")
    elapsed = time.perf_counter() - start
    ok = gaps[0.05] > 3.0 and gaps[0.5] > gaps[0.01] and elapsed < 300.0
    return Check(ok, "criterion 5 token security gap",
                 f"20-seed mean PSNR gap legit-E2 at 10dB: eta 0.01 -> {gaps[0.01]:.2f} dB, "
                 f"0.05 -> {gaps[0.05]:.2f} dB (needs > 3), 0.5 -> {gaps[0.5]:.2f} dB "
                 f"(needs > eta 0.01), {elapsed:.1f}s (limit 300s)")


def eavesdropper_ordering() -> Check:
    records = _trial_group(0.05, 10.0)
    mean = {receiver.name: _mean_psnr(records, receiver.key) for receiver in RECEIVERS}
    return Check(mean["legit"] > mean["E3"] > mean["E2"], "criterion 6 eavesdropper ordering",
                 f"20-seed mean PSNR legit {mean['legit']:.2f} > E3 {mean['E3']:.2f} > E2 {mean['E2']:.2f} dB "
                 f"(E1 {mean['E1']:.2f} dB)")


def snr_trend() -> Check:
    means = [_mean_psnr(_trial_group(0.05, snr), "legit") for snr in (5.0, 10.0, 15.0, 20.0)]
    ok = all(lo <= hi for lo, hi in zip(means, means[1:]))
    return Check(ok, "criterion 7 link-quality trend",
                 "20-seed mean legit PSNR across 5/10/15/20 dB: "
                 + " -> ".join(f"{m:.2f}" for m in means))


def channel_calibration() -> Check:
    worst = 0.0
    readings = []
    for snr in (5.0, 10.0, 15.0, 20.0):
        seed = hash_token(f"acceptance-cal|{snr}", "trial")
        raw = gaussian_stream(derive(seed, "payload"), 1_000_000)
        frame = encode(raw)
        cfg = ChannelConfig(snr_db=snr, noise_seed=derive(seed, "noise").value)
        received = transmit(frame, cfg)
        clean = cfg.h * frame.symbols
        noise = received.symbols - clean
        empirical = 10.0 * np.log10(np.mean(clean ** 2) / np.mean(noise ** 2))
        readings.append(f"{snr:.0f}dB -> {empirical:.3f}")
        worst = max(worst, abs(empirical - snr))
    return Check(worst <= 0.1, "criterion 8 channel calibration",
                 f"empirical SNR over 1e6 symbols: {', '.join(readings)} "
                 f"(worst |err| {worst:.4f} dB, limit 0.1)")


def sweep_determinism() -> Check:
    spec = SweepSpec(base=PipelineConfig(steps=25, shape=(1, 8, 8)),
                     axes={"snr_db": [5.0, 10.0], "eta": [0.01, 0.05]},
                     trials_per_point=2, base_seed="acceptance-determinism")

    def tables(records: list[dict]) -> list[str]:
        return [records_to_jsonl(records), aggregates_csv(records),
                *(export_plot_data(records, kind) for kind in EXPORT_KINDS)]

    first, second = (tables(run_sweep(spec)) for _ in range(2))
    same = [a.encode() == b.encode() for a, b in zip(first, second)]
    return Check(all(same), "criterion 9 sweep determinism",
                 f"two executions of a 16-trial sweep: {sum(same)}/{len(same)} exported tables byte-identical")


def statistical_preservation() -> Check:
    shape = (1, 1000, 1000)
    n = 1_000_000
    token = "statistical-check"
    mask = build_mask(token, shape, 0.05)
    flipped = perturb(init_latent(token, shape), mask)
    mean = float(flipped.mean())
    var = float(flipped.var())
    flips = int(mask.bits.sum())
    sigma = np.sqrt(n * 0.05 * 0.95)
    density_dev = abs(flips - 0.05 * n) / sigma
    ok = abs(mean) < 0.005 and abs(var - 1.0) < 0.01 and density_dev <= 3.0
    return Check(ok, "criterion 10 statistical preservation",
                 f"perturbed keyed latent over 1e6 entries: |mean| {abs(mean):.2e} (limit 5e-3), "
                 f"|var-1| {abs(var - 1.0):.2e} (limit 1e-2), mask density dev {density_dev:.2f} sigma (limit 3)")


def metric_sanity() -> Check:
    worst_identity = 0.0
    for i in range(20):
        seed = hash_token(f"acceptance-metric|{i}", "trial")
        a = gaussian_stream(derive(seed, "a"), 256).reshape(16, 16)
        b = gaussian_stream(derive(seed, "b"), 256).reshape(16, 16)
        worst_identity = max(worst_identity,
                             abs(psnr(a, b, 1.0) - 10.0 * np.log10(1.0 / mse(a, b))))
    self_ssim_exact = all(
        ssim(g, g, 1.0) == 1.0
        for g in (gaussian_stream(hash_token(f"acceptance-ssim|{i}", "trial"), 256).reshape(16, 16)
                  for i in range(5)))
    zeros = np.zeros((10, 10))
    spike = zeros.copy()
    spike[0, 0] = 1.0  # mse exactly 0.01 at peak 1 must score exactly 20 dB
    twenty = psnr(zeros, spike, 1.0)
    ok = worst_identity < 1e-10 and self_ssim_exact and twenty == 20.0
    return Check(ok, "criterion 11 metric sanity",
                 f"psnr/mse identity err {worst_identity:.2e} (limit 1e-10), "
                 f"ssim(a,a)=1 exact: {self_ssim_exact}, psnr(peak=1, mse=0.01) = {twenty!r}")


CRITERIA = (exact_inversion, keyed_recovery_noiseless, inversion_error_gap, perturbation_involution,
            token_security_gap, eavesdropper_ordering, snr_trend, channel_calibration,
            sweep_determinism, statistical_preservation, metric_sanity)
