"""Exactly invertible coupled-chain sampler (EDICT) and a DDIM baseline.

EDICT maintains two chains (z, u) that take turns denoising each other, with
an affine mixing layer that keeps them close.  Because every sub-step is an
invertible affine map given the other chain, the noising direction can undo
the denoising direction exactly, to floating-point precision, even though the
noise predictor itself is a black box.

The sampler traverses the window of the first hi = ceil(edit_strength * T)
steps from the clean end.  Reverse (denoise) step t, applied for
t = hi .. 1:

    z_inter = a[t] z + b[t] eps(u, t, c)
    u_inter = a[t] u + b[t] eps(z_inter, t, c)
    z'      = p z_inter + (1 - p) u_inter
    u'      = p u_inter + (1 - p) z'

Forward (noise) step t, applied for t = 1 .. hi, is the exact
inverse: unmix, then undo the two affine denoise sub-steps in reverse order.
The same eps evaluations appear at the same states in both directions, which
is what makes the round trip exact.  Each undo subtracts the very product
b[t] eps the denoise step added before rescaling by gamma[t], rather than
folding b[t] into a separately rounded omega[t]; the undo then repeats the
denoise step's rounding and the round trip drifts less.

The plain DDIM baseline reuses eps at the state it has when noising, which
is only approximate; its round-trip error is the gap EDICT closes.

A state may stack several rows along a leading axis, each with its own
conditions in the predictor's RowBias: every update is elementwise, so the
rows evolve independently through one predictor call per evaluation.

Divergence: each step checks only its outputs (z and u, or x for DDIM) for
finiteness and raises SamplerDivergenceError with the sampler's name and
the step.  That is enough to catch every non-finite intermediate at its own
step: each intermediate reaches an output within the step through x - y,
gamma x, a x and p x with p > 0, none of which turns a non-finite value
finite.  The predictor may meanwhile see a non-finite input; one errstate
around the whole pass keeps that, and any overflow, free of warnings.

Stability note: the unmixing layer expands the difference between the chains
by 1/p^2 per forward step.  With p well below 1 and many steps the expansion
outruns double precision and exactness is unrecoverable; parameter defaults
(p = 0.93, 50 steps) keep the total expansion small.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from .predictor import Predictor, RowBias
from .schedule import NoiseSchedule


class SamplerDivergenceError(RuntimeError):
    """A sampler produced a non-finite intermediate state."""

    def __init__(self, op: str, step: int):
        super().__init__(f"{op} produced a non-finite state at step {step}")
        self.op = op
        self.step = step


@dataclass
class CoupledState:
    """The two coupled chains; shapes must match."""

    z: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.float64)
        self.u = np.asarray(self.u, dtype=np.float64)
        if self.z.shape != self.u.shape:
            raise ValueError("coupled chains must share one shape")
        if not (np.isfinite(self.z).all() and np.isfinite(self.u).all()):
            raise ValueError("coupled chains must be finite")


@dataclass(frozen=True)
class SamplerParams:
    """Mixing coefficient and the share of the schedule to traverse.

    The window covers the first ceil(edit_strength * T) steps from the
    clean end; edit_strength 1 is the full schedule.
    """

    mixing_p: float = 0.93
    edit_strength: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.mixing_p <= 1.0:
            raise ValueError("mixing_p must lie in (0, 1]")
        if not 0.0 < self.edit_strength <= 1.0:
            raise ValueError("edit_strength must lie in (0, 1]")

    def window(self, T: int) -> int:
        """The number of steps traversed, counted from the clean end."""
        return math.ceil(self.edit_strength * T)


def _check_finite(op: str, t: int, *arrays: np.ndarray) -> None:
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise SamplerDivergenceError(op, t)


def edict_forward(state: CoupledState, sched: NoiseSchedule, pred: Predictor,
                  bias: RowBias, params: SamplerParams) -> CoupledState:
    """Noise a coupled state across the window; exact inverse of edict_reverse."""
    hi = params.window(sched.T)
    p = params.mixing_p
    q = 1.0 - p
    b, gamma = sched.b.tolist(), sched.gamma.tolist()
    z, u = state.z.copy(), state.u.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, hi + 1):
            u_inter = (u - q * z) / p
            z_inter = (z - q * u_inter) / p
            u = gamma[t] * (u_inter - b[t] * pred.predict(z_inter, t, bias))
            z = gamma[t] * (z_inter - b[t] * pred.predict(u, t, bias))
            _check_finite("edict_forward", t, z, u)
    return CoupledState(z, u)


def edict_reverse(state: CoupledState, sched: NoiseSchedule, pred: Predictor,
                  bias: RowBias, params: SamplerParams) -> CoupledState:
    """Denoise a coupled state across the window; exact inverse of edict_forward."""
    hi = params.window(sched.T)
    p = params.mixing_p
    q = 1.0 - p
    a, b = sched.a.tolist(), sched.b.tolist()
    z, u = state.z.copy(), state.u.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(hi, 0, -1):
            z_inter = a[t] * z + b[t] * pred.predict(u, t, bias)
            u_inter = a[t] * u + b[t] * pred.predict(z_inter, t, bias)
            z = p * z_inter + q * u_inter
            u = p * u_inter + q * z
            _check_finite("edict_reverse", t, z, u)
    return CoupledState(z, u)


def ddim_sample(z: np.ndarray, sched: NoiseSchedule, pred: Predictor,
                bias: RowBias, direction: str, params: SamplerParams) -> np.ndarray:
    """Single-chain DDIM pass across the window.

    "denoising" applies z <- a[t] z + b[t] eps(z, t).  "noising" applies the
    standard approximate inversion z <- gamma[t] z - omega[t] eps(z, t),
    which reuses eps at the state available before the step.
    """
    if direction not in ("noising", "denoising"):
        raise ValueError("direction must be 'noising' or 'denoising'")
    hi = params.window(sched.T)
    x = np.asarray(z, dtype=np.float64).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        if direction == "denoising":
            a, b = sched.a.tolist(), sched.b.tolist()
            for t in range(hi, 0, -1):
                x = a[t] * x + b[t] * pred.predict(x, t, bias)
                _check_finite("ddim_sample", t, x)
        else:
            gamma, omega = sched.gamma.tolist(), sched.omega.tolist()
            for t in range(1, hi + 1):
                x = gamma[t] * x - omega[t] * pred.predict(x, t, bias)
                _check_finite("ddim_sample", t, x)
    return x
