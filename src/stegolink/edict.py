"""Exactly invertible coupled-chain sampler (EDICT) and a DDIM baseline.

EDICT maintains two chains (z, u) that take turns denoising each other, with
an affine mixing layer that keeps them close.  Because every sub-step is an
invertible affine map given the other chain, the noising direction can undo
the denoising direction exactly, to floating-point precision, even though the
noise predictor itself is a black box.

The sampler traverses the window of the first hi = ceil(edit_strength * T)
steps from the clean end.  Reverse (denoise) step t, applied for t = hi .. 1:

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

Coefficients: every pass multiplies by 0-d float64 arrays, the schedule's
per-step a, b, gamma and omega and p and 1 - p boxed once per pass.  A ufunc
boxes a Python float or an np.float64 operand anew on each call; a 0-d array
skips that, saving about 0.15 us on each of the ~900 products of a small
trial, and is the same IEEE product, so the bits are the Python-float loop's.

A pass takes its bias alone: the RowBias names the predictor and schedule it
was built for, and the pass binds ``bias.predictor.predict`` and
``bias.sched`` once.  params gives the window and p; ddim_sample reads only
the window.  A state may stack rows along a leading axis, each with its own
conditions in the bias: every update is elementwise, so the rows evolve
independently through one predictor call per evaluation.

Divergence: each pass checks only its last state (z and u, or x for DDIM)
for finiteness.  That is enough, because a non-finite value never turns
finite again.  Within a step, each intermediate reaches an output through
x - y, gamma x, a x and p x with p > 0, none of which turns a non-finite
value finite.  Across steps, each chain's next value is a positive multiple
of its own value plus a term (p a z + ..., gamma (z_inter - ...), and so on),
so a non-finite element of z, u or x stays non-finite to the end of the pass.
A pass whose last state is finite therefore never diverged.  Only when it
is not does the pass replay its steps from the same start, checking each
step's outputs, and raise SamplerDivergenceError naming the sampler and the
first step that failed.  Both runs are the same step generator, so they
cannot disagree about what a step computes.  The predictor may meanwhile see
a non-finite input or overflow; one errstate around both runs silences both.

Stability note: the unmixing layer expands the difference between the chains
by 1/p^2 per forward step.  With p well below 1 and many steps the expansion
outruns double precision and exactness is unrecoverable; parameter defaults
(p = 0.93, 50 steps) keep the total expansion small.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from .predictor import RowBias


class SamplerDivergenceError(RuntimeError):
    """A sampler produced a non-finite intermediate state."""

    def __init__(self, op: str, step: int):
        super().__init__(f"{op} produced a non-finite state at step {step}")
        self.op = op
        self.step = step


@dataclass
class CoupledState:
    """The two coupled chains; shapes must match.

    Constructing one checks its chains, as a state from outside the sampler
    needs; ``of_pass`` wraps chains already known to be finite float64
    arrays of one shape, such as the state a pass ends on.
    """

    z: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.float64)
        self.u = np.asarray(self.u, dtype=np.float64)
        if self.z.shape != self.u.shape:
            raise ValueError("coupled chains must share one shape")
        if not _finite((self.z, self.u)):
            raise ValueError("coupled chains must be finite")

    @classmethod
    def of_pass(cls, z: np.ndarray, u: np.ndarray) -> "CoupledState":
        """Wrap checked chains without checking them again."""
        state = object.__new__(cls)
        state.z, state.u = z, u
        return state


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
            raise ValueError("mixing_p: must lie in (0, 1]")
        if not 0.0 < self.edit_strength <= 1.0:
            raise ValueError("edit_strength: must lie in (0, 1]")

    def window(self, T: int) -> int:
        """The number of steps traversed, counted from the clean end."""
        return math.ceil(self.edit_strength * T)


def _mixing(params: SamplerParams) -> tuple[np.ndarray, np.ndarray]:
    # p and 1 - p as 0-d float64 arrays, like the schedule's coefficients
    p = params.mixing_p
    return np.array(p, dtype=np.float64), np.array(1.0 - p, dtype=np.float64)


def _finite(arrays: tuple[np.ndarray, ...]) -> bool:
    return all(np.isfinite(arr).all() for arr in arrays)


def _run_pass(op: str, steps, *args) -> tuple[np.ndarray, ...]:
    """Run the pass steps(*args) and return its last state.

    steps yields (t, state) after each step.  Only the last state is checked;
    when it is non-finite, the pure steps run again from the start, checking
    each one, and SamplerDivergenceError names the first step that failed.
    A replay that stays finite (a predictor that is not a pure function of
    its inputs) names the last step, where the first run was non-finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for t, state in steps(*args):
            pass
        if _finite(state):
            return state
        for t, state in steps(*args):
            if not _finite(state):
                break
    raise SamplerDivergenceError(op, t)


def _forward_steps(z, u, bias, params):
    predict, sched = bias.predictor.predict, bias.sched
    hi = params.window(sched.T)
    p, q = _mixing(params)
    b, gamma = sched.b, sched.gamma
    for t in range(1, hi + 1):
        u_inter = (u - q * z) / p
        z_inter = (z - q * u_inter) / p
        u = gamma[t] * (u_inter - b[t] * predict(z_inter, t, bias))
        z = gamma[t] * (z_inter - b[t] * predict(u, t, bias))
        yield t, (z, u)


def _reverse_steps(z, u, bias, params):
    predict, sched = bias.predictor.predict, bias.sched
    hi = params.window(sched.T)
    p, q = _mixing(params)
    a, b = sched.a, sched.b
    for t in range(hi, 0, -1):
        z_inter = a[t] * z + b[t] * predict(u, t, bias)
        u_inter = a[t] * u + b[t] * predict(z_inter, t, bias)
        z = p * z_inter + q * u_inter
        u = p * u_inter + q * z
        yield t, (z, u)


def _ddim_steps(x, bias, direction, params):
    predict, sched = bias.predictor.predict, bias.sched
    hi = params.window(sched.T)
    if direction == "denoising":
        a, b = sched.a, sched.b
        for t in range(hi, 0, -1):
            x = a[t] * x + b[t] * predict(x, t, bias)
            yield t, (x,)
    else:
        gamma, omega = sched.gamma, sched.omega
        for t in range(1, hi + 1):
            x = gamma[t] * x - omega[t] * predict(x, t, bias)
            yield t, (x,)


def edict_forward(state: CoupledState, bias: RowBias, params: SamplerParams) -> CoupledState:
    """Noise a coupled state across the window; exact inverse of edict_reverse."""
    z, u = _run_pass("edict_forward", _forward_steps, state.z, state.u, bias, params)
    return CoupledState.of_pass(z, u)


def edict_reverse(state: CoupledState, bias: RowBias, params: SamplerParams) -> CoupledState:
    """Denoise a coupled state across the window; exact inverse of edict_forward."""
    z, u = _run_pass("edict_reverse", _reverse_steps, state.z, state.u, bias, params)
    return CoupledState.of_pass(z, u)


def ddim_sample(z: np.ndarray, bias: RowBias, direction: str, params: SamplerParams) -> np.ndarray:
    """Single-chain DDIM pass across the window.

    "denoising" applies z <- a[t] z + b[t] eps(z, t).  "noising" applies the
    standard approximate inversion z <- gamma[t] z - omega[t] eps(z, t),
    which reuses eps at the state available before the step.
    """
    if direction not in ("noising", "denoising"):
        raise ValueError("direction must be 'noising' or 'denoising'")
    x = np.asarray(z, dtype=np.float64)
    (x,) = _run_pass("ddim_sample", _ddim_steps, x, bias, direction, params)
    return x
