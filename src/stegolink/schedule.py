"""Linear-beta diffusion noise schedule and per-step sampler coefficients.

alpha_bar[t] is the cumulative signal fraction after t noising steps, with
alpha_bar[0] = 1 at the clean end.  For step t in 1..T:

    a[t]     = sqrt(alpha_bar[t-1] / alpha_bar[t])
    b[t]     = sqrt(1 - alpha_bar[t-1]) - a[t] * sqrt(1 - alpha_bar[t])
    gamma[t] = 1 / a[t]
    omega[t] = b[t] / a[t]

so the denoise update  z <- a[t] z + b[t] eps  and the noising update
z <- gamma[t] z - omega[t] eps  are exact affine inverses of each other for
a fixed eps.  Each coefficient has T+1 entries, slot 0 holding the identity
step, so that index t addresses step t directly.

The schedule owns the step axis: ``_check_schedule`` alone decides what a
step count is (an integer, never a bool) and what a beta is (a number), and
build_schedule and PipelineConfig run it, so every other module takes a
schedule rather than a bare count.  build_schedule runs it before its cache,
so a value of another kind, hashable or not, is refused by name, and equal
arguments share one schedule object.  alpha_bar is a read-only array; a, b,
gamma and omega are tuples of read-only 0-d float64 arrays, one per step,
which is what the samplers multiply by (the edict module says why).
"""

from __future__ import annotations

import functools

from dataclasses import dataclass

import numpy as np

from .rng import _is_int, _is_number


@dataclass(frozen=True, repr=False)  # the tuples would print 4 (T + 1) arrays
class NoiseSchedule:
    T: int
    alpha_bar: np.ndarray            # alpha_bar[0] = 1
    a: tuple[np.ndarray, ...]        # a[t] for t in 0..T, each a read-only 0-d float64 array
    b: tuple[np.ndarray, ...]
    gamma: tuple[np.ndarray, ...]
    omega: tuple[np.ndarray, ...]


_BETA_START, _BETA_END = 1e-4, 2e-2


def _check_schedule(T, beta_start, beta_end) -> None:
    # build_schedule's rules; T is the config's steps, and a reversed pair names
    # beta_start where beta_end holds its default, else beta_end
    if not (_is_int(T) and T >= 1):
        raise ValueError("steps: must be a positive integer")
    for name, beta in (("beta_start", beta_start), ("beta_end", beta_end)):
        if not (_is_number(beta) and 0.0 < beta < 1.0):
            raise ValueError(f"{name}: must lie in (0, 1)")
    if beta_start > beta_end:
        raise ValueError("beta_start: must not exceed beta_end" if beta_end == _BETA_END
                         else "beta_end: must not be below beta_start")


def build_schedule(T: int, beta_start: float = _BETA_START, beta_end: float = _BETA_END) -> NoiseSchedule:
    """Build the schedule for T steps of linearly spaced beta values (see _check_schedule)."""
    _check_schedule(T, beta_start, beta_end)  # before the cache, which hashes its arguments
    return _schedule(T, beta_start, beta_end)


@functools.lru_cache(maxsize=8)  # a sweep uses one schedule per steps value
def _schedule(T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    betas = np.linspace(beta_start, beta_end, T, dtype=np.float64)  # [beta_start] when T is 1

    alpha_bar = np.ones(T + 1, dtype=np.float64)
    alpha_bar[1:] = np.cumprod(1.0 - betas)

    a = np.ones(T + 1, dtype=np.float64)
    b = np.zeros(T + 1, dtype=np.float64)
    a[1:] = np.sqrt(alpha_bar[:-1] / alpha_bar[1:])
    b[1:] = np.sqrt(1.0 - alpha_bar[:-1]) - a[1:] * np.sqrt(1.0 - alpha_bar[1:])
    gamma = 1.0 / a
    omega = b / a
    for arr in (alpha_bar, a, b, gamma, omega):
        arr.flags.writeable = False
    # views of read-only arrays are read-only too
    boxed = (tuple(arr[t, ...] for t in range(T + 1)) for arr in (a, b, gamma, omega))
    return NoiseSchedule(T, alpha_bar, *boxed)

