"""Linear-beta diffusion noise schedule and per-step sampler coefficients.

alpha_bar[t] is the cumulative signal fraction after t noising steps, with
alpha_bar[0] = 1 at the clean end.  For step t in 1..T:

    a[t]     = sqrt(alpha_bar[t-1] / alpha_bar[t])
    b[t]     = sqrt(1 - alpha_bar[t-1]) - a[t] * sqrt(1 - alpha_bar[t])
    gamma[t] = 1 / a[t]
    omega[t] = b[t] / a[t]

so the denoise update  z <- a[t] z + b[t] eps  and the noising update
z <- gamma[t] z - omega[t] eps  are exact affine inverses of each other for
a fixed eps.  Coefficient arrays are length T+1 with slot 0 holding the
identity step so that index t addresses step t directly.

build_schedule caches its schedules, so equal arguments share one object;
its arrays are read-only.
"""

from __future__ import annotations

import functools

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoiseSchedule:
    T: int
    beta: np.ndarray        # beta[0] = 0, beta[t] for t in 1..T
    alpha_bar: np.ndarray   # alpha_bar[0] = 1
    a: np.ndarray
    b: np.ndarray
    gamma: np.ndarray
    omega: np.ndarray


# typed, so that 50.0 is not served the schedule of 50; a sweep uses one
# schedule per steps value
@functools.lru_cache(maxsize=8, typed=True)
def build_schedule(T: int, beta_start: float = 1e-4, beta_end: float = 2e-2) -> NoiseSchedule:
    """Build the schedule for T steps of linearly spaced beta values."""
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ValueError("T must be a positive integer")
    if not (0.0 < beta_start < 1.0) or not (0.0 < beta_end < 1.0):
        raise ValueError("beta_start and beta_end must lie in (0, 1)")
    if beta_start > beta_end:
        raise ValueError("beta_start must not exceed beta_end")
    if T == 1:
        betas = np.array([beta_start], dtype=np.float64)
    else:
        betas = np.linspace(beta_start, beta_end, T, dtype=np.float64)

    beta = np.zeros(T + 1, dtype=np.float64)
    beta[1:] = betas
    alpha_bar = np.ones(T + 1, dtype=np.float64)
    alpha_bar[1:] = np.cumprod(1.0 - betas)

    a = np.ones(T + 1, dtype=np.float64)
    b = np.zeros(T + 1, dtype=np.float64)
    a[1:] = np.sqrt(alpha_bar[:-1] / alpha_bar[1:])
    b[1:] = np.sqrt(1.0 - alpha_bar[:-1]) - a[1:] * np.sqrt(1.0 - alpha_bar[1:])
    gamma = 1.0 / a
    omega = b / a
    for arr in (beta, alpha_bar, a, b, gamma, omega):
        arr.flags.writeable = False
    return NoiseSchedule(T=int(T), beta=beta, alpha_bar=alpha_bar, a=a, b=b, gamma=gamma, omega=omega)

