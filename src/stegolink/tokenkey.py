"""Token-keyed latent operations: initial noise, binary mask, sign flips.

The token is the shared secret.  Domain-separated hashes of it seed the
initial latent ("init") and the perturbation mask ("mask"), so transmitter
and receiver rebuild identical values independently.  The perturbation
negates the latent wherever the mask is set; applying the same mask again
restores the input bit for bit, since IEEE negation is exact.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from .rng import _is_int, gaussian_stream, hash_token, uniform_stream


def _grid_size(shape: tuple[int, ...]) -> int:
    if len(shape) == 0 or not all(_is_int(s) and s >= 1 for s in shape):
        raise ValueError("shape: must be one or more positive integers")
    return math.prod(shape)


def init_latent(token: bytes | str, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normal latent seeded by hash_token(token, "init"), row-major."""
    size = _grid_size(shape)
    return gaussian_stream(hash_token(token, "init"), size).reshape(shape)


@dataclass(frozen=True)
class PerturbationMask:
    """Binary sign-flip mask."""

    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", np.asarray(self.bits, dtype=np.uint8))
        if (self.bits > 1).any():
            raise ValueError("mask bits must be 0 or 1")


def _check_eta(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta: must lie in [0, 1]")


def build_mask(token: bytes | str, shape: tuple[int, ...], eta: float) -> PerturbationMask:
    """Bernoulli(eta) mask: bit i set iff the i-th keyed uniform draw < eta.

    eta 0 and 1 are exact (uniform draws live in [0, 1)).
    """
    _check_eta(eta)
    size = _grid_size(shape)
    u = uniform_stream(hash_token(token, "mask"), size)
    bits = (u < eta).astype(np.uint8).reshape(shape)
    return PerturbationMask(bits=bits)


def perturb(z: np.ndarray, mask: PerturbationMask) -> np.ndarray:
    """Negate z where the mask is set: z*(1-m) - z*m, an involution."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != mask.bits.shape:
        raise ValueError("latent and mask shapes differ")
    return np.where(mask.bits == 1, -z, z)


def restore(z_perturbed: np.ndarray, mask: PerturbationMask) -> np.ndarray:
    """Undo perturb with the same mask; identical formula, bit-exact."""
    return perturb(z_perturbed, mask)
