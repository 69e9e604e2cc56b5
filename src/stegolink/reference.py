"""Token-seeded reference generation and its condition embedding.

Both ends hold the same generator, so the token alone reproduces the exact
reference latent that conditioned the transmitter: a keyed noise draw is
denoised over the full schedule with key and feature conditioning but a
zeroed reference slot.  The reference then enters the condition set as a
fixed seeded projection of its per-channel statistics, a stand-in for an
image-feature adapter.
"""

from __future__ import annotations

import functools

import numpy as np

from .edict import SamplerParams, ddim_sample
from .predictor import ConditionSet, Predictor, _check_args, _unit
from .rng import gaussian_stream, hash_token
from .schedule import NoiseSchedule


def generate_reference(token: bytes | str, conditions: ConditionSet, sched: NoiseSchedule,
                       pred: Predictor, shape: tuple[int, ...]) -> np.ndarray:
    """Denoise a keyed draw over the full schedule into a reference latent grid.

    With the reference slot zeroed, the key-only and full predictions are the
    same, so no guidance weight applies and one prediction per step suffices.
    """
    size = int(np.prod(shape))
    start = gaussian_stream(hash_token(token, "ref"), size).reshape(shape)
    params = SamplerParams(mixing_p=1.0, edit_strength=1.0)
    return ddim_sample(start, pred.bias(size, sched, [conditions.without_reference()]), "denoising", params)


_POOL_SEGMENTS = 16


def _pooled_stats(channel: np.ndarray) -> np.ndarray:
    # mean and variance pooled over the row-major segments of
    # np.array_split(channel, k): r segments of length m + 1, then k - r of
    # length m, each family taken as one reshape.  Each family is centered
    # so the component shared by every reference (moments of the common
    # sampling distribution) drops out and only the grid's own layout
    # survives into the embedding.  The sums, divisions and squares are
    # those of ndarray.mean and ndarray.var, in their order, written into
    # one output
    k = min(_POOL_SEGMENTS, channel.size)
    m, r = divmod(channel.size, k)
    cut = r * (m + 1)
    stats = np.empty(2 * k)
    means, variances = stats[:k], stats[k:]
    for rows, segments in ((slice(0, r), channel[:cut].reshape(r, m + 1)),
                           (slice(r, k), channel[cut:].reshape(k - r, m))):
        mean = np.add.reduce(segments, axis=1, out=means[rows])
        mean /= segments.shape[1]
        dev = segments - mean[:, None]
        np.square(dev, out=dev)
        var = np.add.reduce(dev, axis=1, out=variances[rows])
        var /= segments.shape[1]
    means -= np.add.reduce(means) / k
    variances -= np.add.reduce(variances) / k
    return stats


@functools.lru_cache(maxsize=4)  # one entry per (embed_dim, shape) in use; a sweep has one
def _projection(d: int, size: int) -> np.ndarray:
    # the fixed seeded Gaussian map from size pooled statistics to R^d,
    # drawn once per shape; read-only, since every caller shares it
    proj = gaussian_stream(hash_token(b"reference-embedding", "proj"), d * size)
    proj = proj.reshape(d, size) / np.sqrt(size)
    proj.flags.writeable = False
    return proj


def embed_reference(grid: np.ndarray, d: int = 64) -> np.ndarray:
    """Project pooled per-channel statistics to a unit vector in R^d.

    The projection (centering plus a fixed seeded Gaussian map) is one
    linear map shared by all parties, so both ends embed a regenerated
    reference identically.
    """
    _check_args(embed_dim=d)
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim < 1:
        raise ValueError("reference grid must have at least one axis")
    channels = grid.reshape(grid.shape[0], -1) if grid.ndim > 1 else grid.reshape(1, -1)
    stats = np.concatenate([_pooled_stats(c) for c in channels])
    return _unit(_projection(d, stats.size) @ stats)
