"""Noise predictors and conditioned guidance.

Real diffusion hiding uses a large pretrained denoiser; this module swaps in
small deterministic stand-ins with the same call shape so the samplers can be
exercised end to end at desk scale.  A predictor maps (latent, step, optional
conditions) to a latent-shaped noise estimate and is a pure function of its
inputs and its weight seed.

Guidance follows the usual two-prediction mixture: the conditional estimate
is pulled toward the reference-conditioned prediction by weight lam,

    eps = (1 - lam) * eps(key only) + lam * eps(key, feature, reference)

which is affine in lam and hits each endpoint exactly.
"""

from __future__ import annotations

import functools

from dataclasses import dataclass, replace

import numpy as np

from .rng import Seed64, derive, gaussian_stream, hash_token

PREDICTOR_KINDS = ("zero", "linear", "tiny-mlp")

_TIME_DIM = 16          # sinusoidal step-embedding width
_BIAS_SCALE = 0.1       # condition bias scale for the linear predictor
_NORM_TOL = 1e-9


def _check_embedding(name: str, v: np.ndarray, d: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (d,):
        raise ValueError(f"{name} must have shape ({d},)")
    n = float(np.linalg.norm(v))
    if n != 0.0 and abs(n - 1.0) > _NORM_TOL:
        raise ValueError(f"{name} must have unit norm or be all zero, got norm {n}")
    return v


@dataclass(frozen=True)
class ConditionSet:
    """Conditioning bundle: public key, implicit feature, reference, weight."""

    key_embedding: np.ndarray
    feature_embedding: np.ndarray
    ref_embedding: np.ndarray
    guidance_weight: float = 1.0

    def __post_init__(self):
        d = int(np.asarray(self.key_embedding).shape[0])
        object.__setattr__(self, "key_embedding", _check_embedding("key_embedding", self.key_embedding, d))
        object.__setattr__(self, "feature_embedding", _check_embedding("feature_embedding", self.feature_embedding, d))
        object.__setattr__(self, "ref_embedding", _check_embedding("ref_embedding", self.ref_embedding, d))
        if not 0.0 <= self.guidance_weight <= 1.0:
            raise ValueError("guidance_weight must lie in [0, 1]")

    @property
    def dim(self) -> int:
        return self.key_embedding.shape[0]

    def without_reference(self) -> "ConditionSet":
        """Key-only variant: reference embedding zeroed, same weight."""
        return replace(self, ref_embedding=np.zeros(self.dim))

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.key_embedding, self.feature_embedding, self.ref_embedding])


def embed_text(text: str, d: int = 64) -> np.ndarray:
    """Deterministic unit-norm stand-in for a text encoder."""
    if d < 1:
        raise ValueError("embedding dimension must be positive")
    v = gaussian_stream(hash_token(text, "embed"), d)
    n = float(np.linalg.norm(v))
    if n == 0.0:  # measure-zero guard
        v = np.zeros(d)
        v[0] = 1.0
        return v
    return v / n


@functools.lru_cache(maxsize=4096)
def _time_embedding(t: int) -> np.ndarray:
    # transformer-style sinusoidal embedding of the step index; every call
    # for a step shares one read-only array
    j = np.arange(_TIME_DIM // 2, dtype=np.float64)
    freq = 10000.0 ** (-2.0 * j / _TIME_DIM)
    emb = np.empty(_TIME_DIM, dtype=np.float64)
    emb[0::2] = np.sin(t * freq)
    emb[1::2] = np.cos(t * freq)
    emb.flags.writeable = False
    return emb


class Predictor:
    """Deterministic noise predictor; weights derive from weight_seed.

    kind "zero" returns zeros, "linear" applies a fixed orthogonal mixing of
    the latent plus a rank-1 condition bias scaled by 0.1, and "tiny-mlp" is
    a one-hidden-layer tanh network of width 4*embed_dim whose fan-in scaled
    weights keep outputs bounded.  Weights are built once per latent size and
    cached; predictions are pure functions of (latent, t, conditions).
    """

    def __init__(self, kind: str, weight_seed: Seed64 | int = 7, embed_dim: int = 64):
        if kind not in PREDICTOR_KINDS:
            raise ValueError(f"unknown predictor kind {kind!r}; expected one of {PREDICTOR_KINDS}")
        if embed_dim < 1:
            raise ValueError("embed_dim must be positive")
        self.kind = kind
        self.weight_seed = weight_seed if isinstance(weight_seed, Seed64) else Seed64(int(weight_seed))
        self.embed_dim = int(embed_dim)
        self._weights: dict[int, tuple] = {}

    # -- weight construction ------------------------------------------------

    def _linear_weights(self, n: int) -> tuple:
        seed = derive(self.weight_seed, f"linear:{n}")
        raw = gaussian_stream(seed, n * n + 3 * self.embed_dim + n)
        g = raw[:n * n].reshape(n, n)
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diag(r))  # fix the QR sign convention
        w = raw[n * n:n * n + 3 * self.embed_dim]
        direction = raw[n * n + 3 * self.embed_dim:]
        direction = direction / np.linalg.norm(direction)
        return q, w, direction

    def _mlp_weights(self, n: int) -> tuple:
        hidden = 4 * self.embed_dim
        m = n + _TIME_DIM + 3 * self.embed_dim
        seed = derive(self.weight_seed, f"tiny-mlp:{n}")
        raw = gaussian_stream(seed, hidden * m + n * hidden)
        w1 = raw[:hidden * m].reshape(hidden, m) / np.sqrt(m)
        w2 = raw[hidden * m:].reshape(n, hidden) / np.sqrt(hidden)
        return w1, w2

    def weights_for(self, n: int) -> tuple:
        if n not in self._weights:
            if self.kind == "linear":
                self._weights[n] = self._linear_weights(n)
            elif self.kind == "tiny-mlp":
                self._weights[n] = self._mlp_weights(n)
            else:
                self._weights[n] = ()
        return self._weights[n]

    # -- prediction ----------------------------------------------------------

    def predict(self, z: np.ndarray, t: int, conditions: ConditionSet | None = None) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        if not np.isfinite(z).all():
            raise ValueError("latent contains non-finite values")
        if t < 1:
            raise ValueError("step index must be >= 1")
        if conditions is not None and conditions.dim != self.embed_dim:
            raise ValueError("conditions dimension does not match predictor embed_dim")

        if self.kind == "zero":
            return np.zeros_like(z)

        flat = z.ravel()
        n = flat.size
        cvec = conditions.stacked() if conditions is not None else np.zeros(3 * self.embed_dim)

        if self.kind == "linear":
            q, w, direction = self.weights_for(n)
            out = q @ flat + _BIAS_SCALE * float(w @ cvec) * direction
            return out.reshape(z.shape)

        w1, w2 = self.weights_for(n)
        x = np.concatenate([flat, _time_embedding(t), cvec])
        out = w2 @ np.tanh(w1 @ x)
        return out.reshape(z.shape)


def guided_predict(predictor: Predictor, z: np.ndarray, t: int, conditions: ConditionSet) -> np.ndarray:
    """Mixture of key-only and fully conditioned predictions.

    The endpoints skip the unused branch; with IEEE arithmetic the mixture at
    lam 0 or 1 equals that branch bitwise anyway.
    """
    lam = conditions.guidance_weight
    if lam == 0.0:
        return predictor.predict(z, t, conditions.without_reference())
    if lam == 1.0:
        return predictor.predict(z, t, conditions)
    key_only = predictor.predict(z, t, conditions.without_reference())
    full = predictor.predict(z, t, conditions)
    return (1.0 - lam) * key_only + lam * full
