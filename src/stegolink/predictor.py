"""Noise predictors and conditioned guidance.

Real diffusion hiding uses a large pretrained denoiser; this module swaps in
small deterministic stand-ins with the same call shape so the samplers can be
exercised end to end at desk scale.  A predictor maps (latent, step, optional
conditions) to a latent-shaped noise estimate and is a pure function of its
inputs and its weight seed.  It runs over a batch of rows, each with its own
latent and conditions; the part of the input that does not depend on the
latent is precomputed once per batch (RowBias).

Guidance follows the usual two-prediction mixture: the conditional estimate
is pulled toward the reference-conditioned prediction by weight lam,

    eps = (1 - lam) * eps(key only) + lam * eps(key, feature, reference)

which is affine in lam and hits each endpoint exactly.
"""

from __future__ import annotations

import functools
import math

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
    """Conditioning bundle: public key, implicit feature and reference embeddings."""

    key_embedding: np.ndarray
    feature_embedding: np.ndarray
    ref_embedding: np.ndarray

    def __post_init__(self):
        d = int(np.asarray(self.key_embedding).shape[0])
        object.__setattr__(self, "key_embedding", _check_embedding("key_embedding", self.key_embedding, d))
        object.__setattr__(self, "feature_embedding", _check_embedding("feature_embedding", self.feature_embedding, d))
        object.__setattr__(self, "ref_embedding", _check_embedding("ref_embedding", self.ref_embedding, d))

    @property
    def dim(self) -> int:
        return self.key_embedding.shape[0]

    def without_reference(self) -> "ConditionSet":
        """Key-only variant: reference embedding zeroed."""
        return replace(self, ref_embedding=np.zeros(self.dim))

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.key_embedding, self.feature_embedding, self.ref_embedding])


def embed_text(text: str, d: int = 64) -> np.ndarray:
    """Deterministic unit-norm stand-in for a text encoder.

    Returns a read-only vector, shared by every call with the same (text, d).
    """
    if d < 1:
        raise ValueError("embedding dimension must be positive")
    return _text_embedding(text, d)


# typed, as build_schedule's cache; a link embeds its key and feature texts
@functools.lru_cache(maxsize=8, typed=True)
def _text_embedding(text: str, d: int) -> np.ndarray:
    v = gaussian_stream(hash_token(text, "embed"), d)
    n = float(np.linalg.norm(v))
    if n == 0.0:  # measure-zero guard
        v = np.zeros(d)
        v[0] = 1.0
    else:
        v = v / n
    v.flags.writeable = False
    return v


def _orthogonal(g: np.ndarray) -> np.ndarray:
    """The Q factor of g's QR, with the signs fixed so that R's diagonal is positive."""
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def _time_embeddings(steps: int) -> np.ndarray:
    # transformer-style sinusoidal embedding of each step index 0..steps
    j = np.arange(_TIME_DIM // 2, dtype=np.float64)
    freq = 10000.0 ** (-2.0 * j / _TIME_DIM)
    angles = np.arange(steps + 1, dtype=np.float64)[:, None] * freq
    emb = np.empty((steps + 1, _TIME_DIM), dtype=np.float64)
    emb[:, 0::2] = np.sin(angles)
    emb[:, 1::2] = np.cos(angles)
    return emb


@dataclass(frozen=True)
class RowBias:
    """The latent-free part of a predictor's input for a batch of rows.

    Each of the ``rows`` latents has n values.  ``step[t]`` is the step term
    at step t (tiny-mlp only, else None), and ``cond[k, r]`` is row r's
    condition term in guidance branch k.  Conditioned rows have one branch
    (full or key-only) or two, key only then full, mixed as
    (1 - guidance_weight) * key_only + guidance_weight * full.
    Unconditioned rows, like every row of the zero predictor, have no
    condition term at all (``cond`` None, zero branches): an all-zero one
    would add nothing.
    """

    n: int
    rows: int
    step: np.ndarray | None
    cond: np.ndarray | None
    guidance_weight: float

    @property
    def branches(self) -> int:
        return 0 if self.cond is None else len(self.cond)

    def take(self, rows: list[int]) -> "RowBias":
        """The same terms for a subset of the rows; the step term is shared."""
        return replace(self, rows=len(rows), cond=None if self.cond is None else self.cond[:, rows])


class Predictor:
    """Deterministic noise predictor; weights derive from weight_seed.

    kind "zero" returns zeros, "linear" applies a fixed orthogonal mixing of
    the latent plus a rank-1 condition bias scaled by 0.1, and "tiny-mlp" is
    a one-hidden-layer tanh network of width 4*embed_dim whose fan-in scaled
    weights keep outputs bounded.  Weights are built once per latent size and
    cached; predictions are pure functions of (latent, t, conditions).

    The linear mixing of n values is the Kronecker product qa (x) qb of two
    seeded orthogonal factors, a x a and b x b with a * b = n and a the
    largest divisor of n up to sqrt(n).  It is applied to each row reshaped
    to a x b as qa @ row @ qb.T, so the n x n matrix is never formed: the
    weights hold a^2 + b^2 values (2n for a square n; a prime n falls back to
    1 x 1 and n x n), and every row runs the same small products whatever the
    batch size (structured orthogonal maps: Yu et al., NeurIPS 2016).

    Everything in the input besides the latent is precomputed once per batch
    of rows by ``bias``; ``predict`` then runs one kernel over all the rows.
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
        a = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
        b = n // a
        m = a * a + b * b
        seed = derive(self.weight_seed, f"linear:{n}")
        raw = gaussian_stream(seed, m + 3 * self.embed_dim + n)
        qa = _orthogonal(raw[:a * a].reshape(a, a))
        qb = _orthogonal(raw[a * a:m].reshape(b, b))
        w = raw[m:m + 3 * self.embed_dim]
        direction = raw[m + 3 * self.embed_dim:]
        direction = direction / np.linalg.norm(direction)
        return qa, qb, w, direction

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

    def bias(self, n: int, steps: int, rows: list[ConditionSet | None],
             guidance_weight: float = 1.0) -> RowBias:
        """Precompute the latent-free terms for rows of n-value latents.

        The step term covers steps 0..steps.  Each row is conditioned by its
        ConditionSet or unconditioned (None); the rows of one batch are all
        conditioned or all unconditioned.  Conditioned rows mix their two
        guidance branches by guidance_weight, in [0, 1].
        """
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if not rows:
            raise ValueError("a batch needs at least one row")
        if not 0.0 <= guidance_weight <= 1.0:
            raise ValueError("guidance_weight must lie in [0, 1]")
        conditioned = [c for c in rows if c is not None]
        if conditioned and len(conditioned) != len(rows):
            raise ValueError("rows must be all conditioned or all unconditioned")
        if any(c.dim != self.embed_dim for c in conditioned):
            raise ValueError("conditions dimension does not match predictor embed_dim")

        # the endpoints keep only the branch they use
        if not conditioned:
            cvec = None
        elif guidance_weight == 1.0:
            cvec = np.stack([[c.stacked() for c in rows]])
        elif guidance_weight == 0.0:
            cvec = np.stack([[c.without_reference().stacked() for c in rows]])
        else:
            cvec = np.stack([[c.without_reference().stacked() for c in rows],
                             [c.stacked() for c in rows]])

        step = cond = None
        if self.kind == "linear":
            _, _, w, direction = self.weights_for(n)
            if cvec is not None:
                cond = (_BIAS_SCALE * (cvec @ w))[..., None] * direction
        elif self.kind == "tiny-mlp":
            w1, _ = self.weights_for(n)
            step = _time_embeddings(steps) @ w1[:, n:n + _TIME_DIM].T
            if cvec is not None:
                cond = cvec @ w1[:, n + _TIME_DIM:].T
        return RowBias(n, len(rows), step, cond, guidance_weight)

    def predict(self, z: np.ndarray, t: int, bias: RowBias) -> np.ndarray:
        """Noise estimate at step t for each of the bias's rows.

        z stacks one latent per row along its leading axis (a single latent
        is a one-row batch as it is); the result has z's shape.  Values are
        checked where they enter the pipeline, not here: each sampler pass
        checks the state it ends on (see the edict module).

        The condition term is added only when the bias holds one, and the
        guidance mix runs only for a two-branch bias.  For unconditioned
        rows this skips an x + 0.0, which can change only the sign of a
        zero (x + 0.0 turns -0.0 into +0.0): no nonzero value, no
        ``np.array_equal`` comparison and no record sees the difference.
        """
        if self.kind == "zero":
            return np.zeros(z.shape)
        n = bias.n
        flat = z.reshape(bias.rows, n)
        if self.kind == "linear":
            qa, qb = self.weights_for(n)[:2]
            out = (qa @ flat.reshape(-1, len(qa), len(qb)) @ qb.T).reshape(flat.shape)
            if bias.cond is not None:
                out = out + bias.cond
        else:
            w1, w2 = self.weights_for(n)
            pre = flat @ w1[:, :n].T + bias.step[t]
            if bias.cond is not None:
                pre = pre + bias.cond
            out = np.tanh(pre) @ w2.T
        if bias.branches == 2:
            lam = bias.guidance_weight
            out = (1.0 - lam) * out[0] + lam * out[1]
        return out.reshape(z.shape)


def guided_predict(predictor: Predictor, z: np.ndarray, t: int, conditions: ConditionSet | None,
                   guidance_weight: float = 1.0) -> np.ndarray:
    """One latent's guided noise estimate at step t: a one-row batch.

    Builds the row's bias for this call alone; a loop over steps builds it
    once and calls ``Predictor.predict``.  With IEEE arithmetic the mixture
    at lam 0 or 1 equals that branch bitwise, so the endpoints evaluate only
    that branch.
    """
    z = np.asarray(z, dtype=np.float64)
    if not np.isfinite(z).all():
        raise ValueError("latent contains non-finite values")
    return predictor.predict(z, t, predictor.bias(z.size, t, [conditions], guidance_weight))
