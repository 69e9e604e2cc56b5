"""Noise predictors and conditioned guidance.

Real diffusion hiding uses a large pretrained denoiser; this module swaps in
small deterministic stand-ins with the same call shape so the samplers can be
exercised end to end at desk scale.  A predictor maps (latent, step, optional
conditions) to a latent-shaped noise estimate and is a pure function of its
inputs and its weight seed.  It runs over a batch of rows, each with its own
latent and conditions; the part of the input that does not depend on the
latent is precomputed once per batch (RowBias), over the steps of a noise
schedule, which alone decides what a step count is.

Each call is one kernel over a (rows, n) batch.  Its operands are views of
the weights, bound once per (predictor, n), and every step after the first
product adds into that product's fresh array or takes its tanh in place.
This keeps the bits of the plain formula, which added into new arrays and
broadcast a one-branch (1, rows, h) condition term to 3-D:
- x += y rounds each element exactly as x + y does, and tanh writes the
  same values in place as into a new array;
- adding the term's (rows, h) row adds the same operands elementwise as the
  broadcast did;
- a stacked product over a batch of one makes the same BLAS call as the
  2-D product.
So the same IEEE operations run in the same order, and only allocations, a
weight lookup, transposed views and the 3-D detour are saved per call.  The
weights and the precomputed terms are read-only, so no call can change a
later one.

Guidance follows the usual two-prediction mixture: the conditional estimate
is pulled toward the reference-conditioned prediction by weight lam,

    eps = (1 - lam) * eps(key only) + lam * eps(key, feature, reference)

which is affine in lam and hits each endpoint exactly.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, replace

import numpy as np

from .rng import Seed64, _as_seed, _fill_gaussian, _is_int, _is_number, derive, gaussian_stream, hash_token
from .schedule import NoiseSchedule, build_schedule

PREDICTOR_KINDS = ("zero", "linear", "tiny-mlp")

_TIME_DIM = 16          # sinusoidal step-embedding width
_BIAS_SCALE = 0.1       # condition bias scale for the linear predictor
_NORM_TOL = 1e-9


def _check_args(kind: str = "zero", embed_dim: int = 1, guidance_weight: float = 0.0) -> None:
    # Predictor's, bias's and the embeddings' argument rules; an argument left out passes
    if kind not in PREDICTOR_KINDS:
        raise ValueError(f"predictor_kind: must be one of {', '.join(PREDICTOR_KINDS)}")
    if not (_is_int(embed_dim) and embed_dim >= 1):
        raise ValueError("embed_dim: must be a positive integer")
    if not (_is_number(guidance_weight) and 0.0 <= guidance_weight <= 1.0):
        raise ValueError("guidance_weight: must lie in [0, 1]")


def _check_embedding(name: str, v: np.ndarray, d: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (d,):
        raise ValueError(f"{name} must have shape ({d},)")
    n = float(np.linalg.norm(v))
    if not (n == 0.0 or abs(n - 1.0) <= _NORM_TOL):  # a NaN norm passes neither
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
        for name in ("key_embedding", "feature_embedding", "ref_embedding"):
            object.__setattr__(self, name, _check_embedding(name, getattr(self, name), d))

    @property
    def dim(self) -> int:
        return self.key_embedding.shape[0]

    def without_reference(self) -> "ConditionSet":
        """Key-only variant: reference embedding zeroed.

        A set whose reference is already all zero is its own key-only
        variant and is returned as it is.
        """
        if not self.ref_embedding.any():
            return self
        return replace(self, ref_embedding=np.zeros(self.dim))

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.key_embedding, self.feature_embedding, self.ref_embedding])


def _unit(v: np.ndarray) -> np.ndarray:
    # v over its norm; an all-zero v (a measure-zero draw, a constant reference) gives e_0
    n = float(np.linalg.norm(v))
    return v / n if n != 0.0 else np.eye(1, v.size).ravel()


def embed_text(text: str, d: int = 64) -> np.ndarray:
    """Deterministic unit-norm stand-in for a text encoder; returns a read-only vector."""
    _check_args(embed_dim=d)
    v = _unit(gaussian_stream(hash_token(text, "embed"), d))
    v.flags.writeable = False  # the cached key-only condition set shares it
    return v


def _orthogonal(g: np.ndarray) -> np.ndarray:
    """The Q factor of g's QR, signs fixed so R's diagonal is positive, on a cache line."""
    q, r = np.linalg.qr(g)
    return np.multiply(q, np.sign(np.diag(r)), out=_aligned_empty(q.shape))


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

    It names what a sampler pass runs: the ``predictor`` that built it and
    the schedule ``sched`` over whose steps 0..T its step term runs.  Each of
    the ``rows`` latents has n values.  ``step[t]`` is the step term at step
    t as a (1, h) row (tiny-mlp only, else None), and ``cond[k, r]`` is row
    r's condition term in guidance branch k.  Conditioned rows have one branch
    (full or key-only) or two, key only then full, mixed as
    (1 - guidance_weight) * key_only + guidance_weight * full.
    Unconditioned rows, like every row of the zero predictor, have no
    condition term at all (``cond`` None, zero branches): an all-zero one
    would add nothing.  ``operands`` holds the predictor's kernel operands
    for n-value rows, shared by every bias of that predictor and n.
    """

    predictor: Predictor
    sched: NoiseSchedule
    n: int
    rows: int
    step: np.ndarray | None
    cond: np.ndarray | None
    guidance_weight: float
    operands: tuple

    @property
    def branches(self) -> int:
        return 0 if self.cond is None else len(self.cond)

    def take(self, rows: list[int]) -> "RowBias":
        """The same predictor, schedule and step term for a subset of the rows."""
        return replace(self, rows=len(rows), cond=None if self.cond is None else _read_only(self.cond[:, rows]))


def _condition_vectors(rows: list[ConditionSet], guidance_weight: float) -> np.ndarray:
    # (branches, rows, 3 * embed_dim): key only, then full; the endpoints
    # keep only the branch they use
    if guidance_weight == 1.0:
        return np.stack([[c.stacked() for c in rows]])
    if guidance_weight == 0.0:
        return np.stack([[c.without_reference().stacked() for c in rows]])
    return np.stack([[c.without_reference().stacked() for c in rows], [c.stacked() for c in rows]])


def _aligned_empty(shape: tuple[int, int]) -> np.ndarray:
    # an uninitialised float64 array starting on a 64-byte cache line, so the
    # kernel's vector loads of its rows never straddle two lines.  malloc
    # aligns to 16 bytes only, and puts every buffer too large for its heap 16
    # bytes past a page: such weights made each tiny-mlp call about 10% slower
    buf = bytearray(8 * math.prod(shape) + 64)
    pad = -np.frombuffer(buf, np.uint8).ctypes.data % 64
    return np.ndarray(shape, np.float64, buffer=buf, offset=pad)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


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
    """

    def __init__(self, kind: str, weight_seed: Seed64 | int = 7, embed_dim: int = 64):
        _check_args(kind, embed_dim)
        self.kind = kind
        self.weight_seed = _as_seed(weight_seed, "weight_seed")
        self.embed_dim = embed_dim
        self._sizes: dict[int, tuple[tuple, tuple]] = {}  # n -> (weights, kernel operands)

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
        return tuple(_read_only(arr) for arr in (qa, qb, w, direction))

    def _mlp_weights(self, n: int) -> tuple:
        """w1 (hidden x m) and w2 (n x hidden), filled in place from one stream.

        w1 takes the stream's first hidden*m values and w2 the rest, from pair
        hidden*m/2 (hidden = 4*embed_dim makes hidden*m even); each is then
        divided in place by the square root of its fan-in, so a build holds
        no more than its weights.  Both start on a 64-byte boundary (see
        _aligned_empty), as linear's factors do.
        """
        hidden = 4 * self.embed_dim
        m = n + _TIME_DIM + 3 * self.embed_dim
        seed = derive(self.weight_seed, f"tiny-mlp:{n}").value
        w1 = _aligned_empty((hidden, m))
        w2 = _aligned_empty((n, hidden))
        _fill_gaussian(seed, 0, w1.reshape(-1))
        _fill_gaussian(seed, hidden * m // 2, w2.reshape(-1))
        w1 /= np.sqrt(m)
        w2 /= np.sqrt(hidden)
        return _read_only(w1), _read_only(w2)

    def weights_for(self, n: int) -> tuple:
        """The read-only weights for n-value latents, built on first use.

        Binds the kernel's operands for n beside them: views, never copies,
        of (qa, qb.T) for linear, with qa's and qb's sizes, and
        (w1[:, :n].T, w2.T) for tiny-mlp.  The zero predictor has none.
        """
        if n not in self._sizes:
            if self.kind == "linear":
                weights = qa, qb, _, _ = self._linear_weights(n)
                operands = (qa, qb.T, len(qa), len(qb))
            elif self.kind == "tiny-mlp":
                weights = w1, w2 = self._mlp_weights(n)
                operands = (w1[:, :n].T, w2.T)
            else:
                weights = operands = ()
            self._sizes[n] = weights, operands
        return self._sizes[n][0]

    # -- prediction ----------------------------------------------------------

    def bias(self, n: int, sched: NoiseSchedule, rows: list[ConditionSet | None],
             guidance_weight: float = 1.0) -> RowBias:
        """Precompute the latent-free terms for rows of n-value latents.

        The bias names self and sched; its step term covers steps 0..sched.T.
        Each row is conditioned by its ConditionSet or unconditioned (None);
        the rows of one batch are all conditioned or all unconditioned.
        Conditioned rows mix their two guidance branches by guidance_weight.
        Only linear and tiny-mlp stack the rows' condition vectors; the zero
        predictor reads none.
        """
        if not rows:
            raise ValueError("a batch needs at least one row")
        _check_args(guidance_weight=guidance_weight)
        conditioned = [c for c in rows if c is not None]
        if conditioned and len(conditioned) != len(rows):
            raise ValueError("rows must be all conditioned or all unconditioned")
        if any(c.dim != self.embed_dim for c in conditioned):
            raise ValueError("conditions dimension does not match predictor embed_dim")

        step = cond = None
        if self.kind == "linear":
            _, _, w, direction = self.weights_for(n)
            if conditioned:
                cond = _read_only((_BIAS_SCALE * (_condition_vectors(rows, guidance_weight) @ w))[..., None]
                                  * direction)
        elif self.kind == "tiny-mlp":
            w1, _ = self.weights_for(n)
            # (T + 1, 1, h): a one-row batch adds step[t] without broadcasting
            step = _read_only(_time_embeddings(sched.T) @ w1[:, n:n + _TIME_DIM].T)[:, None]
            if conditioned:
                cond = _read_only(_condition_vectors(rows, guidance_weight) @ w1[:, n + _TIME_DIM:].T)
        return RowBias(self, sched, n, len(rows), step, cond, guidance_weight, self._sizes.get(n, ((), ()))[1])

    def predict(self, z: np.ndarray, t: int, bias: RowBias) -> np.ndarray:
        """Noise estimate at step t for each of the bias's rows.

        bias must be one this predictor built (any other is refused with a
        ValueError naming bias), and t a step of ``bias.sched``; a sampler
        pass calls ``bias.predictor.predict``.  z stacks one latent per row
        along its leading axis (a single latent is a one-row batch as it is);
        the result has z's shape and is a new array, and neither z nor the
        bias is written.  Values are checked where they enter the pipeline,
        not here: each sampler pass checks the state it ends on.

        tiny-mlp runs one product, adds the step term and a one-branch
        condition term into it, takes tanh in place and runs one product;
        linear maps each row as qa @ row @ qb.T and adds a one-branch term
        in place.  These are the operations of the broadcast formula, in its
        order, so the bits are its bits (see the module docstring).  A
        two-branch bias stacks both branches, (2, rows, h), and mixes them.

        The condition term is added only when the bias holds one.  For
        unconditioned rows this skips an x + 0.0, which can change only the
        sign of a zero (x + 0.0 turns -0.0 into +0.0): no nonzero value, no
        ``np.array_equal`` comparison and no record sees the difference.
        """
        if bias.predictor is not self:
            raise ValueError("bias: was built by another predictor")
        if self.kind == "zero":
            return np.zeros(z.shape)
        cond = bias.cond
        branches = bias.branches
        if self.kind == "linear":
            qa, qb_t, a, b = bias.operands
            out = (qa @ z.reshape(bias.rows, a, b) @ qb_t).reshape(bias.rows, bias.n)
        else:
            w1_t, w2_t = bias.operands
            out = z.reshape(bias.rows, bias.n) @ w1_t
            out += bias.step[t]
        if branches == 1:
            out += cond[0]
        elif branches == 2:
            out = out + cond
        if self.kind == "tiny-mlp":
            out = np.tanh(out, out=out) @ w2_t
        if branches == 2:
            lam = bias.guidance_weight
            out = (1.0 - lam) * out[0] + lam * out[1]
        return out.reshape(z.shape)


def guided_predict(predictor: Predictor, z: np.ndarray, t: int, conditions: ConditionSet | None,
                   guidance_weight: float = 1.0) -> np.ndarray:
    """One latent's guided noise estimate at step t: a one-row batch.

    Builds the row's bias for this call alone, over ``build_schedule(t)``,
    so t must be a step count the schedule accepts; a loop over steps builds
    the bias once and calls ``Predictor.predict``.  With IEEE arithmetic the
    mixture at lam 0 or 1 equals that branch bitwise, so the endpoints
    evaluate only that branch.
    """
    z = np.asarray(z, dtype=np.float64)
    if not np.isfinite(z).all():
        raise ValueError("latent contains non-finite values")
    return predictor.predict(z, t, predictor.bias(z.size, build_schedule(t), [conditions], guidance_weight))
