"""End-to-end hiding pipeline and threat-model evaluation.

Transmitter: noise the secret with the coupled sampler (no conditions),
sign-perturb the noised chains with the token mask, then denoise under
guided conditioning (public key text, implicit feature text, and a
token-seeded reference) into an innocuous stego latent.  Receiver: rebuild
the identical conditions from the token, run the conditioned noising pass
(exact inverse of the transmitter's denoise), undo the mask, and denoise
unconditioned back to the secret.

Wire format: the coupled sampler is only exactly invertible given both
chains, so the stego grid stacks the visible chain z with a difference
panel gain*(z - u) along the channel axis.  The gain is the power of two
nearest the unmixing layer's total expansion (1/p^2 per step), chosen so
additive channel noise lands with comparable effect on the inverse
sampler's stable and expanding directions; a power of two makes the
pack/unpack round trip bit-exact.  The first half of the stack is the
stego image an onlooker sees.

Eavesdroppers: E1 holds only the channel decoder and sees the stego image;
E2 runs the full keyed reveal with a wrong token (wrong mask, wrong
reference); E3 runs the reveal with no token at all, skipping mask
restoration and falling back to a stock reference seed.  Every list of
receivers (reveal rows, record, summaries, ``stegolink run``) reads RECEIVERS.

Every keyed object is a pure function of the config and its tokens.  Three
``functools.lru_cache`` functions hold them: ``_model`` the hiding and the
reference model (2 entries), ``build_conditions`` the condition sets of one
link's three reference tokens (3), and ``_keyed_link`` the last four
KeyedLinks (4), which hold the rest (schedule, masks and the predictor's
latent-free input terms).  Two smaller caches spare a fresh-token link
rebuilding what it shares with the last one: ``_mask_bits`` the mask bits
of a link's legit and eavesdropper tokens (2 entries), and
``_key_only_conditions`` the key-only condition set every reference
generation starts from (1).  hide, reveal and eavesdrop all read from a
link.  A link is keyed by every config field except the channel's (snr_db, h,
noiseless) and the trial's seeds (noise_seed, secret_seed), and built from
those fields alone, so the trials of one sweep point, or of an SNR sweep,
share one link.  No record depends on what the caches hold.

One batched reveal serves every receiver: the receivers with a start and
the channel-free round trip are the rows (in REVEAL_ROWS order) of a single
coupled-sampler pass, since they share the predictor, the schedule and the
window and differ only in start state, conditions and mask.  The row count is
fixed, so every reveal of a link runs the same computation; reveal and
eavesdrop return their row of it.  Hiding is the same coupled pass over the
legit row alone, with the biases swapped.

PipelineConfig checks each field's kind (one table, which SweepSpec reads too)
and the shape, and leaves every other rule and its message to the check that
the field's owner runs on its own calls (see README's configuration table).
"""

from __future__ import annotations

import collections
import functools
import math
import operator

from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import ChannelConfig, decode, encode, transmit
from .edict import CoupledState, SamplerParams, edict_forward, edict_reverse
from .metrics import SSIM_MAX_MAGNITUDE, MetricsReport, compare
from .predictor import ConditionSet, Predictor, RowBias, _check_args, embed_text
from .reference import embed_reference, generate_reference
from .rng import RandomStream, Seed64, _check_seed, _is_int, derive
from .schedule import _check_schedule, build_schedule
from .tokenkey import PerturbationMask, _check_eta, build_mask, perturb

STOCK_REFERENCE_TOKEN = "stock-reference"  # what a tokenless receiver falls back to

# One entry per receiver: its report name (``stegolink run --scenario``,
# eavesdrop's model), its record key, the config fields of its mask and
# reference tokens (None leaves the flips in place, or takes the stock
# reference), and its start: the "received" or "sent" stego, or None for no
# reveal.  Scored in this order.
Receiver = collections.namedtuple("Receiver", "name key mask_token reference_token start")
RECEIVERS = (Receiver("legit", "legit", "token", "token", "received"),
             Receiver("E1", "eaves1", None, None, None),
             Receiver("E2", "eaves2", "eavesdropper_token", "eavesdropper_token", "received"),
             Receiver("E3", "eaves3", None, None, "received"))
_ROUNDTRIP = Receiver("roundtrip", None, "token", "token", "sent")  # its record entry is the max error
_ROWS = tuple(r for r in (*RECEIVERS, _ROUNDTRIP) if r.start)  # the rows of the batched reveal
REVEAL_ROWS = tuple(r.name for r in _ROWS)


def _check_shape(shape) -> tuple[int, int, int]:
    """shape as a tuple; anything but three positive integers raises a ValueError naming shape."""
    if not (isinstance(shape, (list, tuple)) and len(shape) == 3
            and all(_is_int(s) and s >= 1 for s in shape)):
        raise ValueError("shape: must be three positive integers (channels, height, width)")
    return tuple(shape)


# one type check per declared field kind (the annotation string); values are
# checked, never converted, so a record carries exactly what the config held
_KIND_CHECKS = {
    "str": (lambda v: isinstance(v, str) and v != "", "must be a non-empty string"),
    "bool": (lambda v: isinstance(v, bool), "must be true or false"),
    "int": (_is_int, "must be an integer"),
    "float": (lambda v: isinstance(v, float) or _is_int(v), "must be a number"),
}


@functools.cache
def _kinds(cls) -> tuple:
    # (name, check, message) for each field of the dataclass cls of a declared kind
    return tuple((f.name, *_KIND_CHECKS[f.type]) for f in fields(cls) if f.type in _KIND_CHECKS)


def _check_kinds(obj, error: type[ValueError] = ValueError) -> None:
    """Raise error naming the first field of the dataclass obj not of its declared kind."""
    for name, check, message in _kinds(type(obj)):
        if not check(getattr(obj, name)):
            raise error(f"{name}: {message}")


@dataclass(frozen=True)
class PipelineConfig:
    """Full experiment configuration; every field has a JSON-safe value."""

    token: str = "9000"
    public_key_text: str = "a calm coastal landscape at dusk"
    feature_text: str = "broad horizon with a single foreground shape"
    guidance_weight: float = 1.0
    steps: int = 50
    beta_start: float = 1e-4
    beta_end: float = 2e-2
    predictor_kind: str = "tiny-mlp"
    predictor_seed: int = 7
    embed_dim: int = 64
    mixing_p: float = 0.93
    edit_strength: float = 0.5
    eta: float = 0.05
    shape: tuple[int, int, int] = (1, 16, 16)
    snr_db: float = 10.0
    h: float = 1.0
    noiseless: bool = False
    noise_seed: int = 1
    secret_seed: int = 11
    eavesdropper_token: str = "856427"

    def __post_init__(self):
        _check_kinds(self)
        object.__setattr__(self, "shape", _check_shape(self.shape))
        # every other rule is checked by the module that builds from the field
        for name in ("predictor_seed", "noise_seed", "secret_seed"):
            _check_seed(getattr(self, name), name)
        _check_schedule(self.steps, self.beta_start, self.beta_end)
        _check_args(self.predictor_kind, self.embed_dim, self.guidance_weight)
        _check_eta(self.eta)
        SamplerParams(mixing_p=self.mixing_p, edit_strength=self.edit_strength)
        self.channel  # built for its checks of snr_db and h

    @property
    def channel(self) -> ChannelConfig:
        return ChannelConfig(snr_db=self.snr_db, h=self.h, noise_seed=self.noise_seed,
                             noiseless=self.noiseless)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @staticmethod
    def from_dict(d: dict) -> "PipelineConfig":
        unknown = set(d) - {f.name for f in fields(PipelineConfig)}
        if unknown:
            raise ValueError(f"unknown config field(s): {', '.join(sorted(unknown))}")
        return PipelineConfig(**d)


# -- the keyed link -----------------------------------------------------------

@functools.lru_cache(maxsize=2)  # the hiding model and the reference model
def _model(kind: str, seed: int, embed_dim: int) -> Predictor:
    return Predictor(kind, Seed64(seed), embed_dim)


@functools.lru_cache(maxsize=1)  # a sweep has one key text, feature text and dim
def _key_only_conditions(key_text: str, feature_text: str, embed_dim: int) -> ConditionSet:
    # the key and feature embeddings with a zeroed reference slot, shared
    # by every reference generation of one link's texts
    zero = np.zeros(embed_dim)
    zero.flags.writeable = False
    return ConditionSet(embed_text(key_text, embed_dim), embed_text(feature_text, embed_dim), zero)


@functools.lru_cache(maxsize=len(REVEAL_ROWS) - 1)  # the round-trip row reuses the legit token
def build_conditions(token: str, *, key_text: str, feature_text: str, embed_dim: int, kind: str,
                     model_seed: int, steps: int, beta_start: float, beta_end: float,
                     shape: tuple[int, int, int]) -> ConditionSet:
    """Assemble the guided condition set of one reference token.

    The reference generator is a different pretrained model than the hiding
    sampler, modeled here as a distinct weight seed.
    """
    key_only = _key_only_conditions(key_text, feature_text, embed_dim)
    ref = generate_reference(token, key_only, build_schedule(steps, beta_start, beta_end),
                             _model(kind, model_seed, embed_dim), shape)
    return replace(key_only, ref_embedding=embed_reference(ref, embed_dim))


@functools.lru_cache(maxsize=2)  # one link's legit and eavesdropper tokens
def _mask_bits(token: str, shape: tuple[int, int, int], eta: float) -> np.ndarray:
    # one token's read-only sign-flip bits, shared by the links that use them
    bits = build_mask(token, shape, eta).bits
    bits.flags.writeable = False
    return bits


def sync_gain(mixing_p: float, steps: int) -> float:
    """Power of two nearest the unmix expansion (1/p^2)^steps, capped finite."""
    exponent = round(-2.0 * steps * math.log2(mixing_p))
    return 2.0 ** min(int(exponent), 1000)


class KeyedLink:
    """Every keyed object of one config, built once and shared by all ends.

    Holds the latent shape, the hiding schedule, predictor, sampler params
    and pair gain, and one row per REVEAL_ROWS entry: ``conditions`` holds
    each row's condition set, regenerated from the reference token its
    receiver names (cfg.token for the legit and round-trip rows,
    cfg.eavesdropper_token for E2, the stock reference for E3), and
    ``reveal_mask`` stacks each row's sign-flip mask, from the mask token its
    receiver names.  A receiver that names none, E3, has an all-zero mask
    row whatever the tokens: it leaves the sign flips in place.  Each
    distinct token's reference is generated once.  A link reads nothing of
    the channel or the trial's seeds: cfg may be a PipelineConfig or the
    ``_LinkConfig`` of its other fields, which is what ``_link`` builds
    from, so one link serves every trial whose config differs only in those.

    Two RowBias hold the predictor's latent-free terms for the rows:
    ``reveal_bias`` conditions each row by its condition set and mixes the
    guidance branches by cfg.guidance_weight, ``plain_bias`` leaves them
    unconditioned.  Hiding runs row 0 of the same terms (``hide_plain_bias``,
    ``hide_mask`` and ``hide_bias``), so its conditioned pass and the legit
    row's inverse add identical bias bits.

    Each distinct token is looked up once in its cache (see the module
    docstring), in row order, so the shared eavesdropper and stock tokens
    stay the most recently used and a fresh legit token evicts only the last.
    """

    def __init__(self, cfg: PipelineConfig):
        ref_tokens = [getattr(cfg, r.reference_token) if r.reference_token else STOCK_REFERENCE_TOKEN
                      for r in _ROWS]
        mask_tokens = [getattr(cfg, r.mask_token) if r.mask_token else None for r in _ROWS]
        model_seed = derive(Seed64(cfg.predictor_seed), "reference-model").value
        conditions = {t: build_conditions(t, key_text=cfg.public_key_text, feature_text=cfg.feature_text,
                                          embed_dim=cfg.embed_dim, kind=cfg.predictor_kind,
                                          model_seed=model_seed, steps=cfg.steps, beta_start=cfg.beta_start,
                                          beta_end=cfg.beta_end, shape=cfg.shape)
                      for t in dict.fromkeys(ref_tokens)}

        self.shape = cfg.shape
        self.conditions = [conditions[t] for t in ref_tokens]
        self.sched = build_schedule(cfg.steps, cfg.beta_start, cfg.beta_end)
        self.pred = _model(cfg.predictor_kind, cfg.predictor_seed, cfg.embed_dim)
        self.params = SamplerParams(mixing_p=cfg.mixing_p, edit_strength=cfg.edit_strength)
        self.gain = sync_gain(cfg.mixing_p, self.params.window(cfg.steps))

        n = int(np.prod(cfg.shape))
        self.reveal_bias = self.pred.bias(n, cfg.steps, self.conditions, cfg.guidance_weight)
        self.plain_bias = self.pred.bias(n, cfg.steps, [None] * len(REVEAL_ROWS))
        masks = {t: _mask_bits(t, cfg.shape, cfg.eta) for t in dict.fromkeys(mask_tokens) if t}
        no_flips = np.zeros(cfg.shape, dtype=np.uint8)
        self.reveal_mask = PerturbationMask(np.stack([masks[t] if t else no_flips for t in mask_tokens]))
        self.hide_plain_bias = self.plain_bias.take([0])
        self.hide_mask = PerturbationMask(self.reveal_mask.bits[0])
        self.hide_bias = self.reveal_bias.take([0])


# a link reads every PipelineConfig field but the channel's and the trial's
# seeds, so its key leaves out only these; a field added later is keyed
_TRIAL_FIELDS = (*(f.name for f in fields(ChannelConfig)), "secret_seed")
_LINK_FIELDS = tuple(f.name for f in fields(PipelineConfig) if f.name not in _TRIAL_FIELDS)
_link_key = operator.attrgetter(*_LINK_FIELDS)
_LinkConfig = collections.namedtuple("_LinkConfig", _LINK_FIELDS)


@functools.lru_cache(maxsize=4)  # an eta grid of three points keeps its three links
def _keyed_link(key: tuple) -> KeyedLink:
    # the link sees the key's fields alone, so reading a trial field fails
    return KeyedLink(_LinkConfig._make(key))


def _link(cfg: PipelineConfig) -> KeyedLink:
    """The keyed link of cfg, from the ``_keyed_link`` cache."""
    return _keyed_link(_link_key(cfg))


# the caches whose misses count as builds, named by what a miss builds
BUILD_CACHES = {"links": _keyed_link, "references": build_conditions, "models": _model}


def _pack_pair(state: CoupledState, gain: float) -> np.ndarray:
    try:
        with np.errstate(over="raise"):
            panel = gain * (state.z - state.u)
    except FloatingPointError:
        raise ValueError(f"the difference panel overflows float64: pair gain {gain:.3g} "
                         "times the hidden chains' gap") from None
    return np.concatenate([state.z, panel], axis=0)


def _unpack_pair(grid: np.ndarray, channels: int, gain: float) -> CoupledState:
    z = grid[..., :channels, :, :]
    u = z - grid[..., channels:, :, :] / gain
    return CoupledState(z.copy(), u)


# -- transmitter / receiver ---------------------------------------------------

def _coupled_pass(state: CoupledState, link: KeyedLink, noise_bias: RowBias, mask: PerturbationMask,
                  denoise_bias: RowBias) -> CoupledState:
    """Noise the chains, flip the signs the mask sets, and denoise them.

    Hiding noises under the plain bias and denoises under the conditioned
    one; the reveal swaps the two, and its flip, an involution, undoes hiding's.
    """
    state = edict_forward(state, link.sched, link.pred, noise_bias, link.params)
    # a sign flip keeps the pass's checked chains finite
    state = CoupledState.of_pass(perturb(state.z, mask), perturb(state.u, mask))
    return edict_reverse(state, link.sched, link.pred, denoise_bias, link.params)


def hide(secret: np.ndarray, link: KeyedLink) -> np.ndarray:
    """Render the secret into a stego latent keyed by the link's token.

    The secret must pass ``check_secret``.
    """
    secret, _ = check_secret(secret, link.shape)
    state = _coupled_pass(CoupledState(secret.copy(), secret.copy()), link, link.hide_plain_bias,
                          link.hide_mask, link.hide_bias)
    return _pack_pair(state, link.gain)


def _reveal_rows(stego_hat: np.ndarray, stego: np.ndarray, link: KeyedLink) -> np.ndarray:
    """Run the batched reveal; returns one recovered latent per REVEAL_ROWS entry.

    Each row starts from its receiver's start: stego_hat if received, stego
    if sent.  A non-finite start is rejected here, before any step runs.
    """
    channels = link.shape[0]
    expected = (2 * channels,) + link.shape[1:]
    stego_hat = np.asarray(stego_hat, dtype=np.float64)
    stego = np.asarray(stego, dtype=np.float64)
    for grid in (stego_hat, stego):
        if grid.shape != expected:
            raise ValueError(f"stego shape {grid.shape} does not match expected {expected}")

    grids = {"received": stego_hat, "sent": stego}
    starts = np.stack([grids[r.start] for r in _ROWS])
    state = _unpack_pair(starts, channels, link.gain)
    return _coupled_pass(state, link, link.reveal_bias, link.reveal_mask, link.plain_bias).z


def reveal(stego_hat: np.ndarray, link: KeyedLink) -> np.ndarray:
    """Invert hide with the correct token; exact up to float drift.

    Returns the legit row of the batched reveal of stego_hat.
    """
    return _reveal_rows(stego_hat, stego_hat, link)[REVEAL_ROWS.index("legit")]


def eavesdrop(stego_hat: np.ndarray, link: KeyedLink, model: str) -> np.ndarray:
    """Run one adversary model against a decoded stego grid.

    E1 returns the visible stego image unchanged (decoder-only adversary).
    E2 and E3 return their row of the batched reveal of stego_hat: E2 runs
    the full reveal with the eavesdropper token's key, E3 the reveal with
    the stock reference and no mask restoration.
    """
    eavesdroppers = tuple(r.name for r in RECEIVERS if r.name != "legit")
    if model not in eavesdroppers:
        raise ValueError(f"model must be one of {eavesdroppers}")
    if model not in REVEAL_ROWS:  # a receiver with no start has no reveal row
        return np.asarray(stego_hat, dtype=np.float64)[:link.shape[0]].copy()
    return _reveal_rows(stego_hat, stego_hat, link)[REVEAL_ROWS.index(model)]


# -- synthetic secrets --------------------------------------------------------

@functools.lru_cache(maxsize=2)  # a sweep has one shape
def _secret_grid(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    # the read-only (y, x) cell centres of make_secret's waves, per grid size
    yy, xx = np.meshgrid((np.arange(height) + 0.5) / height,
                         (np.arange(width) + 0.5) / width, indexing="ij")
    yy.flags.writeable = xx.flags.writeable = False
    return yy, xx


def make_secret(seed: Seed64 | int, shape: tuple[int, int, int]) -> np.ndarray:
    """Structured synthetic secret: smooth seeded waves plus one step edge.

    Stands in for natural-image latents; never constant, so its dynamic
    range is always a valid PSNR peak.  seed must be a Seed64 or an integer
    in [0, 2^64), and shape three positive integers; values are checked,
    never converted, and a bad one raises a ValueError naming its argument.
    """
    channels, height, width = _check_shape(shape)
    stream = RandomStream(derive(seed, "secret-field"))  # derive checks the seed
    yy, xx = _secret_grid(height, width)
    grids = []
    for _ in range(channels):
        u = stream.take(12).tolist()  # Python floats round each product as np.float64 does
        plane = np.zeros((height, width))
        for k in range(3):
            fy = 0.5 + 2.5 * u[3 * k]
            fx = 0.5 + 2.5 * u[3 * k + 1]
            phase = 2.0 * np.pi * u[3 * k + 2]
            plane += (1.0 / (k + 1)) * np.cos(2.0 * np.pi * (fy * yy + fx * xx) + phase)
        angle = 2.0 * np.pi * u[9]
        cy, cx = 0.3 + 0.4 * u[10], 0.3 + 0.4 * u[11]
        side = np.sign((yy - cy) * np.cos(angle) + (xx - cx) * np.sin(angle))
        grids.append(plane + 0.8 * side)
    return np.stack(grids, axis=0)


# -- trial runner -------------------------------------------------------------

def check_secret(secret: np.ndarray, shape: tuple[int, int, int]) -> tuple[np.ndarray, float]:
    """Check a secret grid for a trial; returns it as float64 and its peak.

    The grid must have the config's shape, hold only finite values, not be
    constant (its range, max - min, is the PSNR peak) and stay within
    SSIM_MAX_MAGNITUDE, past which SSIM overflows float64.
    """
    secret = np.asarray(secret, dtype=np.float64)
    if secret.shape != shape:
        raise ValueError(f"secret shape {secret.shape} does not match config shape {shape}")
    if not np.isfinite(secret).all():
        raise ValueError("secret holds non-finite values")
    peak = float(secret.max()) - float(secret.min())  # Python floats: an overflow is inf, not a warning
    if peak <= 0.0:
        raise ValueError("secret is constant (needs a positive dynamic range)")
    if float(np.abs(secret).max()) > SSIM_MAX_MAGNITUDE:
        raise ValueError(f"secret magnitude exceeds {SSIM_MAX_MAGNITUDE:.3g}, past which SSIM overflows float64")
    return secret, peak


@dataclass(frozen=True)
class TrialRecord:
    """One hide/transmit/recover cycle with every receiver in RECEIVERS scored."""

    config: dict
    reports: dict[str, MetricsReport]  # by record key, in RECEIVERS order
    edict_roundtrip_error: float
    peak: float

    def to_dict(self) -> dict:
        return {"config": self.config, **{key: report.to_dict() for key, report in self.reports.items()},
                "edict_roundtrip_error": self.edict_roundtrip_error, "peak": self.peak}


def run_trial(secret: np.ndarray, cfg: PipelineConfig) -> TrialRecord:
    """Hide, transmit, and score every receiver against the secret.

    The E1 report scores the visible stego image against the secret; its
    "recovery" is by definition just the stego.  A channel-free reveal of
    the same stego is included as the sampler round-trip diagnostic.  The
    three keyed receivers and the round trip run as one batched reveal.
    The link comes from the ``_keyed_link`` cache, and its models and
    condition sets from theirs (see KeyedLink).  A secret that
    ``check_secret`` rejects fails before any step runs.
    """
    secret, peak = check_secret(secret, cfg.shape)
    link = _link(cfg)
    stego = hide(secret, link)
    frame = encode(stego)
    received = transmit(frame, cfg.channel)
    stego_hat = decode(received, cfg.channel, stego.shape)

    recovered = dict(zip(REVEAL_ROWS, _reveal_rows(stego_hat, stego, link)))
    reports = {r.key: compare(recovered[r.name] if r.start else eavesdrop(stego_hat, link, r.name), secret, peak)
               for r in RECEIVERS}
    return TrialRecord(config=cfg.to_dict(), reports=reports, peak=peak,
                       edict_roundtrip_error=float(np.max(np.abs(recovered[_ROUNDTRIP.name] - secret))))
