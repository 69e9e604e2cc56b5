"""Power-normalized analog codec and AWGN channel.

A latent grid is flattened to unit-average-power symbols; scale and offset
travel as frame metadata (out of band, never noised).  The channel applies a
flat gain h and adds white Gaussian noise sized against the frame's measured
signal power:

    sigma^2 = P_signal / 10^(snr_db / 10)

Noise draws come from a seeded gaussian stream so every transmission is
reproducible.  ChannelConfig checks its own fields, kind and range in one
test each: it refuses a noise_seed outside [0, 2^64), a non-bool noiseless,
an snr_db that is not a number or whose noise divisor 10^(snr_db/10) is zero
or infinite, and a gain h that is not a number of finite normal float64
magnitude, so transmit and decode never divide by zero.
"""

from __future__ import annotations

import math
import sys

from dataclasses import dataclass, replace

import numpy as np

from .rng import Seed64, _as_seed, _is_number, gaussian_stream


@dataclass(frozen=True)
class ChannelConfig:
    snr_db: float = 10.0
    h: float = 1.0
    noise_seed: Seed64 | int = 1
    noiseless: bool = False

    def __post_init__(self):
        _as_seed(self.noise_seed, "noise_seed")  # checked, not converted
        if not isinstance(self.noiseless, bool):
            raise ValueError("noiseless: must be true or false")
        try:  # transmit's noise divisor, or 0 for a value that is not a number
            snr_ratio = 10.0 ** (self.snr_db / 10.0) if _is_number(self.snr_db) else 0.0
        except OverflowError:
            snr_ratio = math.inf
        if not 0.0 < snr_ratio < math.inf:
            raise ValueError("snr_db: 10^(snr_db/10) must be a positive finite number")
        # a subnormal gain keeps too few bits of h * symbols to decode
        if not (_is_number(self.h) and sys.float_info.min <= abs(self.h) <= sys.float_info.max):
            raise ValueError(f"h: channel gain must be finite with magnitude at least {sys.float_info.min!r}"
                             " (the smallest normal float64)")


@dataclass(frozen=True)
class SymbolFrame:
    """Channel symbols plus the affine metadata needed to undo encoding."""

    symbols: np.ndarray
    scale: float
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "symbols", np.asarray(self.symbols, dtype=np.float64))
        if self.symbols.ndim != 1:
            raise ValueError("symbols must be one-dimensional")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")


def encode(z: np.ndarray) -> SymbolFrame:
    """Normalize a grid to zero-mean unit-power symbols.

    A constant grid has no deviation to normalize; it encodes as zeros with
    scale 1, the value itself riding in offset.
    """
    flat = np.asarray(z, dtype=np.float64).ravel()
    if flat.size == 0:
        raise ValueError("cannot encode an empty grid")
    if not np.isfinite(flat).all():
        raise ValueError("grid contains non-finite values")
    # a finite grid can still hold more power than float64 does
    with np.errstate(over="ignore"):
        offset = float(flat.mean())
        centered = flat - offset
        rms = float(np.sqrt(np.mean(centered ** 2)))
    if not np.isfinite(rms):
        raise ValueError("grid power overflows float64")
    if rms == 0.0:
        return SymbolFrame(symbols=centered, scale=1.0, offset=offset)
    return SymbolFrame(symbols=centered / rms, scale=rms, offset=offset)


def transmit(frame: SymbolFrame, cfg: ChannelConfig) -> SymbolFrame:
    """Apply the gain and add seeded AWGN sized by measured signal power.

    A gain that carries the symbols out of float64 raises a ValueError
    naming the overflow, with no RuntimeWarning.
    """
    s = frame.symbols
    if not cfg.noiseless:
        p_signal = float(np.mean(s ** 2))
        sigma2 = p_signal / (10.0 ** (cfg.snr_db / 10.0))
        noise = gaussian_stream(cfg.noise_seed, s.size)
    try:
        with np.errstate(over="raise"):
            received = cfg.h * s if cfg.noiseless else cfg.h * s + np.sqrt(sigma2) * noise
    except FloatingPointError:
        raise ValueError(f"the received symbols overflow float64: channel gain h {cfg.h:.3g}") from None
    return replace(frame, symbols=received)


def decode(frame: SymbolFrame, cfg: ChannelConfig, shape: tuple[int, ...]) -> np.ndarray:
    """Equalize by h and undo the encode affine map.

    Equalizing by a tiny gain can carry the grid out of float64; that
    raises a ValueError naming the overflow, with no RuntimeWarning.
    """
    try:
        with np.errstate(over="raise"):
            flat = frame.symbols / cfg.h * frame.scale + frame.offset
    except FloatingPointError:
        raise ValueError(f"the equalized grid overflows float64: channel gain h {cfg.h:.3g}") from None
    return flat.reshape(shape)
