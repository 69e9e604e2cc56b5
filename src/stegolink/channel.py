"""Power-normalized analog codec and AWGN channel.

A latent grid is flattened to unit-average-power symbols; scale and offset
travel as frame metadata (out of band, never noised).  The channel adds
white Gaussian noise sized against the frame's measured signal power, so
snr_db is the link's one level knob:

    sigma^2 = P_signal / 10^(snr_db / 10)

Noise draws come from a seeded gaussian stream so every transmission is
reproducible.  ChannelConfig checks its own fields, kind and range in one
test each: it refuses a noise_seed outside [0, 2^64), a non-bool noiseless,
and an snr_db that is not a number or whose noise divisor 10^(snr_db/10) is
infinite or below the smallest normal float64, so a unit-power frame's
sigma^2 stays finite.  SymbolFrame refuses symbols that are empty, not
one-dimensional or not finite, a scale that is not a positive finite number
and an offset that is not a finite number.
"""

from __future__ import annotations

import math
import sys

from dataclasses import dataclass, replace

import numpy as np

from .rng import _check_seed, _is_number, gaussian_stream


@dataclass(frozen=True)
class ChannelConfig:
    snr_db: float = 10.0
    noise_seed: int = 1
    noiseless: bool = False

    def __post_init__(self):
        _check_seed(self.noise_seed, "noise_seed")
        if not isinstance(self.noiseless, bool):
            raise ValueError("noiseless: must be true or false")
        try:  # transmit's noise divisor, or 0 for a value that is not a number
            snr_ratio = 10.0 ** (self.snr_db / 10.0) if _is_number(self.snr_db) else 0.0
        except OverflowError:
            snr_ratio = math.inf
        # a subnormal divisor would carry a unit-power frame's sigma^2 past float64
        if not sys.float_info.min <= snr_ratio <= sys.float_info.max:
            raise ValueError(f"snr_db: 10^(snr_db/10) must be finite and at least {sys.float_info.min!r}"
                             " (the smallest normal float64)")


@dataclass(frozen=True)
class SymbolFrame:
    """Channel symbols plus the affine metadata needed to undo encoding."""

    symbols: np.ndarray
    scale: float
    offset: float

    def __post_init__(self):
        try:
            symbols = np.asarray(self.symbols, dtype=np.float64)
        except (TypeError, ValueError):
            symbols = None
        if not (symbols is not None and symbols.ndim == 1 and symbols.size and np.isfinite(symbols).all()):
            raise ValueError("symbols: must be a non-empty one-dimensional array of finite numbers")
        object.__setattr__(self, "symbols", symbols)
        if not (_is_number(self.scale) and 0.0 < self.scale <= sys.float_info.max):
            raise ValueError("scale: must be a positive finite number")
        if not (_is_number(self.offset) and abs(self.offset) <= sys.float_info.max):
            raise ValueError("offset: must be a finite number")


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
    """Add seeded AWGN sized by measured signal power; noiseless sends the frame as it is.

    A frame whose power, or whose noise variance at cfg.snr_db, leaves
    float64 raises a ValueError naming the overflow, with no RuntimeWarning.
    """
    if cfg.noiseless:
        return frame
    s = frame.symbols
    with np.errstate(over="ignore"):
        p_signal = float(np.mean(s ** 2))
    sigma2 = p_signal / (10.0 ** (cfg.snr_db / 10.0))
    if not sigma2 <= sys.float_info.max:
        raise ValueError(f"the noise variance overflows float64: signal power {p_signal:.3g} "
                         f"at snr_db {cfg.snr_db:.6g}")
    return replace(frame, symbols=s + np.sqrt(sigma2) * gaussian_stream(cfg.noise_seed, s.size))


def decode(frame: SymbolFrame, shape: tuple[int, ...]) -> np.ndarray:
    """Undo the encode affine map.

    A scale that carries the symbols out of float64 raises a ValueError
    naming the overflow, with no RuntimeWarning.
    """
    try:
        with np.errstate(over="raise"):
            flat = frame.symbols * frame.scale + frame.offset
    except FloatingPointError:
        raise ValueError(f"the decoded grid overflows float64: scale {frame.scale:.3g}") from None
    return flat.reshape(shape)
