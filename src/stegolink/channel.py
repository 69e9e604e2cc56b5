"""Power-normalized analog codec and AWGN channel.

A latent grid is flattened to unit-average-power symbols; scale and offset
travel as frame metadata (out of band, never noised).  The channel applies a
flat gain h and adds white Gaussian noise sized against the frame's measured
signal power:

    sigma^2 = P_signal / 10^(snr_db / 10)

Noise draws come from a seeded gaussian stream so every transmission is
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .rng import Seed64, gaussian_stream


@dataclass(frozen=True)
class ChannelConfig:
    snr_db: float = 10.0
    h: float = 1.0
    noise_seed: Seed64 | int = 1
    noiseless: bool = False

    def __post_init__(self):
        if not np.isfinite(self.snr_db):
            raise ValueError("snr_db must be finite")
        if not np.isfinite(self.h):
            raise ValueError("h must be finite")


@dataclass(frozen=True)
class SymbolFrame:
    """Channel symbols plus the affine metadata needed to undo encoding."""

    symbols: np.ndarray
    scale: float
    offset: float
    degenerate: bool = False  # constant input, nothing but the offset survives

    def __post_init__(self):
        object.__setattr__(self, "symbols", np.asarray(self.symbols, dtype=np.float64))
        if self.symbols.ndim != 1:
            raise ValueError("symbols must be one-dimensional")
        if not self.degenerate and self.scale <= 0.0:
            raise ValueError("scale must be positive")


def encode(z: np.ndarray) -> SymbolFrame:
    """Normalize a grid to zero-mean unit-power symbols.

    A constant grid has no deviation to normalize; it encodes as zeros with
    scale 1 and the degenerate flag set, the value itself riding in offset.
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
        return SymbolFrame(symbols=centered, scale=1.0, offset=offset, degenerate=True)
    return SymbolFrame(symbols=centered / rms, scale=rms, offset=offset)


def transmit(frame: SymbolFrame, cfg: ChannelConfig) -> SymbolFrame:
    """Apply the gain and add seeded AWGN sized by measured signal power."""
    s = frame.symbols
    if cfg.noiseless:
        return replace(frame, symbols=cfg.h * s)
    p_signal = float(np.mean(s ** 2))
    sigma2 = p_signal / (10.0 ** (cfg.snr_db / 10.0))
    noise = gaussian_stream(cfg.noise_seed, s.size)
    return replace(frame, symbols=cfg.h * s + np.sqrt(sigma2) * noise)


def decode(frame: SymbolFrame, cfg: ChannelConfig, shape: tuple[int, ...]) -> np.ndarray:
    """Equalize by h and undo the encode affine map."""
    if cfg.h == 0.0:
        raise ValueError("channel gain h must be nonzero to decode")
    flat = frame.symbols / cfg.h * frame.scale + frame.offset
    return flat.reshape(shape)
