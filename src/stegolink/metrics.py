"""Recovery quality metrics: MSE, PSNR, and a global-window SSIM."""

from __future__ import annotations

import math

from dataclasses import dataclass, fields

import numpy as np

PSNR_CAP_DB = 100.0

_SSIM_K1 = 0.01
_SSIM_K2 = 0.03

# Largest secret magnitude M at which SSIM's terms stay finite unscaled: for
# a secret within +-M (so peak <= 2M) and a recovered grid within +-1.34 M,
# each second-moment factor of num and den is below
# (1 + 1.34^2 + 0.004) M^2 < 2.8 M^2 and their product below 8 M^4, which
# float64 holds up to M = (float max / 8)^(1/4), about 6.9e76.  With both
# grids and the peak within M each factor is below 2.01 M^2, so ssim rescales
# only past M; secrets past M are still rejected where they enter.
SSIM_MAX_MAGNITUDE = float(np.finfo(np.float64).max / 8.0) ** 0.25


def _pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("grids must share one shape")
    if a.size == 0:
        raise ValueError("grids must be non-empty")
    return a, b


def _mean(x: np.ndarray) -> np.float64:
    # np.mean's own arithmetic (numpy's _methods._mean: an add.reduce over
    # every axis, divided by the count) without its Python wrapper
    return np.add.reduce(x, None) / x.size


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared error; a result that is not finite raises ValueError."""
    a, b = _pair(a, b)
    with np.errstate(over="ignore"):
        err = float(_mean((a - b) ** 2))
    if not math.isfinite(err):
        raise ValueError("mean squared error overflows float64 (or a grid is not finite)")
    return err


def _check_peak(peak: float) -> None:
    # NaN fails every comparison, so `peak <= 0` alone lets it through
    if not (math.isfinite(peak) and peak > 0.0):
        raise ValueError("peak must be positive and finite")


def _psnr_db(err: float, peak: float) -> float:
    if err == 0.0:
        return PSNR_CAP_DB
    return float(min(PSNR_CAP_DB, 10.0 * np.log10(peak * peak / err)))


def psnr(a: np.ndarray, b: np.ndarray, peak: float) -> float:
    """10*log10(peak^2 / mse), capped at 100 dB (the cap is the mse=0 value)."""
    _check_peak(peak)
    return _psnr_db(mse(a, b), peak)


def ssim(a: np.ndarray, b: np.ndarray, peak: float) -> float:
    """Structural similarity over one global window."""
    _check_peak(peak)
    a, b = _pair(a, b)
    a = a.ravel()
    b = b.ravel()
    # scaling both grids and the peak by one power of two scales num and den
    # alike and leaves the score's bits unchanged; past SSIM_MAX_MAGNITUDE it
    # keeps their terms finite, however far a receiver amplified the secret
    top = max(float(np.abs(a).max()), float(np.abs(b).max()), peak)
    if top > SSIM_MAX_MAGNITUDE:
        scale = math.ldexp(1.0, -math.frexp(top)[1])
        a, b, peak = a * scale, b * scale, peak * scale
    mu_a = _mean(a)
    mu_b = _mean(b)
    da = a - mu_a
    db = b - mu_b
    var_a = _mean(da * da)
    var_b = _mean(db * db)
    cov = _mean(da * db)
    c1 = (_SSIM_K1 * peak) ** 2
    c2 = (_SSIM_K2 * peak) ** 2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    # exact arithmetic keeps the score in [-1, 1]; rounding can spill over
    return float(min(1.0, max(-1.0, num / den)))


@dataclass(frozen=True)
class MetricsReport:
    psnr_db: float
    mse: float
    ssim: float

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def compare(recovered: np.ndarray, target: np.ndarray, peak: float) -> MetricsReport:
    """Bundle all three metrics of a recovery against its target; the MSE is computed once."""
    _check_peak(peak)
    err = mse(recovered, target)
    return MetricsReport(mse=err, psnr_db=_psnr_db(err, peak), ssim=ssim(recovered, target, peak))
