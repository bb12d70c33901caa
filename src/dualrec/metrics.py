"""Image quality metrics: PSNR, SSIM, and pixel-domain multi-scale VIF.

Conventions (fixed, also honored by the test oracles):

* data_range for PSNR/SSIM defaults to the per-slice maximum of the reference.
* SSIM: 11x11 Gaussian window sigma=1.5, K1=0.01, K2=0.03, C3=C2/2 folded
  into the standard two-factor formula, valid-region windows only.
* VIF: both images scaled by 255/max(ref); 4 scales with window size
  2^(5-s)+1 and sigma = size/5; scales beyond the first smooth then decimate
  by 2; GSM statistics with noise variance 2; half-sample symmetric boundary.
  VIF of a bit-identical pair is defined as exactly 1.
* Complex reconstructions are evaluated on magnitude images by the callers.

A zero-MSE pair has infinite PSNR; it is reported as the capped sentinel 99.0
and flagged in SliceRecord / MetricReport.  A zero-variance reference makes
VIF undefined; it is reported as 1 when the pair is identical, else 0, and
flagged.
"""

from dataclasses import dataclass, field

import numpy as np

from ._filters import (downsample2, filter2_same_reflect, filter2_valid,
                       gaussian_kernel1d)
from .errors import DimensionError, ParameterError

PSNR_CAP_DB = 99.0
_VIF_SIGMA_NSQ, _VIF_EPS = 2.0, 1e-10    # GSM noise variance, variance floor

_SSIM_KERNEL = gaussian_kernel1d(11, 1.5)


def _check_pair(x, ref):
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise DimensionError(f"image dims differ: {x.shape} vs {ref.shape}")
    if x.ndim != 2:
        raise DimensionError("metrics operate on single 2-d slices")
    return x, ref


def _resolve_range(ref, data_range):
    if data_range is None:
        data_range = float(ref.max())
    if data_range <= 0:
        raise ParameterError(f"data_range must be positive, got {data_range}")
    return data_range


def psnr(x, ref, data_range=None):
    """10*log10(data_range^2 / MSE); capped at 99.0 dB for zero MSE."""
    x, ref = _check_pair(x, ref)
    data_range = _resolve_range(ref, data_range)
    mse = float(np.mean((x - ref) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * np.log10(data_range * data_range / mse), PSNR_CAP_DB)


def ssim(x, ref, data_range=None):
    """Mean local SSIM over valid 11x11 Gaussian windows."""
    x, ref = _check_pair(x, ref)
    if min(x.shape) < 11:
        raise ParameterError(f"ssim needs min dim >= 11, got {x.shape}")
    data_range = _resolve_range(ref, data_range)
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    k = _SSIM_KERNEL
    mu_x = filter2_valid(x, k)
    mu_r = filter2_valid(ref, k)
    mu_x_sq = mu_x * mu_x
    mu_r_sq = mu_r * mu_r
    var_x = filter2_valid(x * x, k) - mu_x_sq
    var_r = filter2_valid(ref * ref, k) - mu_r_sq
    cov = filter2_valid(x * ref, k) - mu_x * mu_r
    num = (2.0 * mu_x * mu_r + c1) * (2.0 * cov + c2)
    den = (mu_x_sq + mu_r_sq + c1) * (var_x + var_r + c2)
    return float(np.mean(num / den))


def vif(x, ref):
    """Pixel-domain multi-scale visual information fidelity.

    Returns (value, degenerate_flag); degenerate means the reference carried
    no information (zero variance at every scale).
    """
    sigma_nsq, eps = _VIF_SIGMA_NSQ, _VIF_EPS
    x, ref = _check_pair(x, ref)
    if min(x.shape) < 32:
        raise ParameterError(f"vif needs min dim >= 32, got {x.shape}")
    if np.array_equal(x, ref):
        degenerate = float(ref.max()) == float(ref.min())
        return 1.0, degenerate
    peak = float(ref.max())
    if peak == float(ref.min()):
        return 0.0, True
    scale = 255.0 / peak
    r = ref * scale
    d = x * scale

    num = 0.0
    den = 0.0
    for s in range(1, 5):
        n = 2 ** (5 - s) + 1
        k = gaussian_kernel1d(n, n / 5.0)
        if s > 1:
            r = downsample2(filter2_same_reflect(r, k))
            d = downsample2(filter2_same_reflect(d, k))
        mu1 = filter2_same_reflect(r, k)
        mu2 = filter2_same_reflect(d, k)
        mu1_sq = mu1 * mu1
        mu2_sq = mu2 * mu2
        mu1_mu2 = mu1 * mu2
        sigma1_sq = filter2_same_reflect(r * r, k) - mu1_sq
        sigma2_sq = filter2_same_reflect(d * d, k) - mu2_sq
        sigma12 = filter2_same_reflect(r * d, k) - mu1_mu2

        g = sigma12 / (sigma1_sq + eps)
        sv_sq = sigma2_sq - g * sigma12

        g[sigma1_sq < eps] = 0.0
        sv_sq[sigma1_sq < eps] = sigma2_sq[sigma1_sq < eps]
        sigma1_sq = sigma1_sq.copy()
        sigma1_sq[sigma1_sq < eps] = 0.0

        g[sigma2_sq < eps] = 0.0
        sv_sq[sigma2_sq < eps] = 0.0

        sv_sq[g < 0.0] = sigma2_sq[g < 0.0]
        g[g < 0.0] = 0.0
        sv_sq[sv_sq <= eps] = eps

        num += float(np.sum(np.log10(1.0 + (g * g) * sigma1_sq / (sv_sq + sigma_nsq))))
        den += float(np.sum(np.log10(1.0 + sigma1_sq / sigma_nsq)))
    if den == 0.0:
        return 0.0, True
    return num / den, False


@dataclass
class SliceRecord:
    slice_id: str
    psnr_db: float
    ssim: float
    vif: float
    data_range: float
    psnr_capped: bool = False
    vif_degenerate: bool = False


def compare(x, ref, slice_id="slice", data_range=None):
    """Evaluate one pair on all three metrics with flags."""
    x, ref = _check_pair(x, ref)
    dr = _resolve_range(ref, data_range)
    p = psnr(x, ref, dr)
    s = ssim(x, ref, dr)
    v, degenerate = vif(x, ref)
    return SliceRecord(slice_id, p, s, v, dr,
                       psnr_capped=(p == PSNR_CAP_DB), vif_degenerate=degenerate)


@dataclass
class MetricReport:
    """Per-slice metric values plus mean/std aggregates over a set."""

    records: list = field(default_factory=list)

    def add(self, record):
        self.records.append(record)

    def _column(self, name):
        return np.array([getattr(r, name) for r in self.records], dtype=np.float64)

    def mean(self, name):
        return float(self._column(name).mean())

    def std(self, name):
        return float(self._column(name).std())

    def summary(self):
        if not self.records:
            raise ParameterError("empty report has no summary")
        out = {}
        for name in ("psnr_db", "ssim", "vif"):
            out[f"{name}_mean"] = self.mean(name)
            out[f"{name}_std"] = self.std(name)
        out["n"] = len(self.records)
        out["any_psnr_capped"] = any(r.psnr_capped for r in self.records)
        out["any_vif_degenerate"] = any(r.vif_degenerate for r in self.records)
        return out
