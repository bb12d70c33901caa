"""Closed-form data-consistency operators.

Single-coil DF replaces or blends measured frequencies:

    rec(k) = cnn(k)                        k not in Omega
    rec(k) = (cnn(k) + lam*u(k))/(1+lam)   k in Omega      (lam=+inf: rec = u)

The variable-splitting x-update solves, independently per frequency,
(lam*d_k + alpha) x_k = alpha*(F S_i m)(k) + lam*d_k*y_i(k), and the weighted
average block solves per pixel (beta + alpha*sum_i |S_i|^2) m = beta*u +
alpha*sum_i conj(S_i) x_i.  Both are diagonal systems, so everything here is
pointwise arithmetic around the centered orthonormal FFT.

Each operator exists twice: a pure ComplexGrid version used for oracles and
dataset generation, and a ``*_t`` version that runs on [B,2,H,W] channel
tensors inside the autodiff graph (differentiable w.r.t. the image argument
and, where stated, the scalar weights).  The coil ops take maps and spectra
as complex [B,n_c,H,W] (or [n_c,H,W], shared by the batch) and coil images as
one [B,n_c,2,H,W] tensor: the coils are an array axis, not a loop.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import DimensionError, ParameterError
from .fourier import ComplexGrid, complex_to_channels_array, fft2_t, fft2c, ifft2_t, ifft2c


# -- domain types --------------------------------------------------------

@dataclass
class SensitivitySet:
    """Per-coil complex sensitivity maps, all image-domain, all same shape.

    The maps are stacked once, at construction, into one read-only complex
    [n_c,H,W] array, which ``stacked()`` returns; the maps become views of
    it, so no map is held twice."""

    maps: list
    normalized: bool = False

    def __post_init__(self):
        if not self.maps:
            raise ParameterError("SensitivitySet needs at least one map")
        shape = self.maps[0].shape
        for m in self.maps:
            if m.domain != "image":
                raise ParameterError("sensitivity maps live in the image domain")
            if m.shape != shape:
                raise DimensionError("sensitivity maps must share dims")
        self._stack = np.stack([m.z for m in self.maps], axis=0)
        self._stack.flags.writeable = False
        self.maps = [ComplexGrid(z.real, z.imag, "image") for z in self._stack]
        if self.normalized:
            total = self.support_profile()
            support = total > 1e-12
            if support.any() and np.max(np.abs(total[support] - 1.0)) >= 1e-6:
                raise ParameterError("maps flagged normalized but sum |S|^2 != 1")

    @property
    def n_c(self):
        return len(self.maps)

    @property
    def shape(self):
        return self.maps[0].shape

    def support_profile(self):
        return sum(np.abs(m.z) ** 2 for m in self.maps)

    def stacked(self):
        return self._stack


class FidelityWeights:
    """lam plus trainable alpha/beta kept as log-parameters so they stay positive."""

    def __init__(self, lam=math.inf, alpha=1.0, beta=1.0):
        if not (lam > 0):
            raise ParameterError(f"lambda must be positive or +inf, got {lam}")
        if not (0 < alpha < math.inf and 0 < beta < math.inf):
            raise ParameterError(f"alpha and beta must be positive and finite, got {alpha}, {beta}")
        self.lam = lam
        self.log_alpha = Parameter(np.asarray(np.log(alpha), dtype=np.float64))
        self.log_beta = Parameter(np.asarray(np.log(beta), dtype=np.float64))

    def alpha_t(self):
        return ad.exp(self.log_alpha)

    def beta_t(self):
        return ad.exp(self.log_beta)

    @property
    def alpha(self):
        return float(np.exp(self.log_alpha.data))

    @property
    def beta(self):
        return float(np.exp(self.log_beta.data))


def _check_lam(lam):
    if not (lam > 0):
        raise ParameterError(f"lambda must be positive or +inf, got {lam}")


# -- pure operators ------------------------------------------------------

def df_single(m_cnn, m_u_k, mask, lam=math.inf):
    _check_lam(lam)
    if m_cnn.domain != "image" or m_u_k.domain != "kspace":
        raise ParameterError("df_single wants (image, kspace) grids")
    if m_cnn.shape != m_u_k.shape or m_cnn.shape != mask.bits.shape:
        raise DimensionError(
            f"dims differ: image {m_cnn.shape}, kspace {m_u_k.shape}, mask {mask.bits.shape}")
    k_cnn = fft2c(m_cnn.z)
    if math.isinf(lam):
        rec = np.where(mask.bits, m_u_k.z, k_cnn)
    else:
        rec = np.where(mask.bits, (k_cnn + lam * m_u_k.z) / (1.0 + lam), k_cnn)
    return ComplexGrid.from_complex(ifft2c(rec), "image")


def vs_x_update(m, sens, mask, y, lam, alpha):
    _check_lam(lam)
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if len(y) != sens.n_c:
        raise DimensionError(f"{len(y)} coil spectra for {sens.n_c} maps")
    if m.shape != sens.shape or m.shape != mask.bits.shape:
        raise DimensionError("dims of m, maps, and mask must agree")
    out = []
    for s_i, y_i in zip(sens.maps, y):
        if y_i.domain != "kspace" or y_i.shape != m.shape:
            raise DimensionError("per-coil data must be k-space grids of matching dims")
        v = fft2c(s_i.z * m.z)
        if math.isinf(lam):
            xk = np.where(mask.bits, y_i.z, v)
        else:
            xk = np.where(mask.bits, (alpha * v + lam * y_i.z) / (lam + alpha), v)
        out.append(ComplexGrid.from_complex(ifft2c(xk), "image"))
    return out


def wab(u, x, sens, alpha, beta):
    if len(x) != sens.n_c:
        raise DimensionError(f"{len(x)} coil images for {sens.n_c} maps")
    if u.shape != sens.shape:
        raise DimensionError("dims of u and maps must agree")
    denom = beta + alpha * sens.support_profile()
    if np.any(denom == 0.0):
        raise ParameterError("wab denominator vanishes (alpha = beta = 0?)")
    acc = np.zeros(u.shape, dtype=complex)
    for s_i, x_i in zip(sens.maps, x):
        if x_i.shape != u.shape:
            raise DimensionError("coil image dims must match u")
        acc += np.conj(s_i.z) * x_i.z
    return ComplexGrid.from_complex((beta * u.z + alpha * acc) / denom, "image")


def sens_combine(y, sens, mask):
    """m0 = sum_i conj(S_i) * ifft2(mask * y_i): the network input image."""
    if len(y) != sens.n_c:
        raise DimensionError(f"{len(y)} coil spectra for {sens.n_c} maps")
    acc = np.zeros(sens.shape, dtype=complex)
    for s_i, y_i in zip(sens.maps, y):
        if y_i.shape != mask.bits.shape or y_i.shape != sens.shape:
            raise DimensionError("coil spectrum dims must match maps and mask")
        masked = np.where(mask.bits, y_i.z, 0.0)
        acc += np.conj(s_i.z) * ifft2c(masked)
    return ComplexGrid.from_complex(acc, "image")


def sens_expand(m, sens):
    return [ComplexGrid.from_complex(s_i.z * m.z, "image") for s_i in sens.maps]


# -- tensor-level helpers ------------------------------------------------

def _const_full(arr, shape, dtype):
    """A constant Tensor of ``arr`` broadcast to ``shape``: a read-only view,
    no full-size copy."""
    return Tensor(np.broadcast_to(np.asarray(arr, dtype=dtype), shape))


def coil_arrays(bsz, hw, *arrays):
    """Constant complex per-coil arrays (spectra, maps), each [n_c,H,W]
    (shared by the batch) or [B,n_c,H,W], as [1 or B, n_c, H, W]."""
    out = [np.asarray(a)[None] if np.ndim(a) == 3 else np.asarray(a) for a in arrays]
    if any(a.ndim != 4 or a.shape[0] not in (1, bsz) or
           a.shape[1:] != out[0].shape[1:2] + hw for a in out):
        raise DimensionError(f"per-coil arrays {[a.shape for a in out]} do not "
                             f"fit a batch of {bsz} at {hw}")
    return out


def cmul_const(x, z_const, conj=False):
    """Multiply channel tensor [...,2,H,W] by a constant complex array that
    broadcasts against [...,H,W] (conj: by its conjugate).  With x
    [B,1,2,H,W] and maps [B,n_c,H,W] this is the coil expand."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    a = np.asarray(z_const.real, dtype=x.dtype)
    b = np.asarray(z_const.imag, dtype=x.dtype)
    if conj:
        b = -b
    xr = np.take(x.data, 0, axis=-3)
    xi = np.take(x.data, 1, axis=-3)
    out = np.stack([xr * a - xi * b, xr * b + xi * a], axis=-3)
    node, shape = ad._node_of(x), x.shape

    def backward(g, flow):
        gr = np.take(g, 0, axis=-3)
        gi = np.take(g, 1, axis=-3)
        gx = np.stack([gr * a + gi * b, -gr * b + gi * a], axis=-3)
        ad._flow_add(flow, node, ad._reduce_to(gx, shape))

    return ad._make(out, (x,), backward)


def df_single_t(m_cnn, us_k, mask, lam=math.inf):
    """Tensor DF: m_cnn [B,2,H,W] in the graph, us_k a constant complex array
    ([H,W] or [B,H,W]) of measured k-space.  Affine in the spectrum:
    rec = A * fft(m_cnn) + Bc with A, Bc fixed by (mask, lam, us_k)."""
    _check_lam(lam)
    if m_cnn.ndim != 4 or m_cnn.shape[1] != 2:
        raise DimensionError(f"df_single_t expects [B,2,H,W], got {m_cnn.shape}")
    dt = m_cnn.dtype
    mb = mask.bits
    us_k = np.asarray(us_k)
    if us_k.ndim == 2:
        us_k = us_k[None]
    if math.isinf(lam):
        a = (~mb).astype(dt)
        b_z = np.where(mb, us_k, 0.0)
    else:
        a = np.where(mb, 1.0 / (1.0 + lam), 1.0).astype(dt)
        b_z = np.where(mb, us_k * (lam / (1.0 + lam)), 0.0)
    k = fft2_t(m_cnn)
    a_full = _const_full(a[None, None], k.shape, dt)
    b_full = _const_full(complex_to_channels_array(b_z), k.shape, dt)
    rec = ad.add(ad.mul(k, a_full), b_full)
    return ifft2_t(rec)


def vs_x_update_t(m, s, mask, y, lam, alpha_t):
    """Graph x-update for all coils at once.  m [B,2,H,W]; coil maps s and
    spectra y constant complex [n_c,H,W] or [B,n_c,H,W]; alpha_t a 0-d
    tensor.  Returns the coil images as one [B,n_c,2,H,W] tensor."""
    _check_lam(lam)
    if m.ndim != 4 or m.shape[1] != 2:
        raise DimensionError(f"vs_x_update_t expects [B,2,H,W], got {m.shape}")
    dt = m.dtype
    bsz, _, h, w = m.shape
    y, s = coil_arrays(bsz, (h, w), y, s)
    full = (bsz, s.shape[1], 2, h, w)
    mb = mask.bits
    y_ch = _const_full(complex_to_channels_array(np.where(mb, y, 0.0)), full, dt)
    v = fft2_t(cmul_const(ad.reshape(m, (bsz, 1, 2, h, w)), s))
    off = ad.mul(v, _const_full((~mb).astype(dt), full, dt))
    if math.isinf(lam):
        xk = ad.add(off, y_ch)
    else:
        # (alpha*v + lam*y) / (lam + alpha) on sampled entries
        recip = ad.div(1.0, ad.add(alpha_t, lam))
        blend = ad.add(ad.mul(ad.mul(v, _const_full(mb.astype(dt), full, dt)), alpha_t),
                       ad.mul(y_ch, lam))
        xk = ad.add(off, ad.mul(blend, recip))
    return ifft2_t(xk)


def wab_t(u, x, s, alpha_t, beta_t):
    """Graph WAB.  u [B,2,H,W], coil images x [B,n_c,2,H,W], coil maps s
    constant complex [n_c,H,W] or [B,n_c,H,W], alpha/beta 0-d tensors."""
    dt = u.dtype
    s, = coil_arrays(u.shape[0], u.shape[2:], s)
    if x.shape[:1] + x.shape[2:] != u.shape or x.shape[1] != s.shape[1]:
        raise DimensionError(f"coil images {x.shape} for u {u.shape} and maps {s.shape}")
    acc = ad.sum_axes(cmul_const(x, s, conj=True), (1,))
    num = ad.add(ad.mul(u, beta_t), ad.mul(acc, alpha_t))
    ssum = _const_full(np.sum(np.abs(s) ** 2, axis=1)[:, None], u.shape, dt)
    denom = ad.add(ad.mul(ssum, alpha_t), beta_t)
    if np.any(denom.data == 0.0):
        raise ParameterError("wab denominator vanishes")
    return ad.div(num, denom)
