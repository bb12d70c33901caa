"""Centered orthonormal Fourier transforms and the trainable transform layer.

The 1-d transform along an axis of length N is the matrix

    F[j, k] = N^{-1/2} exp(sign * 2*pi*i * (j - c)(k - c) / N),  c = N // 2

with sign -1 forward (image -> k-space) and +1 inverse.  Centering is part of
the matrix, and the 2-d transform of an [..., H, W] array is F_H @ z @ F_W: F
is symmetric, so right-multiplying by F_W transforms the last axis.  The two
dense GEMMs cost O(HW(H+W)) against O(HW log HW) for a butterfly, but they
run inside BLAS where a butterfly makes log N Python-level passes, so up to
256 pixels per side the matrices are faster (2x at 256, 4-11x at 32-64,
1 BLAS thread).  One matrix per (length, sign) is built once, cached
read-only and shared with DTLayer's init.  The package never uses NumPy's
FFT module; tests/test_fourier.py enforces that.

Because the centered DFT matrix is symmetric and unitary, the adjoint of the
transform in the 2-channel real representation is simply the inverse
transform, which gives the backward rules of fft2_t / ifft2_t.  Those apply
the real and imaginary parts of the matrices as real GEMMs straight on the
(re, im) channels, in the channels' own precision: a float32 tensor is
transformed in float32, with no complex copy.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import DimensionError, ParameterError
from .layers import Conv2d, Module

_DOMAINS = ("image", "kspace")


# -- transform kernel ----------------------------------------------------

@functools.lru_cache(maxsize=None)
def dft_matrix(n, sign):
    """Centered orthonormal DFT matrix of length n, complex128 and read-only.

    One array per (n, sign) is shared by every caller, so it cannot be
    written.  The phase index (j - c)(k - c) is reduced mod n in integers
    before it is scaled to an angle in [0, 2*pi), so the error of an entry
    stays at a few ulp and does not grow with n.
    """
    j = np.arange(n) - n // 2
    w = np.exp(sign * 2j * np.pi * (np.outer(j, j) % n) / n) / np.sqrt(n)
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=None)
def _dft_parts(n, sign, dtype):
    """(real, imaginary) parts of dft_matrix(n, sign) in a real dtype, read-only."""
    w = dft_matrix(n, sign)
    parts = (w.real.astype(dtype), w.imag.astype(dtype))
    for p in parts:
        p.flags.writeable = False
    return parts


def fft2c(z, sign=-1):
    """Centered orthonormal 2-d DFT over the last two axes of a complex array."""
    z = np.asarray(z)
    if z.ndim < 2:
        raise DimensionError("fft2c needs at least 2 dims")
    return dft_matrix(z.shape[-2], sign) @ z @ dft_matrix(z.shape[-1], sign)


def ifft2c(z):
    return fft2c(z, sign=+1)


# -- complex grid --------------------------------------------------------

@dataclass
class ComplexGrid:
    """A complex-valued H x W grid tagged with its domain ('image' or 'kspace')."""

    re: np.ndarray
    im: np.ndarray
    domain: str = "image"

    def __post_init__(self):
        self.re = np.asarray(self.re, dtype=np.float64)
        self.im = np.asarray(self.im, dtype=np.float64)
        if self.re.shape != self.im.shape:
            raise DimensionError(f"re/im shapes differ: {self.re.shape} vs {self.im.shape}")
        if self.re.ndim != 2:
            raise DimensionError("ComplexGrid holds a 2-d grid")
        if self.domain not in _DOMAINS:
            raise ParameterError(f"domain must be one of {_DOMAINS}, got {self.domain!r}")

    @classmethod
    def from_complex(cls, z, domain):
        z = np.asarray(z)
        return cls(z.real.copy(), z.imag.copy(), domain)

    @classmethod
    def from_real(cls, x, domain="image"):
        x = np.asarray(x, dtype=np.float64)
        return cls(x.copy(), np.zeros_like(x), domain)

    @property
    def z(self):
        return self.re + 1j * self.im

    @property
    def shape(self):
        return self.re.shape

    def magnitude(self):
        return np.hypot(self.re, self.im)


def fft2(g):
    """image-domain grid -> k-space grid."""
    if g.domain != "image":
        raise ParameterError(f"fft2 expects an image-domain grid, got {g.domain!r}")
    return ComplexGrid.from_complex(fft2c(g.z), "kspace")


def ifft2(g):
    """k-space grid -> image-domain grid."""
    if g.domain != "kspace":
        raise ParameterError(f"ifft2 expects a k-space grid, got {g.domain!r}")
    return ComplexGrid.from_complex(ifft2c(g.z), "image")


# -- channel packing -----------------------------------------------------

def complex_to_channels(g):
    """ComplexGrid -> Tensor[2,H,W] with channel 0 = real, channel 1 = imaginary."""
    return Tensor(np.stack([g.re, g.im], axis=0))


def channels_to_complex_array(t):
    arr = t.data if isinstance(t, Tensor) else np.asarray(t)
    if arr.ndim < 3 or arr.shape[-3] != 2:
        raise DimensionError(f"expected [...,2,H,W], got {arr.shape}")
    re = np.take(arr, 0, axis=-3)
    im = np.take(arr, 1, axis=-3)
    return re + 1j * im


def complex_to_channels_array(z):
    return np.stack([z.real, z.imag], axis=-3)


def channels_to_grid(t, domain):
    z = channels_to_complex_array(t)
    if z.ndim != 2:
        raise DimensionError("channels_to_grid expects a single [2,H,W] tensor")
    return ComplexGrid.from_complex(z, domain)


# -- differentiable transforms ------------------------------------------

def _transform_channels(x, sign):
    """F_H @ (r + i*s) @ F_W on [...,2,H,W] channels as eight real GEMMs."""
    ah, bh = _dft_parts(x.shape[-2], sign, x.dtype)
    aw, bw = _dft_parts(x.shape[-1], sign, x.dtype)
    r, s = x[..., 0, :, :], x[..., 1, :, :]
    tr = r @ aw
    tr -= s @ bw
    ti = r @ bw
    ti += s @ aw
    out = np.empty(x.shape, x.dtype)
    out_r, out_i = out[..., 0, :, :], out[..., 1, :, :]
    np.matmul(ah, tr, out=out_r)
    out_r -= bh @ ti
    np.matmul(bh, tr, out=out_i)
    out_i += ah @ ti
    return out


def _transform_t(x, sign):
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if x.ndim < 3 or x.shape[-3] != 2:
        raise DimensionError(f"fft ops expect [...,2,H,W], got {x.shape}")

    node = ad._node_of(x)

    def backward(g, flow):
        ad._flow_add(flow, node, _transform_channels(g, -sign))

    return ad._make(_transform_channels(x.data, sign), (x,), backward)


def fft2_t(x):
    """Differentiable centered orthonormal FFT on a [...,2,H,W] channel tensor.

    The transform is unitary and symmetric, so the backward pass applies the
    inverse transform to the incoming gradient channels.
    """
    return _transform_t(x, -1)


def ifft2_t(x):
    return _transform_t(x, +1)


# -- trainable decomposed transform layer -------------------------------

def _axis_matrices(n):
    """Free real matrices initialized to the centered orthonormal inverse DFT."""
    re, im = _dft_parts(n, +1, np.float64)
    return re, -im, im, re


class DTLayer(Module):
    """k-space to image mapping: two learnable axis transforms with an
    interleaved transpose, then a small refinement head with a skip.

    The axis stage stores four real matrices per axis (real/imag mixing is
    unconstrained) initialized so that it reproduces the centered orthonormal
    inverse 2-d DFT exactly.  The refinement head is conv(2->hidden)+relu then
    a zero-initialized conv(hidden->2) added to the skip, so the whole layer
    equals the inverse FFT at init.  Optional guidance features enter through
    a separate zero-initialized bias-free convolution ahead of the skip.
    """

    def __init__(self, size, hidden=16, golf_channels=0, rng=None):
        super().__init__()
        if isinstance(size, int):
            size = (size, size)
        self.size = tuple(size)
        h, w = self.size
        rr, ri, ir, ii = _axis_matrices(h)
        self.m1_rr, self.m1_ri = Parameter(rr), Parameter(ri)
        self.m1_ir, self.m1_ii = Parameter(ir), Parameter(ii)
        rr, ri, ir, ii = _axis_matrices(w)
        self.m2_rr, self.m2_ri = Parameter(rr), Parameter(ri)
        self.m2_ir, self.m2_ii = Parameter(ir), Parameter(ii)
        if rng is None:
            rng = np.random.default_rng(0)
        self.refine1 = Conv2d(2, hidden, 3, padding=1, rng=rng, slope=0)
        self.refine2 = Conv2d(hidden, 2, 3, padding=1, zero_init=True)
        self.inject = None
        if golf_channels:
            self.inject = Conv2d(golf_channels, 2, 3, padding=1,
                                 zero_init=True, bias=False)

    def axis_transform(self, x):
        """[B,2,H,W] k-space channels -> [B,2,H,W] image channels."""
        if x.ndim != 4 or x.shape[1] != 2:
            raise DimensionError(f"axis_transform expects [B,2,H,W], got {x.shape}")
        if x.shape[2:] != self.size:
            raise DimensionError(f"grid {x.shape[2:]} != layer size {self.size}")
        kr, ki = x[:, 0], x[:, 1]
        r1 = ad.add(ad.matmul(self.m1_rr, kr), ad.matmul(self.m1_ri, ki))
        i1 = ad.add(ad.matmul(self.m1_ir, kr), ad.matmul(self.m1_ii, ki))
        r1t, i1t = ad.transpose(r1, (0, 2, 1)), ad.transpose(i1, (0, 2, 1))
        r2 = ad.add(ad.matmul(self.m2_rr, r1t), ad.matmul(self.m2_ri, i1t))
        i2 = ad.add(ad.matmul(self.m2_ir, r1t), ad.matmul(self.m2_ii, i1t))
        r2t, i2t = ad.transpose(r2, (0, 2, 1)), ad.transpose(i2, (0, 2, 1))
        b, h, w = r2t.shape
        return ad.concat([r2t.reshape(b, 1, h, w), i2t.reshape(b, 1, h, w)], axis=1)

    def forward(self, k, golf=None):
        d = self.axis_transform(k)
        out = self.refine2(self.refine1(d))
        if golf is not None:
            if self.inject is None:
                raise ParameterError("layer was built without guidance channels")
            out = ad.add(out, self.inject(golf))
        return ad.add(out, d)
