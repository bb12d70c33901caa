"""Checks of the program's outputs, computed apart from the program.

Each check returns None when the output passes and a one-line reason when
it does not.  The transforms here use ``numpy.fft``, which the package never
uses, so a fault in the package's own FFT cannot hide itself.  The centered
orthonormal convention is the package's: ``fftshift(fft2(ifftshift(z)))``
with ``norm="ortho"`` over the last two axes.
"""

import math

import numpy as np

# the documented tolerance of ``dualrec reconstruct --check``
CONSISTENCY_TOL = 1e-8
# stored spectra are float32: rounding is about 6e-8 of the largest value
STORED_TOL = 1e-6
PSNR_CAP_DB = 99.0


def centered_fft2(z):
    axes = (-2, -1)
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(z, axes=axes),
                                       axes=axes, norm="ortho"), axes=axes)


def _complex(channels):
    arr = np.asarray(channels, dtype=np.float64)
    return arr[..., 0, :, :] + 1j * arr[..., 1, :, :]


def _scaled_err(got, want):
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale


def stored_spectrum(target, us_kspace, mask_bits, tol=STORED_TOL):
    """Single coil: the stored undersampled spectrum [2,H,W] equals the
    target's spectrum on the mask and is exactly zero off it."""
    target = np.asarray(target, dtype=np.float64)
    want = np.where(mask_bits, centered_fft2(target), 0.0)
    got = _complex(us_kspace)
    if np.any(got[~mask_bits] != 0):
        return "stored spectrum has energy off the mask"
    err = _scaled_err(got, want)
    if err > tol:
        return f"stored spectrum differs from fft(target) on the mask by {err:.3g}"
    return None


def stored_coil_spectra(target, coil_kspace, sens, mask_bits, tol=STORED_TOL):
    """Multi coil: coil i's stored spectrum [n_c,2,H,W] equals
    fft(S_i * target) on the mask and is exactly zero off it."""
    image = _complex(target) if np.ndim(target) == 3 else np.asarray(target, np.float64)
    maps = _complex(sens)
    got = _complex(coil_kspace)
    if got.shape != maps.shape:
        return f"{got.shape[0]} coil spectra for {maps.shape[0]} coil maps"
    for i in range(maps.shape[0]):
        if np.any(got[i][~mask_bits] != 0):
            return f"coil {i} spectrum has energy off the mask"
        want = np.where(mask_bits, centered_fft2(maps[i] * image), 0.0)
        err = _scaled_err(got[i], want)
        if err > tol:
            return f"coil {i} spectrum differs from fft(S_i x) on the mask by {err:.3g}"
    return None


def measured_kept(recon, us_k, mask_bits, tol=CONSISTENCY_TOL):
    """A reconstruction [H,W] keeps the measured spectrum on the mask."""
    err = float(np.max(np.abs(centered_fft2(recon)[mask_bits] - us_k[mask_bits])))
    if not err <= tol:
        return f"reconstruction leaves the measured spectrum by {err:.3g}"
    return None


def coil_images_kept(coil_images, y, mask_bits, tol=CONSISTENCY_TOL):
    """With lam = inf, each last-cascade coil image's spectrum equals that
    coil's measurement y_i on the mask."""
    if len(coil_images) != len(y):
        return f"{len(coil_images)} coil images for {len(y)} coil spectra"
    for i, (img, y_i) in enumerate(zip(coil_images, y)):
        err = float(np.max(np.abs(centered_fft2(img)[mask_bits] - y_i[mask_bits])))
        if not err <= tol:
            return f"coil {i} image leaves its measurement by {err:.3g}"
    return None


def finite(a):
    """Every entry of an output is a finite number."""
    bad = int(np.sum(~np.isfinite(np.asarray(a))))
    if bad:
        return f"{bad} entries are not finite"
    return None


def bit_exact(a, b):
    """Two outputs of the same computation are identical, bit for bit."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return f"outputs differ in form: {a.shape} {a.dtype} vs {b.shape} {b.dtype}"
    if not np.array_equal(a, b):
        return f"outputs differ at {int(np.sum(a != b))} entries"
    return None


def val_improved(best_val_loss, init_val_loss):
    """Training lowered the validation loss below its value at init."""
    if not (math.isfinite(best_val_loss) and best_val_loss < init_val_loss):
        return f"best val loss {best_val_loss!r} is not below init {init_val_loss!r}"
    return None


def psnr_closed_form(value, x, ref, data_range, rtol=1e-12):
    """PSNR equals 10 log10(range^2 / MSE), capped at 99 dB."""
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    mse = float(np.mean((x - ref) ** 2))
    want = PSNR_CAP_DB if mse == 0.0 else min(
        10.0 * math.log10(data_range * data_range / mse), PSNR_CAP_DB)
    if not abs(value - want) <= rtol * abs(want):
        return f"psnr {value!r} != closed form {want!r}"
    return None


def identity_scores(ssim_xx, vif_xx, tol=1e-12):
    """SSIM(x, x) = VIF(x, x) = 1."""
    if not (abs(ssim_xx - 1.0) <= tol and abs(vif_xx - 1.0) <= tol):
        return f"ssim(x,x)={ssim_xx!r}, vif(x,x)={vif_xx!r}, want 1"
    return None


def ssim_symmetric(ssim_ab, ssim_ba, tol=1e-12):
    """SSIM(a, b) = SSIM(b, a) at a fixed data range."""
    if not abs(ssim_ab - ssim_ba) <= tol:
        return f"ssim not symmetric: {ssim_ab!r} vs {ssim_ba!r}"
    return None


def mean_matches(reported, values, rtol=1e-12):
    """A mean the program reports equals the mean of the values it scored."""
    want = float(np.mean(values))
    if not abs(reported - want) <= rtol * max(1.0, abs(want)):
        return f"reported mean {reported!r} != rescored mean {want!r}"
    return None
