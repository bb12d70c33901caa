"""Every output check passes a correct output and rejects a corrupted one.

The data is made here with numpy alone, in the package's conventions:
centered orthonormal spectra, float32 storage, [2,H,W] channel pairs.
"""

import math
import sys
import unittest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402

N = 32


def centered_ifft2(z):
    axes = (-2, -1)
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(z, axes=axes),
                                        axes=axes, norm="ortho"), axes=axes)


def channels(z):
    return np.stack([z.real, z.imag], axis=-3)


class Fixture:
    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        self.mask = np.zeros((N, N), dtype=bool)
        self.mask[:, ::4] = True
        self.mask[:, N // 2 - 2:N // 2 + 2] = True
        self.target = rng.uniform(0.0, 1.0, (N, N))
        self.us_k = np.where(self.mask, checks.centered_fft2(self.target), 0.0)
        # any image whose spectrum is us_k on the mask keeps the measurement
        free = checks.centered_fft2(rng.standard_normal((N, N)))
        self.recon = centered_ifft2(np.where(self.mask, self.us_k, free))


class TestFft(unittest.TestCase):
    def test_centered_fft_is_unitary_and_centered(self):
        x = np.zeros((N, N))
        x[N // 2, N // 2] = 1.0     # a centered impulse has a flat spectrum
        np.testing.assert_allclose(checks.centered_fft2(x), np.full((N, N), 1.0 / N))
        z = np.random.default_rng(1).standard_normal((N, N))
        np.testing.assert_allclose(centered_ifft2(checks.centered_fft2(z)), z, atol=1e-12)


class TestStoredSpectra(unittest.TestCase):
    def setUp(self):
        self.f = Fixture()
        self.stored = channels(self.f.us_k).astype(np.float32)

    def test_single_accepts_float32_storage(self):
        self.assertIsNone(checks.stored_spectrum(self.f.target.astype(np.float32),
                                                 self.stored, self.f.mask))

    def test_single_rejects_changed_sample(self):
        bad = self.stored.copy()
        i, j = np.argwhere(self.f.mask)[5]
        bad[0, i, j] += 1e-3
        self.assertIsNotNone(checks.stored_spectrum(self.f.target, bad, self.f.mask))

    def test_single_rejects_energy_off_mask(self):
        bad = self.stored.copy()
        i, j = np.argwhere(~self.f.mask)[0]
        bad[1, i, j] = 1e-9
        self.assertIsNotNone(checks.stored_spectrum(self.f.target, bad, self.f.mask))

    def coils(self):
        rng = np.random.default_rng(2)
        maps = rng.standard_normal((3, N, N)) + 1j * rng.standard_normal((3, N, N))
        maps /= np.sqrt(np.sum(np.abs(maps) ** 2, axis=0))
        target = channels(self.f.target.astype(complex))
        coil_k = np.stack([np.where(self.f.mask, checks.centered_fft2(m * self.f.target), 0)
                           for m in maps])
        return (target.astype(np.float32), channels(coil_k).astype(np.float32),
                channels(maps).astype(np.float32))

    def test_multi_accepts_float32_storage(self):
        target, coil_k, sens = self.coils()
        self.assertIsNone(checks.stored_coil_spectra(target, coil_k, sens, self.f.mask))

    def test_multi_rejects_one_changed_coil(self):
        target, coil_k, sens = self.coils()
        i, j = np.argwhere(self.f.mask)[7]
        coil_k[2, 0, i, j] *= 1.01
        self.assertIsNotNone(checks.stored_coil_spectra(target, coil_k, sens, self.f.mask))

    def test_multi_rejects_swapped_coil_maps(self):
        target, coil_k, sens = self.coils()
        self.assertIsNotNone(checks.stored_coil_spectra(target, coil_k, sens[::-1].copy(),
                                                        self.f.mask))


class TestConsistency(unittest.TestCase):
    def setUp(self):
        self.f = Fixture()

    def test_accepts_measurement_keeping_image(self):
        self.assertIsNone(checks.measured_kept(self.f.recon, self.f.us_k, self.f.mask))

    def test_rejects_image_that_drifted(self):
        bad = self.f.recon + 1e-6
        self.assertIsNotNone(checks.measured_kept(bad, self.f.us_k, self.f.mask))

    def test_rejects_nan(self):
        bad = self.f.recon.copy()
        bad[0, 0] = np.nan
        self.assertIsNotNone(checks.measured_kept(bad, self.f.us_k, self.f.mask))

    def test_coil_images(self):
        f, g = self.f, Fixture(seed=3)
        y = np.stack([f.us_k, g.us_k])
        images = [f.recon, centered_ifft2(np.where(f.mask, g.us_k, 0.5))]
        self.assertIsNone(checks.coil_images_kept(images, y, f.mask))
        self.assertIsNotNone(checks.coil_images_kept([f.recon, f.recon], y, f.mask))
        self.assertIsNotNone(checks.coil_images_kept(images[:1], y, f.mask))


class TestFinite(unittest.TestCase):
    def test_finite_passes_and_nan_or_inf_fails(self):
        a = Fixture().recon
        self.assertIsNone(checks.finite(a))
        for bad_value in (np.nan, np.inf, complex(0, -np.inf)):
            b = a.copy()
            b[4, 5] = bad_value
            self.assertIsNotNone(checks.finite(b))


class TestBitExact(unittest.TestCase):
    def test_identical_passes_and_one_ulp_fails(self):
        a = Fixture().recon
        self.assertIsNone(checks.bit_exact(a, a.copy()))
        b = a.copy()
        b.real[3, 3] = np.nextafter(b.real[3, 3], np.inf)
        self.assertIsNotNone(checks.bit_exact(a, b))
        self.assertIsNotNone(checks.bit_exact(a, a.astype(np.complex64)))


class TestTraining(unittest.TestCase):
    def test_val_improved(self):
        self.assertIsNone(checks.val_improved(0.001, 0.002))
        self.assertIsNotNone(checks.val_improved(0.002, 0.002))
        self.assertIsNotNone(checks.val_improved(0.003, 0.002))
        self.assertIsNotNone(checks.val_improved(math.nan, 0.002))


class TestMetrics(unittest.TestCase):
    def setUp(self):
        rng = np.random.default_rng(4)
        self.ref = rng.uniform(0, 1, (N, N))
        self.x = self.ref + 0.05 * rng.standard_normal((N, N))

    def test_psnr_closed_form(self):
        mse = np.mean((self.x - self.ref) ** 2)
        value = 10.0 * np.log10(1.0 / mse)
        self.assertIsNone(checks.psnr_closed_form(value, self.x, self.ref, 1.0))
        self.assertIsNotNone(checks.psnr_closed_form(value + 1e-6, self.x, self.ref, 1.0))
        # data range enters squared: a wrong range is caught
        self.assertIsNotNone(checks.psnr_closed_form(value, self.x, self.ref, 2.0))

    def test_psnr_cap_for_identical_pair(self):
        self.assertIsNone(checks.psnr_closed_form(99.0, self.ref, self.ref, 1.0))
        self.assertIsNotNone(checks.psnr_closed_form(98.0, self.ref, self.ref, 1.0))

    def test_identity_scores(self):
        self.assertIsNone(checks.identity_scores(1.0, 1.0))
        self.assertIsNotNone(checks.identity_scores(0.999, 1.0))
        self.assertIsNotNone(checks.identity_scores(1.0, 0.98))

    def test_ssim_symmetric(self):
        self.assertIsNone(checks.ssim_symmetric(0.8125, 0.8125))
        self.assertIsNotNone(checks.ssim_symmetric(0.8125, 0.8126))

    def test_mean_matches(self):
        values = [21.0, 22.5, 30.25]
        self.assertIsNone(checks.mean_matches(float(np.mean(values)), values))
        self.assertIsNotNone(checks.mean_matches(float(np.mean(values[:2])), values))


if __name__ == "__main__":
    unittest.main()
