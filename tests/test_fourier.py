"""Fourier kernel vs numpy.fft oracle, unitarity properties, and the
decomposed transform layer's init-time equivalence to the inverse FFT."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dualrec
from dualrec import autodiff as ad
from dualrec import fourier as fo
from dualrec.autodiff import Tensor
from dualrec.errors import DimensionError, ParameterError

SEEDS = list(range(20))
# square grids keep the bare length as their id
GRIDS = [pytest.param((h, w), id=str(h) if h == w else f"{h}x{w}")
         for h, w in ((16, 16), (32, 32), (64, 64), (12, 12), (13, 13),
                      (12, 16), (13, 8), (64, 32))]


def centered_ortho_fft2_oracle(z, sign=-1):
    """Independent reference: numpy.fft with explicit shifts, ortho norm."""
    if sign == -1:
        return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(z, axes=(-2, -1)),
                                           norm="ortho"), axes=(-2, -1))
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(z, axes=(-2, -1)),
                                        norm="ortho"), axes=(-2, -1))


class TestKernel:
    @pytest.mark.parametrize("seed", SEEDS[:8])
    @pytest.mark.parametrize("hw", GRIDS)
    def test_fft2c_matches_numpy_oracle(self, seed, hw):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=hw) + 1j * rng.normal(size=hw)
        assert np.max(np.abs(fo.fft2c(z) - centered_ortho_fft2_oracle(z))) < 1e-10
        assert np.max(np.abs(fo.ifft2c(z) - centered_ortho_fft2_oracle(z, +1))) < 1e-10

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_batched_matches_per_slice(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(3, 2, 16, 16)) + 1j * rng.normal(size=(3, 2, 16, 16))
        out = fo.fft2c(z)
        for i in range(3):
            for j in range(2):
                assert np.max(np.abs(out[i, j] - fo.fft2c(z[i, j]))) < 1e-12

    @pytest.mark.parametrize("seed", SEEDS)
    def test_round_trip_and_parseval(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        k = fo.fft2c(z)
        assert np.max(np.abs(fo.ifft2c(k) - z)) < 1e-12
        assert abs(np.linalg.norm(k) - np.linalg.norm(z)) < 1e-10

    def test_center_delta_gives_flat_spectrum(self):
        z = np.zeros((16, 16), dtype=complex)
        z[8, 8] = 1.0
        k = fo.fft2c(z)
        assert np.max(np.abs(k - 1.0 / 16.0)) < 1e-12

    def test_dft_matrix_symmetric_unitary(self):
        w = fo.dft_matrix(32, -1)
        assert np.max(np.abs(w - w.T)) < 1e-14
        assert np.max(np.abs(w @ w.conj().T - np.eye(32))) < 1e-12

    def test_shared_matrix_survives_training(self):
        # every caller gets the same cached array, so it must refuse writes;
        # DTLayer parameters start from it and Adam updates them in place
        with pytest.raises(ValueError):
            fo.dft_matrix(16, -1)[0, 0] = 0.0
        layer = fo.DTLayer(16, hidden=4, rng=np.random.default_rng(0))
        before = layer.m1_rr.data.copy()
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(1, 2, 16, 16)))
        ad.mean_all(ad.square(layer(x))).backward()
        ad.Adam(layer.parameters(), lr=1e-2).step()
        assert not np.array_equal(layer.m1_rr.data, before)
        z = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        assert np.max(np.abs(fo.fft2c(z) - centered_ortho_fft2_oracle(z))) < 1e-10
        assert np.max(np.abs(fo.ifft2c(z) - centered_ortho_fft2_oracle(z, +1))) < 1e-10

    def test_package_never_uses_numpy_fft(self):
        pattern = re.compile(r"\bnp\.fft\b|\bnumpy\.fft\b|from\s+numpy\s+import\s+.*\bfft\b")
        root = Path(dualrec.__file__).parent
        hits = [f"{path.name}:{no}" for path in sorted(root.rglob("*.py"))
                for no, line in enumerate(path.read_text().splitlines(), 1)
                if pattern.search(line)]
        assert not hits, hits


class TestComplexGrid:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        g = fo.ComplexGrid(rng.normal(size=(8, 8)), rng.normal(size=(8, 8)), "image")
        t = fo.complex_to_channels(g)
        assert t.shape == (2, 8, 8)
        back = fo.channels_to_grid(t, "image")
        assert np.array_equal(back.re, g.re) and np.array_equal(back.im, g.im)

    def test_domain_tags_enforced(self):
        g = fo.ComplexGrid.from_real(np.zeros((8, 8)), "image")
        k = fo.fft2(g)
        assert k.domain == "kspace"
        with pytest.raises(ParameterError):
            fo.fft2(k)
        with pytest.raises(ParameterError):
            fo.ifft2(g)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            fo.ComplexGrid(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_magnitude(self):
        g = fo.ComplexGrid(np.full((2, 2), 3.0), np.full((2, 2), 4.0))
        assert np.allclose(g.magnitude(), 5.0)


class TestDifferentiableTransforms:
    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_forward_matches_kernel(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 2, 16, 16))
        out = fo.fft2_t(Tensor(x))
        z = x[:, 0] + 1j * x[:, 1]
        want = fo.fft2c(z)
        assert np.max(np.abs(out.data[:, 0] - want.real)) < 1e-12
        assert np.max(np.abs(out.data[:, 1] - want.imag)) < 1e-12

    @pytest.mark.parametrize("seed", SEEDS[:6])
    @pytest.mark.parametrize("op", [fo.fft2_t, fo.ifft2_t])
    def test_gradients(self, seed, op):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(1, 2, 8, 8)), requires_grad=True)
        target = rng.normal(size=(1, 2, 8, 8))

        def loss():
            return ad.mean_all(ad.square(ad.sub(op(x), Tensor(target))))

        report = ad.grad_check(loss, {"x": x}, tolerance=1e-5)
        assert report.passed, report

    @pytest.mark.parametrize("hw", GRIDS)
    @pytest.mark.parametrize("op,sign", [(fo.fft2_t, -1), (fo.ifft2_t, +1)],
                             ids=["fft2_t", "ifft2_t"])
    def test_float32_matches_numpy_oracle(self, hw, op, sign):
        # float32 channels are transformed in float32, to float32 accuracy
        rng = np.random.default_rng(sum(hw))
        x = rng.normal(size=(3, 2) + hw).astype(np.float32)
        out = op(Tensor(x)).data
        assert out.dtype == np.float32
        want = centered_ortho_fft2_oracle(x[:, 0].astype(np.float64) + 1j * x[:, 1], sign)
        assert np.max(np.abs(out[:, 0] - want.real)) < 1e-5
        assert np.max(np.abs(out[:, 1] - want.imag)) < 1e-5

    def test_inverse_composition_is_identity(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 2, 32, 32)))
        out = fo.ifft2_t(fo.fft2_t(x))
        assert np.max(np.abs(out.data - x.data)) < 1e-12

    @given(st.integers(1, 3), st.integers(2, 33), st.integers(2, 33),
           st.integers(0, 2 ** 32 - 1))
    def test_unitary_on_any_grid(self, b, h, w, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(2, b, 2, h, w))
        fx = fo.fft2_t(Tensor(x)).data
        assert np.max(np.abs(fo.ifft2_t(Tensor(fx)).data - x)) < 1e-12
        nx = np.linalg.norm(x)
        assert abs(np.linalg.norm(fx) - nx) < 1e-12 * nx
        # <F x, y> == <x, F^-1 y> in the real 2-channel inner product
        lhs, rhs = np.sum(fx * y), np.sum(x * fo.ifft2_t(Tensor(y)).data)
        assert abs(lhs - rhs) < 1e-12 * nx * np.linalg.norm(y)


class TestDTLayer:
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_init_equals_centered_ifft(self, n):
        rng = np.random.default_rng(0)
        layer = fo.DTLayer(n, rng=np.random.default_rng(5))
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q = Tensor(np.stack([z.real, z.imag], axis=0)[None])
        out = layer(q)
        want = fo.ifft2c(z)
        err = max(np.max(np.abs(out.data[0, 0] - want.real)),
                  np.max(np.abs(out.data[0, 1] - want.imag)))
        assert err < 1e-5

    def test_axis_transform_alone_equals_ifft(self):
        n = 16
        layer = fo.DTLayer(n, rng=np.random.default_rng(5))
        rng = np.random.default_rng(2)
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        x = Tensor(np.stack([z.real, z.imag], axis=0).reshape(1, 2, n, n))
        out = layer.axis_transform(x)
        want = fo.ifft2c(z)
        assert np.max(np.abs(out.data[0, 0] - want.real)) < 1e-10
        assert np.max(np.abs(out.data[0, 1] - want.imag)) < 1e-10

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_gradients_through_layer(self, seed):
        n = 8
        layer = fo.DTLayer(n, hidden=4, rng=np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 100)
        x = Tensor(rng.normal(size=(1, 2, n, n)), requires_grad=True)
        params = {"x": x, "m1_rr": layer.m1_rr, "m2_ri": layer.m2_ri,
                  "w1": layer.refine1.w, "w2": layer.refine2.w}

        def loss():
            return ad.mean_all(ad.square(layer(x)))

        report = ad.grad_check(loss, params, tolerance=1e-4)
        assert report.passed, report

    def test_wrong_grid_size_rejected(self):
        layer = fo.DTLayer(16, rng=np.random.default_rng(0))
        with pytest.raises(DimensionError):
            layer(Tensor(np.zeros((1, 2, 8, 8))))
