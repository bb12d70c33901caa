"""Data-consistency operators vs per-frequency / per-pixel least-squares
oracles, spectrum-preservation invariants, and graph-version parity."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import held_bytes, oracle_fft2, oracle_ifft2, random_complex
from dualrec import autodiff as ad
from dualrec import fidelity as fid
from dualrec import masks as mk
from dualrec.autodiff import Tensor
from dualrec.errors import DimensionError, ParameterError
from dualrec.fourier import ComplexGrid, fft2c

SEEDS = list(range(20))


def _mask(h, w, seed, density=0.4):
    rng = np.random.default_rng(seed)
    bits = rng.random((h, w)) < density
    bits[h // 2, w // 2] = True
    return mk.SamplingMask(bits, 2.0, "cartesian")


def _grid(rng, h, w, domain="image"):
    return ComplexGrid(rng.normal(size=(h, w)), rng.normal(size=(h, w)), domain)


def _sens(rng, n_c, h, w, normalized=True):
    raw = [random_complex(rng, (h, w)) + 2.0 for _ in range(n_c)]
    if normalized:
        norm = np.sqrt(sum(np.abs(s) ** 2 for s in raw))
        raw = [s / norm for s in raw]
    return fid.SensitivitySet([ComplexGrid.from_complex(s, "image") for s in raw],
                              normalized=normalized)


class TestDfSingle:
    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_full_mask_infinite_lam_replaces_everything(self, seed):
        rng = np.random.default_rng(seed)
        m_cnn = _grid(rng, 16, 16)
        y = _grid(rng, 16, 16, "kspace")
        full = mk.SamplingMask(np.ones((16, 16), dtype=bool), 2.0, "cartesian")
        out = fid.df_single(m_cnn, y, full, math.inf)
        want = oracle_ifft2(y.z)
        assert np.max(np.abs(out.z - want)) < 1e-10

    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_lam_one_midpoint_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        m_cnn = _grid(rng, 16, 16)
        y = _grid(rng, 16, 16, "kspace")
        mask = _mask(16, 16, seed)
        out = fid.df_single(m_cnn, y, mask, lam=1.0)
        spec = fft2c(out.z)
        cnn_spec = oracle_fft2(m_cnn.z)
        mid = 0.5 * (cnn_spec + y.z)
        assert np.max(np.abs(spec[mask.bits] - mid[mask.bits])) < 1e-10
        assert np.max(np.abs(spec[~mask.bits] - cnn_spec[~mask.bits])) < 1e-10

    @pytest.mark.parametrize("seed", SEEDS)
    def test_omega_consistency_and_idempotence(self, seed):
        rng = np.random.default_rng(seed)
        m_cnn = _grid(rng, 16, 16)
        y = _grid(rng, 16, 16, "kspace")
        mask = _mask(16, 16, seed)
        once = fid.df_single(m_cnn, y, mask)
        assert np.max(np.abs(fft2c(once.z)[mask.bits] - y.z[mask.bits])) < 1e-10
        twice = fid.df_single(once, y, mask)
        assert np.max(np.abs(twice.z - once.z)) < 1e-10

    def test_linearity_in_image_and_data(self):
        rng = np.random.default_rng(0)
        mask = _mask(16, 16, 1)
        a, b = 1.7, -0.6
        m1, m2 = _grid(rng, 16, 16), _grid(rng, 16, 16)
        y1, y2 = _grid(rng, 16, 16, "kspace"), _grid(rng, 16, 16, "kspace")
        comb_m = ComplexGrid.from_complex(a * m1.z + b * m2.z, "image")
        comb_y = ComplexGrid.from_complex(a * y1.z + b * y2.z, "kspace")
        lhs = fid.df_single(comb_m, comb_y, mask, lam=2.0).z
        rhs = a * fid.df_single(m1, y1, mask, lam=2.0).z \
            + b * fid.df_single(m2, y2, mask, lam=2.0).z
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_bad_lambda_rejected(self):
        rng = np.random.default_rng(0)
        g, y = _grid(rng, 8, 8), _grid(rng, 8, 8, "kspace")
        with pytest.raises(ParameterError):
            fid.df_single(g, y, _mask(8, 8, 0), lam=0.0)
        with pytest.raises(ParameterError):
            fid.df_single(g, y, _mask(8, 8, 0), lam=-1.0)

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DimensionError):
            fid.df_single(_grid(rng, 8, 8), _grid(rng, 16, 16, "kspace"), _mask(8, 8, 0))


class TestVsXUpdate:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_per_frequency_scalar_solver(self, seed):
        rng = np.random.default_rng(seed)
        h = w = 8
        sens = _sens(rng, 2, h, w)
        m = _grid(rng, h, w)
        mask = _mask(h, w, seed)
        y = [_grid(rng, h, w, "kspace") for _ in range(2)]
        lam, alpha = 3.0, 0.7
        out = fid.vs_x_update(m, sens, mask, y, lam, alpha)
        for i in range(2):
            v = oracle_fft2(sens.maps[i].z * m.z)
            want = np.empty((h, w), dtype=complex)
            for r in range(h):
                for c in range(w):
                    d = 1.0 if mask.bits[r, c] else 0.0
                    want[r, c] = (alpha * v[r, c] + lam * d * y[i].z[r, c]) / (lam * d + alpha)
            got = fft2c(out[i].z)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_identity_when_nothing_sampled(self):
        rng = np.random.default_rng(1)
        ones = fid.SensitivitySet([ComplexGrid.from_real(np.ones((8, 8)))], normalized=True)
        m = _grid(rng, 8, 8)
        mask = mk.SamplingMask(np.zeros((8, 8), dtype=bool) | _dc(8, 8), 2.0, "cartesian")
        mask.bits[:] = False  # truly empty for this algebraic check
        out = fid.vs_x_update(m, ones, mask, [_grid(rng, 8, 8, "kspace")], 2.0, 1.0)
        assert np.max(np.abs(out[0].z - m.z)) < 1e-10

    def test_equal_weights_full_mask_midpoint(self):
        rng = np.random.default_rng(2)
        ones = fid.SensitivitySet([ComplexGrid.from_real(np.ones((8, 8)))], normalized=True)
        m = _grid(rng, 8, 8)
        y = _grid(rng, 8, 8, "kspace")
        full = mk.SamplingMask(np.ones((8, 8), dtype=bool), 2.0, "cartesian")
        out = fid.vs_x_update(m, ones, full, [y], 1.5, 1.5)
        mid = 0.5 * (oracle_fft2(m.z) + y.z)
        assert np.max(np.abs(fft2c(out[0].z) - mid)) < 1e-10

    def test_coil_count_mismatch(self):
        rng = np.random.default_rng(0)
        sens = _sens(rng, 2, 8, 8)
        with pytest.raises(DimensionError):
            fid.vs_x_update(_grid(rng, 8, 8), sens, _mask(8, 8, 0),
                            [_grid(rng, 8, 8, "kspace")], 1.0, 1.0)


def _dc(h, w):
    bits = np.zeros((h, w), dtype=bool)
    bits[h // 2, w // 2] = True
    return bits


class TestWab:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_elementwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        sens = _sens(rng, 2, 8, 8)
        u = _grid(rng, 8, 8)
        x = [_grid(rng, 8, 8) for _ in range(2)]
        alpha, beta = 0.9, 1.4
        out = fid.wab(u, x, sens, alpha, beta)
        for r in range(8):
            for c in range(8):
                den = beta + alpha * sum(abs(s.z[r, c]) ** 2 for s in sens.maps)
                num = beta * u.z[r, c] + alpha * sum(
                    np.conj(s.z[r, c]) * xi.z[r, c] for s, xi in zip(sens.maps, x))
                assert abs(out.z[r, c] - num / den) < 1e-10

    def test_single_coil_midpoint(self):
        rng = np.random.default_rng(3)
        ones = fid.SensitivitySet([ComplexGrid.from_real(np.ones((8, 8)))], normalized=True)
        u, x = _grid(rng, 8, 8), _grid(rng, 8, 8)
        out = fid.wab(u, [x], ones, 2.0, 2.0)
        assert np.max(np.abs(out.z - 0.5 * (u.z + x.z))) < 1e-12

    @pytest.mark.parametrize("alpha,beta", [(0.3, 2.0), (5.0, 0.1)])
    def test_consensus_fixed_point(self, alpha, beta):
        rng = np.random.default_rng(4)
        sens = _sens(rng, 3, 8, 8)
        u = _grid(rng, 8, 8)
        out = fid.wab(u, [u, u, u], sens, alpha, beta)
        # with x_i == u... the WAB fixed point needs S^H S weighting: only
        # exact when x_i = S_i u; use that form
        x = [ComplexGrid.from_complex(s.z * u.z, "image") for s in sens.maps]
        out = fid.wab(u, x, sens, alpha, beta)
        assert np.max(np.abs(out.z - u.z)) < 1e-10

    def test_zero_denominator_rejected(self):
        zero = fid.SensitivitySet([ComplexGrid.from_real(np.zeros((4, 4)))])
        u = ComplexGrid.from_real(np.ones((4, 4)))
        with pytest.raises(ParameterError):
            fid.wab(u, [u], zero, alpha=1.0, beta=0.0)


class TestSensOps:
    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_combine_inverts_forward_model_when_fully_sampled(self, seed):
        rng = np.random.default_rng(seed)
        sens = _sens(rng, 3, 16, 16)
        m = _grid(rng, 16, 16)
        y = [ComplexGrid.from_complex(oracle_fft2(s.z * m.z), "kspace") for s in sens.maps]
        full = mk.SamplingMask(np.ones((16, 16), dtype=bool), 2.0, "cartesian")
        out = fid.sens_combine(y, sens, full)
        assert np.max(np.abs(out.z - m.z)) < 1e-10

    def test_two_constant_coils(self):
        rng = np.random.default_rng(5)
        m = _grid(rng, 8, 8)
        s = ComplexGrid.from_real(np.full((8, 8), 1.0 / np.sqrt(2.0)))
        sens = fid.SensitivitySet([s, s], normalized=True)
        y = [ComplexGrid.from_complex(oracle_fft2(m.z / np.sqrt(2.0)), "kspace")] * 2
        full = mk.SamplingMask(np.ones((8, 8), dtype=bool), 2.0, "cartesian")
        out = fid.sens_combine(y, sens, full)
        assert np.max(np.abs(out.z - m.z)) < 1e-10

    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_combine_matches_composition_oracle(self, seed):
        rng = np.random.default_rng(seed)
        sens = _sens(rng, 2, 8, 8, normalized=False)
        mask = _mask(8, 8, seed)
        y = [_grid(rng, 8, 8, "kspace") for _ in range(2)]
        out = fid.sens_combine(y, sens, mask)
        want = np.zeros((8, 8), dtype=complex)
        for s_i, y_i in zip(sens.maps, y):
            want += np.conj(s_i.z) * oracle_ifft2(np.where(mask.bits, y_i.z, 0.0))
        assert np.max(np.abs(out.z - want)) < 1e-10

    def test_expand_identity_and_round_trip(self):
        rng = np.random.default_rng(6)
        m = _grid(rng, 8, 8)
        ones = fid.SensitivitySet([ComplexGrid.from_real(np.ones((8, 8)))], normalized=True)
        assert np.max(np.abs(fid.sens_expand(m, ones)[0].z - m.z)) < 1e-14
        sens = _sens(rng, 3, 8, 8)
        coil_imgs = fid.sens_expand(m, sens)
        y = [ComplexGrid.from_complex(oracle_fft2(ci.z), "kspace") for ci in coil_imgs]
        full = mk.SamplingMask(np.ones((8, 8), dtype=bool), 2.0, "cartesian")
        back = fid.sens_combine(y, sens, full)
        assert np.max(np.abs(back.z - m.z)) < 1e-10


class TestWeights:
    def test_positivity_enforced(self):
        w = fid.FidelityWeights(alpha=2.0, beta=0.5)
        assert abs(w.alpha - 2.0) < 1e-12 and abs(w.beta - 0.5) < 1e-12
        w.log_alpha.data -= 100.0  # still positive after any real-valued update
        assert w.alpha > 0
        with pytest.raises(ParameterError):
            fid.FidelityWeights(alpha=-1.0)
        with pytest.raises(ParameterError):
            fid.FidelityWeights(lam=0.0)

    @pytest.mark.parametrize("kw", [{"alpha": math.nan}, {"alpha": math.inf},
                                    {"beta": math.nan}, {"beta": math.inf}], ids=str)
    def test_non_finite_weights_rejected(self, kw):
        with pytest.raises(ParameterError, match="finite"):
            fid.FidelityWeights(**kw)


class TestGraphVersions:
    @pytest.mark.parametrize("lam", [math.inf, 2.0])
    def test_df_single_t_matches_pure(self, lam):
        rng = np.random.default_rng(7)
        mask = _mask(16, 16, 3)
        imgs = [_grid(rng, 16, 16) for _ in range(2)]
        ys = [_grid(rng, 16, 16, "kspace") for _ in range(2)]
        batch = Tensor(np.stack([np.stack([g.re, g.im]) for g in imgs]))
        us_k = np.stack([y.z for y in ys])
        out = fid.df_single_t(batch, us_k, mask, lam)
        for i in range(2):
            want = fid.df_single(imgs[i], ys[i], mask, lam)
            assert np.max(np.abs(out.data[i, 0] - want.re)) < 1e-12
            assert np.max(np.abs(out.data[i, 1] - want.im)) < 1e-12

    @given(st.integers(1, 3), st.integers(2, 17), st.integers(2, 17),
           st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
    def test_df_single_t_idempotent_at_infinite_lam(self, b, h, w, density, seed):
        # hard replacement twice is hard replacement once, for any mask
        rng = np.random.default_rng(seed)
        mask = mk.SamplingMask(rng.random((h, w)) < density, 2.0, "cartesian")
        x = Tensor(rng.normal(size=(b, 2, h, w)))
        us_k = rng.normal(size=(b, h, w)) + 1j * rng.normal(size=(b, h, w))
        once = fid.df_single_t(x, us_k, mask)
        twice = fid.df_single_t(once, us_k, mask)
        scale = max(1.0, np.abs(once.data).max())
        assert np.max(np.abs(twice.data - once.data)) < 1e-12 * scale

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 17),
           st.integers(2, 17), st.floats(0.0, 1.0), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    def test_vs_x_update_t_keeps_measurements_at_infinite_lam(
            self, b, n_c, h, w, density, shared, seed):
        # every coil image's spectrum is y on the mask and F(S_i m) off it,
        # for maps shared by the batch and for per-sample maps
        rng = np.random.default_rng(seed)
        mask = mk.SamplingMask(rng.random((h, w)) < density, 2.0, "cartesian")
        m = rng.normal(size=(b, 2, h, w))
        s_shape = (n_c, h, w) if shared else (b, n_c, h, w)
        s = rng.normal(size=s_shape) + 1j * rng.normal(size=s_shape)
        y = rng.normal(size=(b, n_c, h, w)) + 1j * rng.normal(size=(b, n_c, h, w))
        x = fid.vs_x_update_t(Tensor(m), s, mask, y, math.inf, Tensor(np.asarray(1.0)))
        assert x.shape == (b, n_c, 2, h, w)
        got = fft2c(x.data[:, :, 0] + 1j * x.data[:, :, 1])
        want = np.where(mask.bits, y, fft2c(s * (m[:, 0] + 1j * m[:, 1])[:, None]))
        scale = max(1.0, np.abs(want).max())
        assert np.max(np.abs(got - want)) < 1e-12 * scale

    def test_vs_x_update_t_and_wab_t_match_pure(self):
        """Two samples, each with its own coil maps and spectra: every coil
        of every sample agrees with the pure operators, for soft and hard DF."""
        for lam in (4.0, math.inf):
            self._check_against_pure(lam)

    def _check_against_pure(self, lam):
        rng = np.random.default_rng(8)
        n_c, alpha, beta = 3, 0.8, 1.3
        mask = _mask(8, 8, 2)
        sens = [_sens(rng, n_c, 8, 8) for _ in range(2)]
        ms = [_grid(rng, 8, 8) for _ in range(2)]
        us = [_grid(rng, 8, 8) for _ in range(2)]
        ys = [[_grid(rng, 8, 8, "kspace") for _ in range(n_c)] for _ in range(2)]
        m_t = Tensor(np.stack([np.stack([g.re, g.im]) for g in ms]))
        u_t = Tensor(np.stack([np.stack([g.re, g.im]) for g in us]))
        s = np.stack([ss.stacked() for ss in sens])
        y = np.stack([np.stack([g.z for g in row]) for row in ys])
        alpha_t = Tensor(np.asarray(alpha))
        beta_t = Tensor(np.asarray(beta))
        xs_t = fid.vs_x_update_t(m_t, s, mask, y, lam, alpha_t)
        assert xs_t.shape == (2, n_c, 2, 8, 8)
        m_out_t = fid.wab_t(u_t, xs_t, s, alpha_t, beta_t)
        for b in range(2):
            xs = fid.vs_x_update(ms[b], sens[b], mask, ys[b], lam, alpha)
            for i in range(n_c):
                assert np.max(np.abs(xs_t.data[b, i, 0] - xs[i].re)) < 1e-10
                assert np.max(np.abs(xs_t.data[b, i, 1] - xs[i].im)) < 1e-10
            m_out = fid.wab(us[b], xs, sens[b], alpha, beta)
            assert np.max(np.abs(m_out_t.data[b, 0] - m_out.re)) < 1e-10
            assert np.max(np.abs(m_out_t.data[b, 1] - m_out.im)) < 1e-10

    def test_shared_maps_equal_per_sample_copies(self):
        rng = np.random.default_rng(9)
        sens = _sens(rng, 2, 8, 8).stacked()
        mask = _mask(8, 8, 4)
        y = random_complex(rng, (2, 2, 8, 8))
        m_t = Tensor(rng.normal(size=(2, 2, 8, 8)))
        a_t = Tensor(np.asarray(0.7))
        shared = fid.vs_x_update_t(m_t, sens, mask, y, 2.0, a_t)
        copied = fid.vs_x_update_t(m_t, np.stack([sens, sens]), mask, y, 2.0, a_t)
        assert np.array_equal(shared.data, copied.data)
        assert np.array_equal(fid.wab_t(m_t, shared, sens, a_t, a_t).data,
                              fid.wab_t(m_t, copied, np.stack([sens, sens]), a_t, a_t).data)

    def test_coil_and_batch_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        s = np.stack([_sens(rng, 2, 8, 8).stacked() for _ in range(2)])
        mask = _mask(8, 8, 4)
        m_t = Tensor(rng.normal(size=(2, 2, 8, 8)))
        a_t = Tensor(np.asarray(1.0))
        y = random_complex(rng, (2, 2, 8, 8))
        with pytest.raises(DimensionError):
            fid.vs_x_update_t(m_t, s, mask, y[:, :1], 2.0, a_t)
        with pytest.raises(DimensionError):
            fid.vs_x_update_t(m_t[:1], s, mask, y[:1], 2.0, a_t)
        xs = fid.vs_x_update_t(m_t, s, mask, y, 2.0, a_t)
        with pytest.raises(DimensionError):
            fid.wab_t(m_t, xs, s[:, :1], a_t, a_t)
        with pytest.raises(DimensionError):
            fid.wab_t(m_t[:1], xs, s, a_t, a_t)

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_graph_gradients(self, seed):
        self._grad_check(seed, per_sample=False)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_graph_gradients_per_sample_maps(self, seed):
        """B=2, each sample with its own maps: the coil expand in cmul_const
        sums its gradient over the coil axis."""
        self._grad_check(seed, per_sample=True)

    def _grad_check(self, seed, per_sample):
        rng = np.random.default_rng(seed)
        bsz = 2 if per_sample else 1
        sens = _sens(rng, 2, 8, 8).stacked()
        if per_sample:
            sens = np.stack([sens, _sens(rng, 2, 8, 8).stacked()])
        mask = _mask(8, 8, seed)
        y = random_complex(rng, (bsz, 2, 8, 8))
        m_t = Tensor(rng.normal(size=(bsz, 2, 8, 8)), requires_grad=True)
        u_t = Tensor(rng.normal(size=(bsz, 2, 8, 8)), requires_grad=True)
        la = Tensor(np.asarray(0.2), requires_grad=True)
        lb = Tensor(np.asarray(-0.1), requires_grad=True)
        target = rng.normal(size=(bsz, 2, 8, 8))

        def loss():
            alpha_t, beta_t = ad.exp(la), ad.exp(lb)
            xs = fid.vs_x_update_t(m_t, sens, mask, y, 3.0, alpha_t)
            out = fid.wab_t(u_t, xs, sens, alpha_t, beta_t)
            return ad.mean_all(ad.square(ad.sub(out, Tensor(target))))

        report = ad.grad_check(loss, {"m": m_t, "u": u_t, "la": la, "lb": lb},
                               tolerance=1e-5)
        assert report.passed, report

    def test_df_single_t_gradient(self):
        rng = np.random.default_rng(11)
        mask = _mask(8, 8, 5)
        us_k = random_complex(rng, (8, 8))
        x = Tensor(rng.normal(size=(1, 2, 8, 8)), requires_grad=True)
        target = rng.normal(size=(1, 2, 8, 8))

        def loss():
            return ad.mean_all(ad.square(ad.sub(
                fid.df_single_t(x, us_k, mask, 1.5), Tensor(target))))

        report = ad.grad_check(loss, {"x": x}, tolerance=1e-5)
        assert report.passed, report


class TestGraphMemory:
    """A graph keeps the arrays its backward formulas read, not the values
    it passes through."""

    def test_unread_fft_output_is_freed_before_backward(self, monkeypatch):
        rng = np.random.default_rng(12)
        mask, us_k = _mask(16, 16, 6), random_complex(rng, (16, 16))
        x0 = rng.normal(size=(2, 2, 16, 16))
        seen, fft2_t = [], fid.fft2_t

        def spy(t):
            out = fft2_t(t)
            seen.extend([weakref.ref(out), weakref.ref(out.data)])
            return out

        monkeypatch.setattr(fid, "fft2_t", spy)
        x = ad.Parameter(x0.copy())
        rec = fid.df_single_t(x, us_k, mask)
        # the spectrum only feeds a multiply by the constant mask, whose
        # gradient reads the mask: it is gone while the graph lives
        assert len(seen) == 2 and all(r() is None for r in seen)
        assert rec._parents
        ad.sum_all(ad.square(rec)).backward()
        monkeypatch.undo()
        ref = ad.Parameter(x0.copy())
        ad.sum_all(ad.square(fid.df_single_t(ref, us_k, mask))).backward()
        assert np.array_equal(x.grad, ref.grad)

    @pytest.mark.parametrize("lam", [math.inf, 3.0])
    def test_coil_graph_holds_only_what_backward_reads(self, lam):
        rng = np.random.default_rng(13)
        n_c, h, w = 8, 32, 32
        sens = _sens(rng, n_c, h, w).stacked()
        mask = _mask(h, w, 7)
        y = random_complex(rng, (1, n_c, h, w))
        m = ad.Parameter(rng.normal(size=(1, 2, h, w)))
        la, lb = ad.Parameter(np.asarray(0.1)), ad.Parameter(np.asarray(-0.2))
        alpha_t, beta_t = ad.exp(la), ad.exp(lb)
        xs = fid.vs_x_update_t(m, sens, mask, y, lam, alpha_t)
        loss = ad.sum_all(fid.wab_t(m, xs, sens, alpha_t, beta_t))
        del xs, alpha_t, beta_t
        coil = 2 * n_c * h * w * 8      # one [1,n_c,2,H,W] float64 value
        image = 2 * h * w * 8           # one [1,2,H,W] float64 value
        # the maps (the real and imaginary parts cmul_const multiplies by),
        # the negated imaginary part of the conjugate multiply, the mask, the
        # coil sum of |S|^2, and m, the coil sum, numerator and denominator
        # the WAB's products and quotient read
        read = sens.nbytes + coil // 2 + image // 2 + image // 2 + 4 * image
        if not math.isinf(lam):
            # the sampled spectrum times the mask and the blend: d/d alpha
            # reads both, and the sampled-entry mask
            read += 2 * coil + image // 2
        assert held_bytes(loss) <= read + 1024      # plus 0-d scalars

    def test_const_full_is_a_read_only_view(self):
        base = np.arange(16.0).reshape(4, 4)
        t = fid._const_full(base, (2, 3, 4, 4), np.float64)
        assert t.shape == (2, 3, 4, 4) and np.array_equal(t.data[1, 2], base)
        assert np.shares_memory(t.data, base)      # no full-size copy
        with pytest.raises(ValueError, match="read-only"):
            t.data[0, 0, 0, 0] = 1.0

