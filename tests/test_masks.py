"""Mask generator properties: fraction tolerance, DC inclusion, determinism,
column structure, and the documented PRNG update rule."""

import numpy as np
import pytest

from dualrec import masks as mk
from dualrec.errors import DimensionError, ParameterError
from dualrec.fourier import ComplexGrid, fft2c

SEEDS = list(range(20))


class TestRng64:
    def test_update_rule_frozen(self):
        # hand-evaluated splitmix64 + xorshift64* sequence for seed 1; any
        # change to the generator breaks stored masks, so freeze it here
        r = mk.Rng64(1)
        first = r.next_u64()
        x = (1 + 0x9E3779B97F4A7C15) & mk._M64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mk._M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mk._M64
        state = z ^ (z >> 31)
        x = state
        x ^= x >> 12
        x = (x ^ (x << 25)) & mk._M64
        x ^= x >> 27
        assert first == (x * 0x2545F4914F6CDD1D) & mk._M64

    def test_floats_in_unit_interval(self):
        r = mk.Rng64(42)
        vals = [r.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert 0.35 < np.mean(vals) < 0.65

    def test_sampling_without_replacement_distinct(self):
        r = mk.Rng64(7)
        got = r.sample_without_replacement(range(50), 20)
        assert len(got) == len(set(got)) == 20

    def test_weighted_sampling_prefers_heavy_items(self):
        heavy = 0
        for s in range(200):
            r = mk.Rng64(s)
            got = r.weighted_sample_without_replacement([0, 1], [10.0, 0.01], 1)
            heavy += got[0] == 0
        assert heavy > 180


def _configs():
    out = []
    for kind in mk.MASK_KINDS:
        if kind == "gaussian":
            out.append((kind, 256, 256, 4.0))
            out.append((kind, 256, 256, 5.0))
        else:
            out.append((kind, 64, 64, 4.0))
            out.append((kind, 256, 256, 5.0))
    return out


class TestMaskProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind,h,w,accel", _configs())
    def test_fraction_dc_determinism(self, kind, h, w, accel, seed):
        m1 = mk.make_mask(kind, h, w, accel, seed=seed)
        m2 = mk.make_mask(kind, h, w, accel, seed=seed)
        assert np.array_equal(m1.bits, m2.bits)
        assert m1.bits[h // 2, w // 2]
        tol = (1.5 if kind in ("cartesian", "gaussian") else 2.5) / min(h, w)
        assert abs(m1.fraction - 1.0 / accel) <= tol, (kind, m1.fraction)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cartesian_column_constancy(self, seed):
        m = mk.make_cartesian(64, 64, 4.0, seed=seed)
        assert np.array_equal(m.bits, np.tile(m.bits[0], (64, 1)))

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_gaussian_column_constancy(self, seed):
        m = mk.make_gaussian(128, 256, 4.0, seed=seed)
        assert np.array_equal(m.bits, np.tile(m.bits[0], (128, 1)))

    def test_cartesian_column_counts_256_r4(self):
        m = mk.make_cartesian(256, 256, 4.0, center_fraction=0.08, seed=3)
        cols = m.bits[0]
        assert cols.sum() == 64
        start = 128 - 21 // 2
        assert cols[start:start + 21].all()

    def test_cartesian_different_seeds_differ(self):
        a = mk.make_cartesian(64, 64, 4.0, seed=0)
        b = mk.make_cartesian(64, 64, 4.0, seed=1)
        assert not np.array_equal(a.bits, b.bits)

    def test_gaussian_density_decays_from_center(self):
        # occupancy aggregated over seeds should fall with distance
        acc = np.zeros(256)
        for s in range(30):
            acc += mk.make_gaussian(16, 256, 4.0, seed=s).bits[0]
        inner = acc[128 - 40:128 + 40].mean()
        outer = np.concatenate([acc[:40], acc[-40:]]).mean()
        assert inner > outer + 1.0

    def test_radial_single_spoke_is_central_row(self):
        bits = mk._rasterize_spokes(32, 32, 1)
        bits[16, 16] = True    # as make_radial sets it
        want = np.zeros((32, 32), dtype=bool)
        want[16, :] = True
        assert np.array_equal(bits, want)

    def test_radial_spokes_pass_through_center(self):
        m = mk.make_radial(64, 64, 4.0)
        assert m.bits[32, 32]

    def test_spiral_starts_at_center(self):
        m = mk.make_spiral(64, 64, 4.0)
        assert m.bits[32, 32]

    def test_rejects_accel_of_one(self):
        for kind in mk.MASK_KINDS:
            with pytest.raises(ParameterError):
                mk.make_mask(kind, 64, 64, 1.0)

    def test_cartesian_center_overflow_rejected(self):
        with pytest.raises(ParameterError):
            mk.make_cartesian(64, 64, 4.0, center_fraction=0.3)

    def test_gaussian_unreachable_budget_rejected(self):
        # round(64/5) = 13 columns cannot cover the 16 forced central ones
        with pytest.raises(ParameterError):
            mk.make_gaussian(64, 64, 5.0)


class TestApplyMask:
    def _kspace(self, h=32, w=32, seed=0):
        rng = np.random.default_rng(seed)
        img = ComplexGrid.from_real(rng.random((h, w)))
        return ComplexGrid.from_complex(fft2c(img.z), "kspace")

    def test_all_true_is_identity(self):
        k = self._kspace()
        m = mk.SamplingMask(np.ones((32, 32), dtype=bool), 2.0, "cartesian")
        out = mk.apply_mask(k, m)
        assert np.array_equal(out.re, k.re) and np.array_equal(out.im, k.im)

    def test_dc_only(self):
        k = self._kspace()
        bits = np.zeros((32, 32), dtype=bool)
        bits[16, 16] = True
        out = mk.apply_mask(k, mk.SamplingMask(bits, 2.0, "cartesian"))
        assert np.count_nonzero(out.z) == 1
        assert out.z[16, 16] == k.z[16, 16]

    def test_idempotent(self):
        k = self._kspace()
        m = mk.make_cartesian(32, 32, 4.0, seed=2)
        once = mk.apply_mask(k, m)
        twice = mk.apply_mask(once, m)
        assert np.array_equal(once.re, twice.re) and np.array_equal(once.im, twice.im)

    def test_dim_mismatch(self):
        k = self._kspace(32, 32)
        m = mk.make_cartesian(32, 64, 4.0)
        with pytest.raises(DimensionError):
            mk.apply_mask(k, m)

    def test_image_domain_rejected(self):
        g = ComplexGrid.from_real(np.zeros((32, 32)))
        m = mk.make_cartesian(32, 32, 4.0)
        with pytest.raises(ParameterError):
            mk.apply_mask(g, m)
