"""Container round-trips, phantom generator properties, coil maps, paired
contrast generation, and dataset self-consistency."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_ifft2
from dualrec import cascade as cas
from dualrec import phantoms as ph
from dualrec.errors import ConfigError, ContainerError, DualrecError, ParameterError
from dualrec.masks import make_cartesian
from dualrec.networks import PrnBlock

SEEDS = list(range(20))


class TestRtcContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        box = ph.RtcContainer()
        box.add("f32", rng.standard_normal((3, 4, 5)).astype(np.float32))
        box.add("f64", rng.standard_normal((7,)))
        box.add("u8", rng.integers(0, 256, size=(6, 2)).astype(np.uint8))
        box.add("scalar", np.float64(3.25))
        path = tmp_path / "t.rtc"
        box.write(path)
        back = ph.RtcContainer.read(path)
        assert list(back.entries) == ["f32", "f64", "u8", "scalar"]
        for name, arr in box.entries.items():
            got = back.entries[name]
            assert got.dtype == arr.dtype and got.shape == arr.shape
            assert got.tobytes() == arr.tobytes()

    def test_json_entry(self, tmp_path):
        box = ph.RtcContainer()
        box.add_json("meta", {"a": 1, "b": [2, 3]})
        box.write(tmp_path / "j.rtc")
        back = ph.RtcContainer.read(tmp_path / "j.rtc")
        assert back.get_json("meta") == {"a": 1, "b": [2, 3]}

    def test_duplicate_name_rejected(self):
        box = ph.RtcContainer()
        box.add("x", np.zeros(2, dtype=np.float32))
        with pytest.raises(ContainerError):
            box.add("x", np.zeros(2, dtype=np.float32))

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ContainerError):
            ph.RtcContainer().add("x", np.zeros(2, dtype=np.int64))

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.rtc"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ContainerError):
            ph.RtcContainer.read(p)

    def test_truncation_rejected(self, tmp_path):
        box = ph.RtcContainer()
        box.add("x", np.arange(100, dtype=np.float64))
        p = tmp_path / "t.rtc"
        box.write(p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-10])
        with pytest.raises(ContainerError):
            ph.RtcContainer.read(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        box = ph.RtcContainer()
        box.add("x", np.arange(4, dtype=np.float32))
        p = tmp_path / "t.rtc"
        box.write(p)
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(ContainerError):
            ph.RtcContainer.read(p)


    def test_zero_d_entry_keeps_its_shape(self, tmp_path):
        box = ph.RtcContainer()
        box.add("scalar", np.asarray(-0.5))
        assert box.entries["scalar"].shape == ()
        box.write(tmp_path / "s.rtc")
        back = ph.RtcContainer.read(tmp_path / "s.rtc").entries["scalar"]
        assert back.shape == () and back.tobytes() == np.asarray(-0.5).tobytes()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ContainerError):
            ph.RtcContainer.read(tmp_path / "absent.rtc")

    def test_non_utf8_name_rejected(self, tmp_path):
        box = ph.RtcContainer()
        box.add("ab", np.zeros(2))
        box.write(tmp_path / "n.rtc")
        raw = bytearray((tmp_path / "n.rtc").read_bytes())
        raw[10:12] = b"\xff\xfe"   # the two name bytes after magic, count, length
        (tmp_path / "n.rtc").write_bytes(bytes(raw))
        with pytest.raises(ContainerError):
            ph.RtcContainer.read(tmp_path / "n.rtc")


@pytest.fixture(scope="module")
def rtc_file(tmp_path_factory):
    """A written container laid out like a checkpoint (a JSON meta entry and
    arrays of several dtypes and ranks): its path and its bytes."""
    box = ph.RtcContainer()
    box.add_json("meta", {"format": 1, "spec": {"n_b": 3}, "has_prn": False})
    box.add("model/w", np.arange(12, dtype=np.float64).reshape(3, 4))
    box.add("model/s", np.asarray(0.5, dtype=np.float32))
    box.add("mask", np.ones((4, 4), dtype=np.uint8))
    path = tmp_path_factory.mktemp("rtc_damage") / "box.rtc"
    box.write(path)
    return path, path.read_bytes()


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    """An untrained checkpoint with every group (model, stage-1 model,
    guidance module and refiner) at the smallest widths: its path and its
    bytes."""
    spec = cas.CascadeSpec(family="dc_rsn", n_b=1, mode="fu", size=32, ki_hidden=1,
                           ii_base=1, ii_depth=1, fu_hidden=1, assists="golf",
                           golf_feature_depth=1, golf_base=1, golf_depth=1)
    golf = cas._golf_module(spec)
    golf.trained = True
    rec = cas.Reconstructor(spec, cas.build_model(spec), stage1=cas.build_model(
        cas._base_spec(spec)), golf=golf, prn=PrnBlock(hidden=1, critic_base=1))
    path = tmp_path_factory.mktemp("ckpt_damage") / "checkpoint.rtc"
    cas.save_checkpoint(path, rec)
    return path, path.read_bytes()


def _damage(raw, data):
    """raw truncated, or with 1-3 of its bytes overwritten, as drawn."""
    raw = bytearray(raw)
    if data.draw(st.booleans(), label="truncate"):
        return bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="length")])
    for _ in range(data.draw(st.integers(1, 3), label="n_bytes")):
        raw[data.draw(st.integers(0, len(raw) - 1), label="at")] = \
            data.draw(st.integers(0, 255), label="value")
    return bytes(raw)


class TestRtcDamage:
    @settings(max_examples=400)
    @given(data=st.data())
    def test_damaged_bytes_read_or_raise_container_error(self, rtc_file, data):
        """A truncation, or 1-3 overwritten bytes, either still reads or
        raises ContainerError from read or get_json; nothing else escapes."""
        path, raw = rtc_file
        bad = path.with_name("damaged.rtc")
        bad.write_bytes(_damage(raw, data))
        try:
            ph.RtcContainer.read(bad).get_json("meta")
        except ContainerError:
            pass

    @settings(max_examples=400)
    @given(data=st.data())
    def test_damaged_checkpoint_loads_finite_or_raises_dualrec_error(
            self, checkpoint_file, data):
        """The same damage to a checkpoint either loads, with every weight
        finite, or raises a DualrecError from load_checkpoint."""
        path, raw = checkpoint_file
        # the meta entry comes first: half the draws damage only it
        meta_end = raw.index(b"}}") + 2
        bad = path.with_name("damaged.rtc")
        if data.draw(st.booleans(), label="meta_only"):
            bad.write_bytes(_damage(raw[:meta_end], data) + raw[meta_end:])
        else:
            bad.write_bytes(_damage(raw, data))
        try:
            rec = cas.load_checkpoint(bad)
        except DualrecError:
            return
        for part in (rec.model, rec.stage1, rec.golf, rec.prn):
            for name, p in (() if part is None else part.named_parameters()):
                assert np.isfinite(p.data).all(), name

    @pytest.mark.parametrize("payload", [b"{oops", b"\xff\xfe", None])
    def test_bad_json_entry_raises_container_error(self, payload):
        box = ph.RtcContainer()
        if payload is not None:
            box.add("meta", np.frombuffer(payload, dtype=np.uint8).copy())
        with pytest.raises(ContainerError, match="meta"):
            box.get_json("meta")


class TestGenPhantom:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_deterministic_and_in_range(self, seed):
        spec = ph.PhantomSpec(size=64, seed=seed)
        a = ph.gen_phantom(spec)
        b = ph.gen_phantom(ph.PhantomSpec(size=64, seed=seed))
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert a.shape == (64, 64)

    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_seeds_differ_on_at_least_one_percent(self, seed):
        a = ph.gen_phantom(ph.PhantomSpec(size=64, seed=seed))
        b = ph.gen_phantom(ph.PhantomSpec(size=64, seed=seed + 1000))
        frac = np.mean(np.abs(a - b) > 1e-3)
        assert frac >= 0.01

    def test_small_size_rejected(self):
        with pytest.raises(ParameterError):
            ph.PhantomSpec(size=16)


class TestCoilMaps:
    @pytest.mark.parametrize("n_c", [1, 2, 4, 8])
    def test_pointwise_normalization(self, n_c):
        s = ph.gen_coil_maps(32, 32, n_c, seed=1)
        total = s.support_profile()
        assert np.max(np.abs(total - 1.0)) < 1e-6

    def test_single_coil_unit_magnitude(self):
        s = ph.gen_coil_maps(32, 32, 1, seed=0)
        assert np.max(np.abs(np.abs(s.maps[0].z) - 1.0)) < 1e-10

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_smoothness_bound(self, seed):
        h = w = 64
        s = ph.gen_coil_maps(h, w, 4, seed=seed)
        bound = 1.5 / min(h, w)
        for m in s.maps:
            assert np.abs(np.diff(m.z, axis=0)).max() < bound
            assert np.abs(np.diff(m.z, axis=1)).max() < bound


def _edge_set(img, q=0.9):
    gx = np.abs(np.diff(np.log(img + 1e-6), axis=1, append=0.0))
    gy = np.abs(np.diff(np.log(img + 1e-6), axis=0, append=0.0))
    g = np.hypot(gx, gy)
    return g > np.quantile(g, q)


class TestT1T2:
    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_edge_overlap(self, seed):
        t1, t2, _ = ph.gen_t1_t2_pair(ph.PhantomSpec(size=64, seed=seed))
        e1, e2 = _edge_set(t1), _edge_set(t2)
        overlap = np.count_nonzero(e1 & e2) / max(np.count_nonzero(e1),
                                                  np.count_nonzero(e2))
        assert overlap >= 0.5  # shared geometry, independently drawn contrasts

    def test_contrasts_differ(self):
        t1, t2, _ = ph.gen_t1_t2_pair(ph.PhantomSpec(size=64, seed=3))
        flat = ~(_edge_set(t1) | _edge_set(t2))
        corr = np.corrcoef(t1[flat], t2[flat])[0, 1]
        assert corr < 0.999

    def test_planted_structure_contrast(self):
        t1, t2, bbox = ph.gen_t1_t2_pair(ph.PhantomSpec(size=64, seed=5))
        r0, r1, c0, c1 = bbox
        assert 0 <= r0 < r1 <= 64 and 0 <= c0 < c1 <= 64
        # structure stands out in t1 far more than in t2
        def contrast(img):
            inner = img[r0 + 3:r1 - 3, c0 + 3:c1 - 3]
            ring = img[r0:r1, c0:c1]
            return float(inner.mean() - np.median(ring))
        assert contrast(t1) > contrast(t2) + 0.05

    def test_determinism(self):
        a1, a2, ab = ph.gen_t1_t2_pair(ph.PhantomSpec(size=64, seed=9))
        b1, b2, bb = ph.gen_t1_t2_pair(ph.PhantomSpec(size=64, seed=9))
        assert np.array_equal(a1, b1) and np.array_equal(a2, b2) and ab == bb


class TestDatasets:
    @pytest.mark.parametrize("kind", ph.DATASET_KINDS)
    def test_generate_verify_load(self, tmp_path, kind):
        out = tmp_path / kind
        man = ph.make_dataset(kind, n=5, size=32, accel=4.0,
                              mask_kind="cartesian", seed=11, out_dir=out,
                              n_coils=3)
        assert (out / "manifest.json").exists()
        issues = ph.verify_dataset(out / "manifest.json")
        assert issues == []
        ds = ph.load_dataset(out)
        assert len(ds) == 5
        assert len(ds.indices("train")) == 4 and len(ds.indices("val")) == 1
        assert ds.mask.bits.shape == (32, 32)

    def test_us_image_consistency_example(self, tmp_path):
        ph.make_dataset("single", n=2, size=32, accel=4.0,
                        mask_kind="cartesian", seed=0, out_dir=tmp_path / "d")
        ds = ph.load_dataset(tmp_path / "d")
        rec = ds.samples[0]
        us_k = rec["us_kspace"][0].astype(np.float64) \
            + 1j * rec["us_kspace"][1].astype(np.float64)
        want = oracle_ifft2(us_k)
        got = rec["us_image"][0] + 1j * rec["us_image"][1]
        assert np.max(np.abs(got - want)) < 1e-6

    def test_tampered_dataset_caught(self, tmp_path):
        out = tmp_path / "d"
        ph.make_dataset("single", n=2, size=32, accel=4.0,
                        mask_kind="cartesian", seed=0, out_dir=out)
        box = ph.RtcContainer.read(out / "sample_0000.rtc")
        box.entries["us_image"][0, 5, 5] += 0.25
        box.write(out / "sample_0000.rtc")
        issues = ph.verify_dataset(out)
        assert any("us_image" in s for s in issues)

    def test_gaussian_mask_dataset(self, tmp_path):
        out = tmp_path / "g"
        ph.make_dataset("single", n=2, size=64, accel=4.0,
                        mask_kind="gaussian", seed=5, out_dir=out)
        assert ph.verify_dataset(out) == []

    def test_bad_kind_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            ph.make_dataset("volume", 2, 32, 4.0, "cartesian", 0, tmp_path)


@pytest.fixture
def small_ds(tmp_path):
    root = tmp_path / "ds"
    ph.make_dataset("single", 2, 32, 4, "cartesian", seed=0, out_dir=root)
    return root


def _rewrite_manifest(root, mutate):
    path = root / "manifest.json"
    manifest = json.loads(path.read_text())
    mutate(manifest)
    path.write_text(json.dumps(manifest))


class TestLoadDatasetFaults:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(ConfigError):
            ph.load_dataset(tmp_path / "nowhere")

    def test_missing_manifest(self, small_ds):
        (small_ds / "manifest.json").unlink()
        with pytest.raises(ConfigError):
            ph.load_dataset(small_ds)

    @pytest.mark.parametrize("text", ["{nope", "[1, 2]", "\"files\""])
    def test_malformed_manifest(self, small_ds, text):
        (small_ds / "manifest.json").write_text(text)
        with pytest.raises(ConfigError):
            ph.load_dataset(small_ds)

    def test_non_utf8_manifest(self, small_ds):
        (small_ds / "manifest.json").write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError):
            ph.load_dataset(small_ds)

    @pytest.mark.parametrize("mutate", [
        lambda m: m.pop("files"),
        lambda m: m.pop("kind"),
        lambda m: m.update(files=[]),
        lambda m: m.update(files="sample_0000.rtc"),
        lambda m: m["files"][0].pop("file"),
        lambda m: m["files"][1].pop("split"),
        lambda m: m["files"][0].update(file=3),
    ])
    def test_manifest_schema_faults(self, small_ds, mutate):
        _rewrite_manifest(small_ds, mutate)
        with pytest.raises(ConfigError):
            ph.load_dataset(small_ds)

    def test_missing_sample_file(self, small_ds):
        (small_ds / "sample_0001.rtc").unlink()
        with pytest.raises(ContainerError):
            ph.load_dataset(small_ds)

    def test_sample_without_mask(self, small_ds):
        path = small_ds / "sample_0000.rtc"
        box = ph.RtcContainer.read(path)
        del box.entries["mask"]
        box.write(path)
        with pytest.raises(ContainerError):
            ph.load_dataset(small_ds)

    def test_truncated_sample_file(self, small_ds):
        path = small_ds / "sample_0000.rtc"
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(ContainerError):
            ph.load_dataset(small_ds / "manifest.json")


class TestMaskFiles:
    def test_round_trip(self, tmp_path):
        m = make_cartesian(32, 32, 4.0, seed=9)
        p = tmp_path / "m.rtc"
        ph.write_mask_file(m, p)
        back = ph.read_mask_file(p)
        assert np.array_equal(back.bits, m.bits)
        assert back.kind == m.kind and back.accel == m.accel and back.seed == m.seed

    @pytest.mark.parametrize("drop", ["mask", "accel", "meta"])
    def test_incomplete_file_raises_container_error(self, tmp_path, drop):
        p = tmp_path / "m.rtc"
        ph.write_mask_file(make_cartesian(32, 32, 4.0, seed=9), p)
        box = ph.RtcContainer.read(p)
        meta = box.get_json("meta")
        del box.entries[drop if drop != "accel" else "meta"]
        if drop == "accel":
            del meta["accel"]
            box.add_json("meta", meta)
        box.write(p)
        with pytest.raises(ContainerError):
            ph.read_mask_file(p)
