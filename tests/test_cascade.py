"""Cascade models, training loops and checkpoints."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import TINY_SPEC, dataset_kind, spec_dicts
from dualrec import cascade as cas
from dualrec.autodiff import Tensor
from dualrec.errors import (ConfigError, ContainerError, DimensionError,
                            ParameterError, StateError, TrainAbortError)
from dualrec.fidelity import SensitivitySet
from dualrec.fourier import ComplexGrid, fft2c, ifft2c
from dualrec.masks import SamplingMask, apply_mask, make_mask
from dualrec.phantoms import (Dataset, PhantomSpec, RtcContainer, gen_coil_maps,
                              gen_phantom, load_dataset, make_dataset)


def chan(z):
    return np.stack([np.asarray(z).real, np.asarray(z).imag])


def small_spec(**kw):
    base = dict(family="dc_rsn", n_b=1, mode="ki_then_ii", size=32,
                ki_hidden=4, ii_base=4, ii_depth=2, fu_hidden=16,
                golf_base=4, golf_depth=2, golf_feature_depth=4,
                seed=11, epochs=3, batch=4, lr=1e-3)
    base.update(kw)
    return cas.CascadeSpec(**base)


def sim_single(seed, size=32, accel=4):
    """Pure float64 single-coil problem, no dataset storage rounding."""
    target = gen_phantom(PhantomSpec(size=size, seed=seed))
    mask = make_mask("cartesian", size, size, accel, seed=seed)
    us_k = apply_mask(ComplexGrid.from_complex(fft2c(target.astype(complex)),
                                               "kspace"), mask).z
    zf = ifft2c(us_k)
    return target, mask, us_k, zf


@pytest.fixture(scope="module")
def ds_single(tmp_path_factory):
    root = tmp_path_factory.mktemp("dss") / "ds"
    make_dataset("single", 10, 32, 4, "cartesian", seed=3, out_dir=root)
    return load_dataset(root)


@pytest.fixture(scope="module")
def ds_paired(tmp_path_factory):
    root = tmp_path_factory.mktemp("dsp") / "ds"
    make_dataset("paired", 10, 32, 4, "cartesian", seed=5, out_dir=root)
    return load_dataset(root)


@pytest.fixture(scope="module")
def ds_multi(tmp_path_factory):
    root = tmp_path_factory.mktemp("dsm") / "ds"
    make_dataset("multi", 6, 32, 4, "cartesian", seed=7, n_coils=2, out_dir=root)
    return load_dataset(root)


@pytest.fixture(scope="module")
def trained_n1(ds_single, tmp_path_factory):
    out = tmp_path_factory.mktemp("run_n1")
    return cas.train(small_spec(), ds_single, out_dir=out)


class TestCascadeSpec:
    def test_round_trip_with_infinite_lam(self):
        spec = small_spec()
        d = spec.to_dict()
        assert d["lam"] == "inf"
        back = cas.CascadeSpec.from_dict(d)
        assert back == spec

    def test_round_trip_finite_lam(self):
        spec = small_spec(lam=4.0)
        assert cas.CascadeSpec.from_dict(spec.to_dict()).lam == 4.0

    def test_json_safe(self):
        json.loads(json.dumps(small_spec().to_dict()))

    def test_unknown_key_rejected(self):
        d = small_spec().to_dict()
        d["units"] = 3
        with pytest.raises(ConfigError):
            cas.CascadeSpec.from_dict(d)

    @pytest.mark.parametrize("kw", [
        dict(family="unet"),
        dict(assists="t2"),
        dict(mode="identity"),
        dict(n_b=0),
        dict(size=16),
        dict(size=30),          # not divisible by 2^ii_depth
        dict(lam=-1.0),
        dict(t1_shift=-1),
        dict(t1_shift=20),
        dict(epochs=0),
        dict(lr=0.0),
        dict(assists="t1", mode="ki_then_ii"),
        dict(assists="golf", family="vs_rsn", mode="ki_only"),
        dict(prn={"volume": 11}),
    ])
    def test_validate_rejects(self, kw):
        with pytest.raises(ConfigError):
            small_spec(**kw).validate()

    @pytest.mark.parametrize("d", [[], 5, None, "spec", [("n_b", 2)]], ids=repr)
    def test_non_object_rejected(self, d):
        with pytest.raises(ConfigError, match="JSON object"):
            cas.CascadeSpec.from_dict(d)

    def test_bad_lam_string(self):
        d = small_spec().to_dict()
        d["lam"] = "huge"
        with pytest.raises(ConfigError):
            cas.CascadeSpec.from_dict(d)

    @pytest.mark.parametrize("kw", [
        {"n_b": "2"}, {"lr": "1e-3"}, {"epochs": None}, {"lam": [1]},
        {"batch": 2.5}, {"n_b": True}, {"seed": "x"}, {"lr": True},
        {"alpha": False}, {"prn": [1]}, {"family": 1},
        {"prn": {"hidden": "8"}}, {"prn": {"epochs": 2.0}},
        {"prn": {"w_adv": "1"}}, {"prn": {"gp_coeff": True}},
    ], ids=str)
    def test_wrong_json_type_rejected(self, kw):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            cas.CascadeSpec.from_dict(dict(small_spec().to_dict(), **kw))

    @pytest.mark.parametrize("kw", [
        {"ki_hidden": 0}, {"ii_base": 0}, {"ii_depth": 0}, {"fu_hidden": 0},
        {"golf_feature_depth": 0}, {"golf_base": -1}, {"golf_depth": 0},
        {"seed": -1}, {"n_b": 0}, {"batch": 0}, {"lr": float("inf")},
        {"lr": float("nan")}, {"prn": {"hidden": 0}}, {"prn": {"critic_base": 0}},
        {"prn": {"epochs": 0}}, {"prn": {"critic_steps": 0}},
        {"prn": {"lr_critic": 0.0}}, {"prn": {"lr_re": -1e-3}},
        {"prn": {"lr_re": float("inf")}}, {"prn": {"gp_coeff": -1.0}},
        {"prn": {"gp_coeff": float("nan")}},
        {"alpha": float("nan")}, {"alpha": float("inf")}, {"alpha": 0.0},
        {"beta": -1.0}, {"beta": float("nan")}, {"beta": float("inf")},
        {"prn": {"w_adv": float("inf")}}, {"prn": {"w_adv": float("nan")}},
        {"prn": {"w_dist": 0.0}}, {"prn": {"w_dist": float("nan")}},
    ], ids=str)
    def test_out_of_range_rejected(self, kw):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            cas.CascadeSpec.from_dict(dict(small_spec().to_dict(), **kw))

    @pytest.mark.parametrize("prn", [{"w_adv": 0.05}, {"w_dist": 2.0},
                                     {"w_adv": 0.5, "w_dist": 0.5}], ids=str)
    def test_prn_weight_order_rejected(self, prn):
        # PrnBlock's w_adv > w_dist, with its defaults for a missing key
        with pytest.raises(ConfigError, match="w_adv > w_dist"):
            cas.CascadeSpec.from_dict(dict(small_spec().to_dict(), prn=prn))

    def test_prn_needs_dc_rsn(self):
        with pytest.raises(ConfigError, match="dc_rsn"):
            cas.CascadeSpec.from_dict(dict(small_spec().to_dict(), family="vs_rsn",
                                           mode="fu", prn={}))

    @pytest.mark.parametrize("kw", [{"ii_depth": 10 ** 18},
                                    {"assists": "golf", "golf_depth": 10 ** 18}], ids=str)
    def test_huge_depth_rejected(self, kw):
        # rejected without building 2^depth
        with pytest.raises(ConfigError, match="divisible"):
            cas.CascadeSpec.from_dict(dict(small_spec().to_dict(), **kw))

    def test_range_edges_accepted(self):
        d = dict(small_spec().to_dict(), seed=0, ki_hidden=1, fu_hidden=1,
                 prn={"hidden": 1, "epochs": 1, "critic_steps": 1, "gp_coeff": 0})
        assert cas.CascadeSpec.from_dict(d).seed == 0

    def test_ints_accepted_for_float_fields(self):
        d = dict(small_spec().to_dict(), lam=4, alpha=2, lr=1)
        spec = cas.CascadeSpec.from_dict(d)
        assert (spec.lam, spec.alpha, spec.lr) == (4, 2, 1)


class TestDcRsnForward:
    @pytest.mark.parametrize("mode", ["ki_then_ii", "ii_then_ki", "mean",
                                      "fu_with_us"])
    def test_identity_cascade_returns_zero_filled(self, mode):
        target, mask, us_k, zf = sim_single(2)
        spec = small_spec(mode=mode)
        model = cas.build_model(spec, np.random.default_rng(0))
        out = model(Tensor(chan(zf)[None]), us_k[None], mask).data[0]
        assert np.abs(out - chan(zf)).max() < 1e-10

    def test_sampled_set_consistency_with_perturbed_weights(self):
        target, mask, us_k, zf = sim_single(4)
        model = cas.build_model(small_spec(n_b=2), np.random.default_rng(0))
        nz = np.random.default_rng(1)
        for p in model.parameters():
            p.data = p.data + nz.normal(scale=0.05, size=p.shape)
        out = model(Tensor(chan(zf)[None]), us_k[None], mask).data[0]
        spec_out = fft2c(out[0] + 1j * out[1])
        err = np.abs(spec_out[mask.bits] - us_k[mask.bits]).max()
        assert err < 1e-10
        assert np.abs(out - chan(zf)).max() > 1e-6   # blocks actually did work

    def test_three_blocks_differ_from_one_when_trained(self, ds_single,
                                                       trained_n1):
        rep3 = cas.train(small_spec(n_b=3, epochs=1), ds_single)
        staged = ds_single.staged
        s = staged[ds_single.indices("val")[0]]
        a = trained_n1.model.reconstruct(s, ds_single.mask)
        b = rep3.model.reconstruct(s, ds_single.mask)
        assert np.abs(a - b).max() > 1e-6

    def test_unexpected_t1_rejected(self):
        target, mask, us_k, zf = sim_single(6)
        model = cas.build_model(small_spec(), np.random.default_rng(0))
        with pytest.raises(ConfigError):
            model(Tensor(chan(zf)[None]), us_k[None], mask,
                  t1=Tensor(chan(zf)[None]))


def full_mask(size):
    return SamplingMask(np.ones((size, size), bool), 2.0, "cartesian", 0)


def vs_problem(n_c, seed, size=32, mask=None):
    target = gen_phantom(PhantomSpec(size=size, seed=seed))
    sens = gen_coil_maps(size, size, n_c, seed=seed)
    if mask is None:
        mask = make_mask("cartesian", size, size, 4, seed=seed)
    y = np.stack([np.where(mask.bits, fft2c(s.z * target), 0.0)
                  for s in sens.maps])
    return target, sens, mask, y


class TestVsRsnForward:
    @pytest.mark.parametrize("n_c", [1, 2, 4])
    def test_fully_sampled_identity_init_reproduces_target(self, n_c):
        size = 32
        target, sens, mask, y = vs_problem(n_c, 3, size, mask=full_mask(size))
        spec = small_spec(family="vs_rsn", n_b=2)
        model = cas.build_model(spec, np.random.default_rng(0))
        out = model(y, sens, mask).data[0]
        assert np.abs((out[0] + 1j * out[1]) - target).max() < 1e-5

    def test_single_uniform_coil_matches_dc_family_at_init(self):
        target, mask, us_k, zf = sim_single(8)
        ones = ComplexGrid(np.ones_like(target), np.zeros_like(target), "image")
        sens = SensitivitySet([ones], normalized=True)
        vs = cas.build_model(small_spec(family="vs_rsn"), np.random.default_rng(0))
        dc = cas.build_model(small_spec(), np.random.default_rng(0))
        a = vs(us_k[None][None], sens, mask).data
        b = dc(Tensor(chan(zf)[None]), us_k[None], mask).data
        assert np.abs(a - b).max() < 1e-10

    def test_single_coil_cascade_matches_hand_assembled_update(self):
        """One cascade with perturbed block == (beta*u + alpha*x)/(beta+alpha)
        where u is the block output and x the spectrum-replaced image."""
        target, mask, us_k, zf = sim_single(9)
        ones = ComplexGrid(np.ones_like(target), np.zeros_like(target), "image")
        sens = SensitivitySet([ones], normalized=True)
        model = cas.build_model(small_spec(family="vs_rsn"),
                                np.random.default_rng(0))
        nz = np.random.default_rng(2)
        for name, p in model.named_parameters():
            if name.startswith("block0."):
                p.data = p.data + nz.normal(scale=0.05, size=p.shape)
        got = model(us_k[None][None], sens, mask).data[0]

        from dualrec.fourier import fft2_t
        m0 = Tensor(chan(zf)[None])
        u = model.block0(m0, fft2_t(m0)).data[0]
        u_z = u[0] + 1j * u[1]
        x_z = ifft2c(np.where(mask.bits, us_k, fft2c(zf)))   # lam = inf
        expected = (u_z + x_z) / 2.0                          # alpha = beta = 1
        assert np.abs((got[0] + 1j * got[1]) - expected).max() < 1e-10

    @pytest.mark.parametrize("n_b", [1, 3, 5])
    def test_shapes_and_finiteness(self, n_b):
        target, sens, mask, y = vs_problem(2, 5)
        model = cas.build_model(small_spec(family="vs_rsn", n_b=n_b),
                                np.random.default_rng(0))
        out = model(y, sens, mask)
        assert out.shape == (1, 2, 32, 32)
        assert np.isfinite(out.data).all()

    def test_sampled_set_consistency_on_spectrum_update_images(self):
        target, sens, mask, y = vs_problem(2, 6)
        model = cas.build_model(small_spec(family="vs_rsn"),
                                np.random.default_rng(0))
        nz = np.random.default_rng(3)
        for p in model.parameters():
            p.data = p.data + nz.normal(scale=0.05, size=p.shape)
        _, x_list = model(y, sens, mask, with_parts=True)
        for i, x in enumerate(x_list):
            arr = x.data[0]
            spec_i = fft2c(arr[0] + 1j * arr[1])
            assert np.abs(spec_i[mask.bits] - y[i][mask.bits]).max() < 1e-10

    def test_coil_mismatch_rejected(self):
        target, sens, mask, y = vs_problem(2, 7)
        model = cas.build_model(small_spec(family="vs_rsn"),
                                np.random.default_rng(0))
        with pytest.raises(DimensionError):
            model(np.concatenate([y, y[:1]]), sens, mask)

    def test_batch_with_per_sample_maps_equals_samples_alone(self):
        _, sens_a, mask, y_a = vs_problem(3, 12)
        _, sens_b, _, y_b = vs_problem(3, 13, mask=mask)
        model = cas.build_model(small_spec(family="vs_rsn", n_b=2, lam=2.0),
                                np.random.default_rng(0))
        nz = np.random.default_rng(4)
        for p in model.parameters():
            p.data = p.data + nz.normal(scale=0.05, size=p.shape)
        both, parts = model(np.stack([y_a, y_b]),
                            np.stack([sens_a.stacked(), sens_b.stacked()]),
                            mask, with_parts=True)
        for b, (y, sens) in enumerate([(y_a, sens_a), (y_b, sens_b)]):
            alone, alone_parts = model(y, sens, mask, with_parts=True)
            assert np.abs(both.data[b] - alone.data[0]).max() < 1e-12
            assert len(parts) == len(alone_parts) == 3
            for got, want in zip(parts, alone_parts):
                assert got.shape == (2, 2, 32, 32)
                assert np.abs(got.data[b] - want.data[0]).max() < 1e-12

    def test_batch_mismatch_rejected(self):
        _, sens, mask, y = vs_problem(2, 7)
        model = cas.build_model(small_spec(family="vs_rsn"),
                                np.random.default_rng(0))
        maps = np.stack([sens.stacked()] * 3)
        with pytest.raises(DimensionError):
            model(np.stack([y, y]), maps, mask)
        with pytest.raises(DimensionError):
            model(y, maps, mask)


class TestTrain:
    def test_loss_policy_and_baseline(self, ds_single, trained_n1):
        rep = trained_n1
        if not rep.retried:
            head = rep.train_loss[:3]
            assert all(b <= a for a, b in zip(head, head[1:]))
        else:
            assert rep.lr_used == pytest.approx(small_spec().lr / 2)
        zf = cas.zero_filled_report(ds_single)
        assert rep.final_psnr > zf.mean("psnr_db")

    def test_seed_determinism(self, ds_single, trained_n1):
        again = cas.train(small_spec(), ds_single)
        assert abs(again.train_loss[-1] - trained_n1.train_loss[-1]) < 1e-7
        assert again.val_loss == trained_n1.val_loss

    def test_report_shape_and_schema(self, trained_n1):
        d = trained_n1.to_dict()
        cas.validate_train_report(d)
        json.loads(json.dumps(d))
        assert d["epochs_run"] == 3
        assert d["wall_seconds"] > 0
        assert d["best_epoch"] in range(3)

    def test_metrics_recomputable_from_checkpoint(self, ds_single, trained_n1):
        rec = cas.load_checkpoint(trained_n1.checkpoint)
        report = cas.evaluate_model(rec, ds_single, "val")
        assert abs(report.mean("psnr_db") - trained_n1.final_psnr) < 1e-6
        assert abs(report.mean("ssim") - trained_n1.final_ssim) < 1e-6

    def test_schema_rejects_malformed_reports(self, trained_n1):
        good = trained_n1.to_dict()
        bad = dict(good)
        bad.pop("final_vif")
        with pytest.raises(ConfigError):
            cas.validate_train_report(bad)
        bad = dict(good, schema=2)
        with pytest.raises(ConfigError):
            cas.validate_train_report(bad)
        bad = dict(good, train_loss=good["train_loss"][:-1])
        with pytest.raises(ConfigError):
            cas.validate_train_report(bad)

    @pytest.mark.parametrize("where", ["val_loss", "extra", "extra.base"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_schema_rejects_non_finite_numbers_anywhere(self, trained_n1, where, value):
        good = trained_n1.to_dict()
        cas.validate_train_report(dict(good, extra={"base": good}))
        bad = {"val_loss": dict(good, val_loss=good["val_loss"][:-1] + [value]),
               "extra": dict(good, extra={"golf_val_loss": [value]}),
               "extra.base": dict(good, extra={"base": dict(good, final_vif=value)})}[where]
        with pytest.raises(ConfigError, match="strict JSON"):
            cas.validate_train_report(bad)

    def test_divergence_aborts_with_diagnostics(self, ds_single):
        with pytest.raises(TrainAbortError) as err:
            cas.train(small_spec(lr=1e8, epochs=8), ds_single)
        e = err.value
        assert e.epoch is not None and e.batch is not None
        assert "grad_norm" in e.diagnostics
        # strict JSON: non-finite numbers are null
        json.dumps(e.diagnostics, allow_nan=False)

    def test_family_dataset_mismatch(self, ds_single, ds_multi):
        with pytest.raises(ConfigError):
            cas.train(small_spec(family="vs_rsn"), ds_single)
        with pytest.raises(ConfigError):
            cas.train(small_spec(), ds_multi)
        with pytest.raises(ConfigError):
            cas.train(small_spec(assists="t1", mode="fu_with_us"), ds_single)

    def test_multi_coil_training_runs(self, ds_multi):
        spec = small_spec(family="vs_rsn", epochs=1, seed=4)
        rep = cas.train(spec, ds_multi)
        assert np.isfinite(rep.train_loss).all()
        rec = cas.load_checkpoint(rep.checkpoint) if rep.checkpoint else rep.model
        mag = np.abs(rec.reconstruct(ds_multi.staged[0], ds_multi.mask))
        assert mag.shape == (32, 32)

    def test_multi_coil_training_honours_batch(self, ds_multi, monkeypatch):
        steps = []
        step = cas.ad.Adam.step
        monkeypatch.setattr(cas.ad.Adam, "step",
                            lambda opt: steps.append(1) or step(opt))
        spec = small_spec(family="vs_rsn", epochs=1, batch=2, seed=4)
        cas.train(spec, ds_multi)
        n_train = len(ds_multi.indices("train"))
        assert n_train > 2
        assert len(steps) == -(-n_train // 2)

    @pytest.mark.parametrize("entry", ["target", "us_kspace", "us_image",
                                       "coil_kspace", "sens"])
    def test_sample_without_array_raises_container_error(self, ds_multi, entry):
        samples = [dict(rec) for rec in ds_multi.samples]
        del samples[1][entry]
        bad = Dataset(ds_multi.manifest, samples, ds_multi.root)
        with pytest.raises(ContainerError, match=entry):
            bad.staged

    def test_each_dataset_staged_once_and_read_only(self, ds_paired, monkeypatch):
        from dualrec import phantoms
        from dualrec.networks import PrnBlock
        calls = []
        stage = phantoms._stage_sample
        monkeypatch.setattr(phantoms, "_stage_sample",
                            lambda rec, kind: calls.append(rec["id"]) or stage(rec, kind))
        ds = Dataset(ds_paired.manifest, ds_paired.samples, ds_paired.root)
        rep = cas.train(small_spec(assists="t1_golf", mode="fu", epochs=1), ds)
        block = PrnBlock(hidden=4, critic_base=4, rng=np.random.default_rng(0))
        cas.train_prn(block, rep.model, ds, epochs=1, critic_steps=1)
        assert sorted(calls) == sorted(s["id"] for s in ds.samples)
        for s in ds.staged:
            for key in ("us_image", "us_k", "target", "target_mag", "t1"):
                with pytest.raises(ValueError):
                    s[key][..., 0, 0] = 0

    def test_multi_coil_staged_arrays_read_only(self, ds_multi):
        s = ds_multi.staged[0]
        for arr in (s["y"], s["sens"].maps[0].re, s["sens"].maps[0].im):
            with pytest.raises(ValueError):
                arr[0, 0] = 0

    def test_multi_coil_checkpoint_reloads_bit_exact(self, ds_multi, tmp_path):
        spec = small_spec(family="vs_rsn", epochs=1, seed=4)
        rep = cas.train(spec, ds_multi, out_dir=tmp_path)
        rec = cas.load_checkpoint(rep.checkpoint)
        want = dict(rep.model.model.named_parameters())
        got = dict(rec.model.named_parameters())
        assert want["w0_log_alpha"].shape == got["w0_log_alpha"].shape == ()
        for name, p in want.items():
            assert got[name].data.tobytes() == p.data.tobytes(), name
        staged = ds_multi.staged
        for i in range(len(staged)):
            a = rep.model.reconstruct(staged[i], ds_multi.mask)
            b = rec.reconstruct(staged[i], ds_multi.mask)
            assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def golf_report(ds_single, tmp_path_factory):
    out = tmp_path_factory.mktemp("run_golf")
    spec = small_spec(assists="golf", epochs=2, seed=21)
    return cas.train(spec, ds_single, out_dir=out)


class TestTwoStageGolf:
    def test_zero_injection_start_matches_base(self, golf_report):
        assert golf_report.stage1 is not None
        a = golf_report.extra["init_val_loss"]
        b = golf_report.stage1.extra["init_val_loss"]
        assert a == pytest.approx(b, abs=1e-12)

    def test_assistance_does_not_hurt(self, golf_report):
        assert golf_report.final_ssim >= golf_report.stage1.final_ssim - 0.002

    def test_checkpoint_bundles_all_stages(self, ds_single, golf_report):
        rec = cas.load_checkpoint(golf_report.checkpoint)
        assert rec.stage1 is not None and rec.golf is not None
        report = cas.evaluate_model(rec, ds_single, "val")
        assert abs(report.mean("ssim") - golf_report.final_ssim) < 1e-6

    def test_missing_stage1_checkpoint(self, ds_single, tmp_path):
        spec = small_spec(assists="golf", epochs=1)
        with pytest.raises(StateError):
            cas.train(spec, ds_single, stage1_checkpoint=tmp_path / "nope.rtc")

    def test_mismatched_stage1_checkpoint(self, ds_single, golf_report):
        spec = small_spec(assists="golf", epochs=1)
        with pytest.raises(ConfigError):
            cas.train(spec, ds_single, stage1_checkpoint=golf_report.checkpoint)

    def test_external_stage1_checkpoint_accepted(self, ds_single, trained_n1):
        spec = small_spec(assists="golf", epochs=1)
        rep = cas.train(spec, ds_single, stage1_checkpoint=trained_n1.checkpoint)
        assert rep.stage1 is None
        assert rep.extra["stage1_best_val"] is None

    def test_wrong_assists_rejected(self, ds_single, trained_n1):
        with pytest.raises(ConfigError, match="stage1_checkpoint"):
            cas.train(small_spec(), ds_single, stage1_checkpoint=trained_n1.checkpoint)

    def test_t1_variant_features_differ_from_plain(self, ds_paired):
        """Features must come from the t1-assisted stage-1 model; swapping in
        a plain model changes them."""
        spec_t1 = small_spec(assists="t1", mode="fu_with_us", epochs=1, seed=31)
        spec_plain = small_spec(mode="fu_with_us", epochs=1, seed=31)
        rep_t1 = cas.train(spec_t1, ds_paired)
        rep_plain = cas.train(spec_plain, ds_paired)
        staged = ds_paired.staged
        ids = ds_paired.indices("val")
        golf_spec = small_spec(assists="golf", epochs=1, seed=31)
        module = cas._golf_module(golf_spec)
        cas._train_golf_module(module, golf_spec, staged, ds_paired.indices("train"), ids)
        guide_t1 = cas.Reconstructor(replace(spec_t1, assists="t1_golf"), None,
                                     stage1=rep_t1.model.model, golf=module)
        guide_plain = cas.Reconstructor(replace(spec_plain, assists="golf"), None,
                                        stage1=rep_plain.model.model, golf=module)
        fa = guide_t1._features(staged, ids, ds_paired.mask)
        fb = guide_plain._features(staged, ids, ds_paired.mask)
        assert np.abs(fa - fb).max() > 1e-9

    def test_fit_features_are_the_inference_features(self, ds_single, prn_report,
                                                     monkeypatch):
        """A stage-1 checkpoint with a refiner: the features the fit trains on
        are the ones reconstruct computes, to the last bit."""
        assert cas.load_checkpoint(prn_report.checkpoint).prn is not None
        fit_feats = {}
        fit = cas._fit

        def spy(rec, *args, feats=None, **kw):
            fit_feats.update(feats)
            return fit(rec, *args, feats=feats, **kw)

        monkeypatch.setattr(cas, "_fit", spy)
        rep = cas.train(small_spec(assists="golf", epochs=1), ds_single,
                        stage1_checkpoint=prn_report.checkpoint)
        seen = []
        features = cas.Reconstructor._features

        def record(self, staged, ids, mask):
            seen.append(features(self, staged, ids, mask))
            return seen[-1]

        monkeypatch.setattr(cas.Reconstructor, "_features", record)
        assert sorted(fit_feats) == list(range(len(ds_single)))
        for i in fit_feats:
            rep.model.reconstruct(ds_single.staged[i], ds_single.mask)
            assert np.array_equal(seen[-1][0], fit_feats[i])


@pytest.fixture(scope="module")
def prn_report(ds_single, trained_n1, tmp_path_factory):
    from dualrec.networks import PrnBlock
    out = tmp_path_factory.mktemp("run_prn")
    block = PrnBlock(hidden=8, w_adv=1.0, w_dist=0.5, critic_base=4,
                     rng=np.random.default_rng(41))
    return cas.train_prn(block, trained_n1.model, ds_single, epochs=2,
                         batch=4, seed=41, critic_steps=2, out_dir=out)


class TestPrn:
    def test_wasserstein_estimates_finite(self, prn_report):
        w = prn_report.extra["wasserstein"]
        assert len(w) > 0
        assert np.isfinite(w).all()

    def test_perceptual_metric_not_degraded(self, prn_report):
        assert prn_report.extra["vif_refined"] >= \
            prn_report.extra["vif_base"] - 1e-9

    def test_refined_outputs_keep_measured_frequencies(self, ds_single,
                                                       prn_report):
        staged = ds_single.staged
        mask = ds_single.mask
        for i in ds_single.indices("val"):
            out = prn_report.model.reconstruct(staged[i], mask)
            spec_out = fft2c(out)
            err = np.abs(spec_out[mask.bits] - staged[i]["us_k"][mask.bits]).max()
            assert err < 1e-10

    def test_checkpoint_round_trip(self, ds_single, prn_report):
        rec = cas.load_checkpoint(prn_report.checkpoint)
        assert rec.prn is not None
        report = cas.evaluate_model(rec, ds_single, "val")
        assert abs(report.mean("psnr_db") - prn_report.final_psnr) < 1e-6

    def test_multi_coil_rejected(self, ds_multi, trained_n1):
        from dualrec.networks import PrnBlock
        block = PrnBlock(hidden=8, critic_base=4, rng=np.random.default_rng(0))
        with pytest.raises(ConfigError):
            cas.train_prn(block, trained_n1.model, ds_multi, epochs=1)

    def test_critic_collapse_aborts(self, ds_single, trained_n1):
        from dualrec.networks import PrnBlock
        block = PrnBlock(hidden=8, critic_base=4, rng=np.random.default_rng(1))
        block.critic.c1.w.data[0, 0, 0, 0] = np.nan
        with pytest.raises(TrainAbortError):
            cas.train_prn(block, trained_n1.model, ds_single, epochs=1,
                          critic_steps=1)


class TestDriver:
    def test_prn_spec_writes_checkpoint_once_and_keeps_base(self, ds_single,
                                                             tmp_path, monkeypatch):
        saved = []
        save = cas.save_checkpoint
        monkeypatch.setattr(cas, "save_checkpoint",
                            lambda *a, **kw: saved.append(a[0]) or save(*a, **kw))
        spec = small_spec(epochs=2, prn={"hidden": 4, "critic_base": 4, "w_dist": 0.5,
                                         "epochs": 1, "critic_steps": 1})
        rep = cas.train(spec, ds_single, out_dir=tmp_path)
        assert saved == [tmp_path / "checkpoint.rtc"]
        assert cas.load_checkpoint(rep.checkpoint).prn is not None
        base = rep.extra["base"]
        assert len(base["val_loss"]) == spec.epochs and base["checkpoint"] is None
        bare = cas.Reconstructor(spec, rep.model.model)
        assert base["final_ssim"] == cas.evaluate_model(bare, ds_single).mean("ssim")
        cas.validate_train_report(base)

    # 10**12 refiner channels (1.4e14 bytes in its first conv) and 10**13
    # guidance channels (7.2e14 bytes) are past a 47-bit address space, so
    # the first allocation fails at once whatever the overcommit policy
    @pytest.mark.parametrize("kw", [dict(prn={"hidden": 10 ** 12}),
                                    dict(assists="golf", golf_base=10 ** 13)], ids=str)
    def test_huge_module_width_rejected_before_training(self, ds_single, monkeypatch,
                                                         kw):
        monkeypatch.setattr(cas, "_fit", lambda *a, **k: pytest.fail("trained"))
        with pytest.raises(ConfigError, match="cannot build"):
            cas.train(small_spec(**kw), ds_single)

    @pytest.mark.parametrize("group, key, value", [("golf", "base", 10 ** 13),
                                                   ("prn", "hidden", 10 ** 12)])
    def test_huge_checkpoint_module_width_rejected(self, golf_report, prn_report,
                                                   tmp_path, group, key, value):
        src = golf_report if group == "golf" else prn_report
        box = RtcContainer.read(src.checkpoint)
        meta = box.get_json("meta")
        meta[group][key] = value
        del box.entries["meta"]
        box.add_json("meta", meta)
        box.write(tmp_path / "huge.rtc")
        with pytest.raises(ConfigError, match="cannot build"):
            cas.load_checkpoint(tmp_path / "huge.rtc")


class TestAbortChecks:
    """Every stage aborts alike on a non-finite loss, gradient norm or
    validation loss, naming itself."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_guidance_module_aborts(self, ds_single, tmp_path):
        base = cas.train(cas.CascadeSpec.from_dict(TINY_SPEC), ds_single, out_dir=tmp_path)
        spec = cas.CascadeSpec.from_dict(dict(TINY_SPEC, assists="golf", batch=16, lr=1e4))
        with pytest.raises(TrainAbortError) as err:
            cas.train(spec, ds_single, stage1_checkpoint=base.checkpoint)
        assert err.value.diagnostics["stage"] == "golf_validation"
        assert (err.value.epoch, err.value.batch) == (0, None)

    # global_grad_norm is inf from its n-th call on: the first update of the
    # cascade, of the guidance module and of the critic; the refiner's
    # update follows one critic update
    @pytest.mark.parametrize("stage, n", [("train", 1), ("golf", 1), ("critic", 1),
                                          ("generator", 2)])
    def test_infinite_gradient_norm_aborts_its_stage(self, ds_single, trained_n1,
                                                     monkeypatch, stage, n):
        from dualrec.networks import PrnBlock
        calls, norm = [], cas.global_grad_norm

        def norm_inf_from_nth_call(params):
            calls.append(params)
            return math.inf if len(calls) >= n else norm(params)

        monkeypatch.setattr(cas, "global_grad_norm", norm_inf_from_nth_call)
        with pytest.raises(TrainAbortError, match=f"gradient norm in {stage}") as err:
            if stage == "train":
                cas.train(small_spec(epochs=1), ds_single)
            elif stage == "golf":
                cas.train(small_spec(assists="golf", epochs=1), ds_single,
                          stage1_checkpoint=trained_n1.checkpoint)
            else:
                block = PrnBlock(hidden=4, critic_base=4, rng=np.random.default_rng(2))
                cas.train_prn(block, trained_n1.model, ds_single, epochs=1,
                              critic_steps=1)
        diag = err.value.diagnostics
        assert diag["stage"] == stage and math.isfinite(diag["last_loss"])
        assert (err.value.epoch, err.value.batch) == (0, 0)
        if n == 1:      # no update finished
            assert diag["grad_norm"] is None and diag["grad_step"] is None
        else:           # the critic's update of the same batch
            assert diag["grad_norm"] > 0 and diag["grad_step"] == [0, 0]


@pytest.fixture
def optimizer_steps(monkeypatch):
    """(rule, parameter dtype, gradient dtype, Adam moment dtype) of every
    optimizer step taken while the fixture is active."""
    seen = []
    adam, sgd = cas.ad.adam_step, cas.ad.sgd_step

    def dtypes(param):
        return param.data.dtype, None if param.grad is None else param.grad.dtype

    def adam_step(param, state, *args, **kw):
        seen.append(("adam",) + dtypes(param) + (state.m.dtype,))
        return adam(param, state, *args, **kw)

    def sgd_step(param, lr):
        seen.append(("sgd",) + dtypes(param) + (None,))
        return sgd(param, lr)

    monkeypatch.setattr(cas.ad, "adam_step", adam_step)
    monkeypatch.setattr(cas.ad, "sgd_step", sgd_step)
    return seen


def _assert_float32_steps(seen):
    assert seen and any(grad is not None for _, _, grad, _ in seen)
    for rule, param, grad, moment in seen:
        assert param == np.float32 and grad in (np.float32, None), (rule, param, grad)
        assert moment in (np.float32, None), (rule, moment)


def _assert_float64(rec):
    for part in (rec.model, rec.stage1, rec.golf, rec.prn):
        if part is not None:
            for name, p in part.named_parameters():
                assert p.dtype == np.float64 and p.grad is None, name


class TestTrainingPrecision:
    @pytest.mark.parametrize("family", ["dc_rsn", "vs_rsn"])
    def test_train_steps_in_float32(self, family, ds_single, ds_multi,
                                    optimizer_steps):
        ds = ds_multi if family == "vs_rsn" else ds_single
        rep = cas.train(small_spec(family=family, epochs=1, seed=4), ds)
        _assert_float32_steps(optimizer_steps)
        _assert_float64(rep.model)
        # the best-validation weights are float32 values held in float64
        for name, p in rep.model.model.named_parameters():
            assert np.array_equal(p.data.astype(np.float32), p.data), name

    def test_two_stage_golf_steps_in_float32(self, ds_single, optimizer_steps):
        rep = cas.train(small_spec(assists="golf", epochs=1, seed=21), ds_single)
        _assert_float32_steps(optimizer_steps)
        _assert_float64(rep.model)
        assert rep.model.stage1 is not None and rep.model.golf is not None

    def test_train_prn_steps_in_float32(self, ds_single, trained_n1,
                                        optimizer_steps):
        from dualrec.networks import PrnBlock
        block = PrnBlock(hidden=4, critic_base=4, rng=np.random.default_rng(2))
        rep = cas.train_prn(block, trained_n1.model, ds_single, epochs=1,
                            critic_steps=1)
        assert {rule for rule, *_ in optimizer_steps} == {"adam", "sgd"}
        _assert_float32_steps(optimizer_steps)
        assert rep.model.prn is block
        _assert_float64(rep.model)

    def test_prn_block_float64_after_abort(self, ds_single, trained_n1):
        from dualrec.networks import PrnBlock
        block = PrnBlock(hidden=8, critic_base=4, rng=np.random.default_rng(1))
        block.critic.c1.w.data[0, 0, 0, 0] = np.nan
        with pytest.raises(TrainAbortError):
            cas.train_prn(block, trained_n1.model, ds_single, epochs=1,
                          critic_steps=1)
        assert all(p.dtype == np.float64 for p in block.parameters())

    def test_checkpoint_float64_and_reloads_bit_exact(self, ds_single, trained_n1):
        from dualrec.phantoms import RtcContainer
        box = RtcContainer.read(trained_n1.checkpoint)
        weights = [arr for name, arr in box.entries.items() if name != "meta"]
        assert weights and all(arr.dtype == np.float64 for arr in weights)
        rec = cas.load_checkpoint(trained_n1.checkpoint)
        staged = ds_single.staged
        for s in staged:
            assert np.array_equal(rec.reconstruct(s, ds_single.mask),
                                  trained_n1.model.reconstruct(s, ds_single.mask))
        # the reported metrics are the float64 rescore, to the last bit
        report = cas.evaluate_model(rec, ds_single, "val")
        assert report.mean("psnr_db") == trained_n1.final_psnr
        assert report.mean("vif") == trained_n1.final_vif


@pytest.fixture(scope="module")
def aug_report(ds_paired, tmp_path_factory):
    out = tmp_path_factory.mktemp("run_aug")
    spec = small_spec(assists="t1", mode="fu_with_us", epochs=4, seed=51, t1_shift=2)
    return cas.train(spec, ds_paired, out_dir=out)


@pytest.fixture(scope="module")
def plain_report(ds_paired):
    spec = small_spec(assists="t1", mode="fu_with_us", epochs=4, seed=51)
    return cas.train(spec, ds_paired)


class TestShiftAugmentation:
    def test_zero_shift_matches_plain_evaluation(self, ds_paired, aug_report):
        sweep = cas.t1_shift_metric_sweep(aug_report.model, ds_paired,
                                          max_shift=0)
        direct = cas.evaluate_model(aug_report.model, ds_paired, "val")
        assert sweep[(0, 0)] == pytest.approx(direct.mean("ssim"), abs=1e-12)

    def test_augmented_model_is_flatter_over_shifts(self, ds_paired,
                                                    aug_report, plain_report):
        sweep_a = cas.t1_shift_metric_sweep(aug_report.model, ds_paired, 2)
        sweep_p = cas.t1_shift_metric_sweep(plain_report.model, ds_paired, 2)
        assert len(sweep_a) == 25
        spread_a = max(sweep_a.values()) - min(sweep_a.values())
        spread_p = max(sweep_p.values()) - min(sweep_p.values())
        assert spread_a <= spread_p + 1e-12

    def test_shifts_reproducible(self, ds_paired, aug_report):
        spec = small_spec(assists="t1", mode="fu_with_us", epochs=4, seed=51, t1_shift=2)
        again = cas.train(spec, ds_paired)
        assert again.train_loss == aug_report.train_loss

    def test_bounds_and_assists_checked(self, ds_paired):
        with pytest.raises(ConfigError):
            small_spec(assists="t1", mode="fu_with_us", t1_shift=-1).validate()
        with pytest.raises(ConfigError):
            small_spec(assists="t1", mode="fu_with_us", t1_shift=20).validate()
        with pytest.raises(ConfigError, match="t1_shift"):
            small_spec(t1_shift=2).validate()
        with pytest.raises(ParameterError):
            cas.t1_shift_metric_sweep(None, ds_paired, max_shift=30)


# --------------------------------------------------------------------------
# every spec dict is rejected, trains one tiny epoch, or aborts
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_sets(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    for kind in ("single", "paired", "multi"):
        make_dataset(kind, 6, 32, 4, "cartesian", seed=2, n_coils=2, out_dir=root / kind)
    return {kind: load_dataset(root / kind) for kind in ("single", "paired", "multi")}


def _tiny(**kw):
    return dict(TINY_SPEC, **kw)


class TestSpecContract:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=40)
    @given(spec_dicts())
    # valid values at the edge of their range, which the drawn combinations
    # reach only rarely
    @example(_tiny(lr=1e308))
    @example(_tiny(lr=1e-300, seed=2 ** 70, batch=10 ** 18))
    @example(_tiny(family="vs_rsn", mode="fu", lam=1e-300, alpha=1e308, beta=1e-300))
    @example(_tiny(family="vs_rsn", lam=1e308, alpha=1e-300, beta=1e308))
    @example(_tiny(mode="fu", assists="t1", t1_shift=8, golf_depth=10 ** 18))
    @example(_tiny(prn={"w_adv": 1e308, "w_dist": 1e307, "gp_coeff": 1e308}))
    @example(_tiny(prn={"w_adv": 1e-299, "w_dist": 1e-300, "lr_re": 1e308}))
    @example(_tiny(assists="golf", prn={"lr_critic": 1e308, "gp_coeff": 0}))
    def test_rejected_or_trains_or_aborts(self, tiny_sets, d):
        # nothing but ConfigError (before training) or TrainAbortError escapes
        try:
            spec = cas.CascadeSpec.from_dict(d)
        except ConfigError:
            return
        try:
            cas.train(spec, tiny_sets[dataset_kind(d)])
        except TrainAbortError:
            pass
