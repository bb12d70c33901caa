"""End-to-end command-line tests, including CLI/library parity."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import TINY_SPEC, dataset_kind, spec_dicts
from dualrec import autodiff as ad
from dualrec import cascade as cas
from dualrec.cli import main
from dualrec.networks import PrnBlock
from dualrec.phantoms import RtcContainer, load_dataset, make_dataset


def spec_dict(**kw):
    base = dict(family="dc_rsn", n_b=1, mode="ki_then_ii", size=32,
                ki_hidden=4, ii_base=4, ii_depth=2, fu_hidden=16,
                golf_base=4, golf_depth=2, golf_feature_depth=4,
                seed=11, epochs=2, batch=4, lr=1e-3)
    base.update(kw)
    return cas.CascadeSpec(**base).to_dict()


def strict_json(path):
    """A JSON file parsed strictly: a NaN or Infinity in it fails the test."""
    def refuse(name):
        raise AssertionError(f"{path} holds the non-finite number {name}")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


def write_config(path, spec, dataset, out, **extra):
    cfg = {"schema": 1, "spec": spec, "dataset": str(dataset),
           "out": str(out)}
    cfg.update(extra)
    Path(path).write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def ds_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("clids") / "ds"
    code = main(["make-dataset", "--kind", "single", "--n", "10", "--size",
                 "32", "--accel", "4", "--mask", "cartesian", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def ds_multi_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("clidsm") / "ds"
    make_dataset("multi", 6, 32, 4, "cartesian", seed=7, n_coils=2, out_dir=out)
    return out


@pytest.fixture(scope="module")
def run_dir(ds_dir, tmp_path_factory):
    """One trained run through the CLI; reused by reconstruct/evaluate."""
    base = tmp_path_factory.mktemp("clirun")
    cfg = write_config(base / "cfg.json", spec_dict(), ds_dir, base / "out")
    code = main(["train", "--config", str(cfg)])
    assert code == 0
    return base / "out"


@pytest.fixture(scope="module")
def fu_dir(tmp_path_factory):
    """A directory holding an untrained fu_with_us checkpoint that fits ds_dir."""
    spec = cas.CascadeSpec.from_dict(spec_dict(mode="fu_with_us"))
    rec = cas.Reconstructor(spec, cas.build_model(spec, np.random.default_rng(0)))
    out = tmp_path_factory.mktemp("clifu")
    cas.save_checkpoint(out / "checkpoint.rtc", rec)
    return out


@pytest.fixture(scope="module")
def golf_dir(tmp_path_factory):
    """A directory holding an untrained golf checkpoint that fits ds_dir, its
    guidance module marked trained so that reconstruct runs it."""
    spec = cas.CascadeSpec.from_dict(spec_dict(assists="golf"))
    golf = cas._golf_module(spec)
    golf.trained = True
    rec = cas.Reconstructor(spec, cas.build_model(spec, np.random.default_rng(0)),
                            stage1=cas.build_model(cas._base_spec(spec)), golf=golf)
    out = tmp_path_factory.mktemp("cligolf")
    cas.save_checkpoint(out / "checkpoint.rtc", rec)
    return out


@pytest.fixture(scope="module")
def prn_dir(tmp_path_factory):
    """A directory holding an untrained checkpoint with a refiner that fits
    ds_dir."""
    spec = cas.CascadeSpec.from_dict(spec_dict())
    prn = PrnBlock(hidden=4, critic_base=2, rng=np.random.default_rng(1))
    rec = cas.Reconstructor(spec, cas.build_model(spec, np.random.default_rng(0)), prn=prn)
    out = tmp_path_factory.mktemp("cliprn")
    cas.save_checkpoint(out / "checkpoint.rtc", rec)
    return out


@pytest.fixture(scope="module")
def recon_dir(run_dir, ds_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("clirec") / "val"
    code = main(["reconstruct", "--checkpoint", str(run_dir / "checkpoint.rtc"),
                 "--dataset", str(ds_dir), "--split", "val", "--out", str(out)])
    assert code == 0
    return out


class TestMakeDataset:
    def test_sample_count_and_manifest(self, ds_dir, capsys):
        manifest = json.loads((ds_dir / "manifest.json").read_text())
        assert len(manifest["files"]) == 10
        assert len(list(ds_dir.glob("*.rtc"))) >= 10

    def test_prints_manifest_path(self, tmp_path, capsys):
        out = tmp_path / "ds"
        main(["make-dataset", "--kind", "single", "--n", "1", "--size", "32",
              "--accel", "4", "--mask", "cartesian", "--out", str(out)])
        assert capsys.readouterr().out.strip() == str(out / "manifest.json")

    def test_rerun_identical_bytes(self, tmp_path):
        args = ["make-dataset", "--kind", "single", "--n", "2", "--size", "32",
                "--accel", "4", "--mask", "cartesian", "--seed", "9", "--out"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        for fa in sorted(a.iterdir()):
            assert fa.read_bytes() == (b / fa.name).read_bytes()

    def test_bad_choice_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["make-dataset", "--kind", "volumetric", "--n", "1",
                  "--size", "32", "--accel", "4", "--mask", "cartesian",
                  "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_library_rejection_maps_to_exit_2(self, tmp_path, capsys):
        # gaussian masks cannot honor this budget at size 64
        code = main(["make-dataset", "--kind", "single", "--n", "1",
                     "--size", "64", "--accel", "5", "--mask", "gaussian",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestMakeMask:
    def test_writes_uint8_grid(self, tmp_path):
        out = tmp_path / "m.rtc"
        assert main(["make-mask", "--kind", "gaussian", "--accel", "5",
                     "--size", "256", "--seed", "1", "--out", str(out)]) == 0
        box = RtcContainer.read(out)
        grid = box.entries["mask"]
        assert grid.dtype == np.uint8 and grid.shape == (256, 256)
        assert box.get_json("meta")["kind"] == "gaussian"

    def test_deterministic(self, tmp_path):
        args = ["make-mask", "--kind", "radial", "--accel", "4", "--size",
                "64", "--seed", "2", "--out"]
        main(args + [str(tmp_path / "a.rtc")])
        main(args + [str(tmp_path / "b.rtc")])
        assert (tmp_path / "a.rtc").read_bytes() == (tmp_path / "b.rtc").read_bytes()


class TestTrainCmd:
    def test_outputs_and_schema(self, run_dir):
        report = strict_json(run_dir / "report.json")
        cas.validate_train_report(report)
        resolved = json.loads((run_dir / "config.json").read_text())
        assert resolved["schema"] == 1
        assert resolved["spec"] == spec_dict()
        assert cas.load_checkpoint(run_dir / "checkpoint.rtc").spec.n_b == 1

    def test_rerun_identical_except_wall_clock(self, ds_dir, run_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", spec_dict(), ds_dir,
                           tmp_path / "out")
        assert main(["train", "--config", str(cfg)]) == 0
        a = json.loads((run_dir / "report.json").read_text())
        b = json.loads((tmp_path / "out" / "report.json").read_text())
        a.pop("wall_seconds"), b.pop("wall_seconds")
        a.pop("checkpoint"), b.pop("checkpoint")
        assert a == b
        assert (run_dir / "checkpoint.rtc").read_bytes() == \
            (tmp_path / "out" / "checkpoint.rtc").read_bytes()

    def test_out_flag_overrides_config(self, ds_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", spec_dict(epochs=1),
                           ds_dir, tmp_path / "ignored")
        assert main(["train", "--config", str(cfg), "--out",
                     str(tmp_path / "real")]) == 0
        assert (tmp_path / "real" / "report.json").exists()
        assert not (tmp_path / "ignored").exists()

    @pytest.mark.parametrize("mutate", [
        lambda c: c.update(schema=2),
        lambda c: c.update(units="mm"),
        lambda c: c.pop("dataset"),
        lambda c: c["spec"].update(family="resnet"),
        lambda c: c["spec"].update(extra_field=1),
        lambda c: c["spec"].update(n_b="2"),
        lambda c: c["spec"].update(lr="1e-3"),
        lambda c: c["spec"].update(epochs=None),
        lambda c: c["spec"].update(batch=2.5),
        lambda c: c["spec"].update(seed=True),
        lambda c: c["spec"].update(prn={"hidden": "8"}),
        lambda c: c["spec"].update(prn={"critic_steps": 1.5}),
        lambda c: c["spec"].update(prn={"w_adv": 0.1, "w_dist": 0.5}),
        lambda c: c["spec"].update(ki_hidden=0),
        lambda c: c["spec"].update(ii_base=0),
        lambda c: c["spec"].update(fu_hidden=0),
        lambda c: c["spec"].update(seed=-1),
        lambda c: c["spec"].update(lr=float("inf")),
        lambda c: c["spec"].update(prn={"hidden": 0}),
        lambda c: c["spec"].update(prn={"epochs": 0}),
        lambda c: c["spec"].update(prn={"critic_steps": 0}),
        lambda c: c["spec"].update(prn={"lr_re": -1e-3}),
        lambda c: c["spec"].update(prn={"gp_coeff": -1.0}),
        lambda c: c["spec"].update(family="vs_rsn", lam=3, alpha=float("nan")),
        lambda c: c["spec"].update(family="vs_rsn", lam=3, alpha=float("inf")),
        lambda c: c["spec"].update(prn={"w_adv": float("inf")}),
        lambda c: c["spec"].update(prn={"w_dist": float("nan")}),
    ])
    def test_bad_config_exits_2(self, ds_dir, tmp_path, mutate, capsys):
        cfg = {"schema": 1, "spec": spec_dict(), "dataset": str(ds_dir),
               "out": str(tmp_path / "out")}
        mutate(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 2
        assert not (tmp_path / "out" / "checkpoint.rtc").exists()   # failed before training

    @pytest.mark.parametrize("field, value", [
        ("dataset", 5), ("dataset", None), ("out", ["out"]),
        ("stage1_checkpoint", 5), ("stage1_checkpoint", {}),
        ("spec", []), ("spec", 5), ("spec", None)], ids=str)
    def test_wrongly_typed_config_field_exits_2(self, ds_dir, tmp_path, capsys,
                                                field, value):
        cfg = write_config(tmp_path / "cfg.json", spec_dict(), ds_dir, tmp_path / "out")
        raw = json.loads(cfg.read_text())
        raw[field] = value
        cfg.write_text(json.dumps(raw))
        assert main(["train", "--config", str(cfg)]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_exits_2_before_training(self, ds_multi_dir, tmp_path,
                                                      alpha, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           dict(spec_dict(family="vs_rsn", lam=3.0), alpha=alpha),
                           ds_multi_dir, tmp_path / "out")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "alpha" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_and_invalid_config_files(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "none.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["train", "--config", str(bad)]) == 2

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", spec_dict(),
                           tmp_path / "no_such_dataset", tmp_path / "out")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "manifest" in capsys.readouterr().err

    def test_manifest_without_files_exits_2(self, ds_dir, tmp_path, capsys):
        manifest = json.loads((ds_dir / "manifest.json").read_text())
        manifest.pop("files")
        bad = tmp_path / "ds"
        bad.mkdir()
        (bad / "manifest.json").write_text(json.dumps(manifest))
        cfg = write_config(tmp_path / "cfg.json", spec_dict(), bad,
                           tmp_path / "out")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "files" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["target", "us_kspace", "us_image"])
    def test_sample_without_array_exits_2(self, ds_dir, tmp_path, capsys, entry):
        bad = tmp_path / "ds"
        bad.mkdir()
        manifest = json.loads((ds_dir / "manifest.json").read_text())
        (bad / "manifest.json").write_text(json.dumps(manifest))
        for f in manifest["files"]:
            box = RtcContainer.read(ds_dir / f["file"])
            if f is manifest["files"][0]:
                box.entries.pop(entry)
            box.write(bad / f["file"])
        cfg = write_config(tmp_path / "cfg.json", spec_dict(), bad,
                           tmp_path / "out")
        assert main(["train", "--config", str(cfg)]) == 2
        assert entry in capsys.readouterr().err

    def test_golf_requires_stage1_checkpoint(self, ds_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           spec_dict(assists="golf", epochs=1),
                           ds_dir, tmp_path / "out")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "stage1_checkpoint" in capsys.readouterr().err

    def test_golf_with_stage1_checkpoint(self, ds_dir, run_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           spec_dict(assists="golf", epochs=1),
                           ds_dir, tmp_path / "out",
                           stage1_checkpoint=str(run_dir / "checkpoint.rtc"))
        assert main(["train", "--config", str(cfg)]) == 0
        rec = cas.load_checkpoint(tmp_path / "out" / "checkpoint.rtc")
        assert rec.golf is not None and rec.stage1 is not None

    def test_golf_on_empty_train_split_exits_2(self, run_dir, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["make-dataset", "--kind", "single", "--n", "1", "--size", "32",
                     "--accel", "4", "--mask", "cartesian", "--out", str(ds)]) == 0
        assert not load_dataset(ds).indices("train")
        cfg = write_config(tmp_path / "cfg.json", spec_dict(assists="golf", epochs=1),
                           ds, tmp_path / "out",
                           stage1_checkpoint=str(run_dir / "checkpoint.rtc"))
        assert main(["train", "--config", str(cfg)]) == 2
        assert "nonempty" in capsys.readouterr().err
        assert not (tmp_path / "out" / "checkpoint.rtc").exists()

    def test_stage1_checkpoint_without_golf_exits_2(self, ds_dir, run_dir, tmp_path,
                                                    capsys):
        cfg = write_config(tmp_path / "cfg.json", spec_dict(epochs=1), ds_dir,
                           tmp_path / "out",
                           stage1_checkpoint=str(run_dir / "checkpoint.rtc"))
        assert main(["train", "--config", str(cfg)]) == 2
        assert "stage1_checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "out" / "checkpoint.rtc").exists()

    def test_divergence_exits_3_with_diagnostics(self, ds_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           spec_dict(lr=1e8, epochs=8), ds_dir,
                           tmp_path / "out")
        assert main(["train", "--config", str(cfg)]) == 3
        diag = strict_json(tmp_path / "out" / "diagnostics.json")
        assert "epoch" in diag and "grad_norm" in diag["diagnostics"]
        # the loss was non-finite before backward: the norm and step reported
        # are the last finite update's, not the just-zeroed gradients'
        d = diag["diagnostics"]
        assert d["last_loss"] is None and d["grad_norm"] > 0
        assert d["grad_step"] < [diag["epoch"], diag["batch"]]
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_guidance_module_exits_3(self, ds_dir, tmp_path):
        base = tmp_path / "base"
        cfg = write_config(tmp_path / "base.json", TINY_SPEC, ds_dir, base)
        assert main(["train", "--config", str(cfg)]) == 0
        cfg = write_config(tmp_path / "cfg.json",
                           dict(TINY_SPEC, assists="golf", batch=16, lr=1e4), ds_dir,
                           tmp_path / "out", stage1_checkpoint=str(base / "checkpoint.rtc"))
        assert main(["train", "--config", str(cfg)]) == 3
        diag = strict_json(tmp_path / "out" / "diagnostics.json")
        assert diag["diagnostics"]["stage"] == "golf_validation"
        assert not (tmp_path / "out" / "report.json").exists()

    def test_non_finite_kept_weight_exits_3_and_saves_nothing(self, ds_dir, tmp_path,
                                                              capsys, monkeypatch):
        # -inf in the bias of the KI refinement's ReLU conv: that channel is 0
        # after the ReLU, so loss, gradient norm and validation stay finite
        name, step = "block0.ki.refine1.b", ad.adam_step

        def poisoned(param, state, *args, **kwargs):
            step(param, state, *args, **kwargs)
            if param.name == name:
                param.data[0] = -np.inf

        monkeypatch.setattr(ad, "adam_step", poisoned)
        cfg = write_config(tmp_path / "cfg.json", spec_dict(), ds_dir, tmp_path / "out")
        assert main(["train", "--config", str(cfg)]) == 3
        assert f"non-finite weight model/{name}" in capsys.readouterr().err
        diag = strict_json(tmp_path / "out" / "diagnostics.json")
        assert diag["diagnostics"] == {"stage": "train", "parameter": f"model/{name}"}
        assert not (tmp_path / "out" / "checkpoint.rtc").exists()
        assert not (tmp_path / "out" / "report.json").exists()

    def test_refiner_config_attaches_refiner(self, ds_dir, tmp_path):
        spec = spec_dict(epochs=1,
                         prn={"hidden": 8, "critic_base": 4, "w_dist": 0.5,
                              "epochs": 1, "critic_steps": 1})
        cfg = write_config(tmp_path / "cfg.json", spec, ds_dir,
                           tmp_path / "out")
        assert main(["train", "--config", str(cfg)]) == 0
        rec = cas.load_checkpoint(tmp_path / "out" / "checkpoint.rtc")
        assert rec.prn is not None
        report = strict_json(tmp_path / "out" / "report.json")
        assert np.isfinite(report["extra"]["wasserstein"]).all()
        cas.validate_train_report(report["extra"]["base"])

    def test_report_matches_library(self, ds_dir, tmp_path):
        spec = spec_dict(epochs=1, prn={"hidden": 4, "critic_base": 4, "w_dist": 0.5,
                                        "epochs": 1, "critic_steps": 1})
        cfg = write_config(tmp_path / "cfg.json", spec, ds_dir, tmp_path / "out")
        assert main(["train", "--config", str(cfg)]) == 0
        got = json.loads((tmp_path / "out" / "report.json").read_text())
        want = json.loads(json.dumps(cas.train(cas.CascadeSpec.from_dict(spec),
                                               load_dataset(ds_dir)).to_dict()))
        for d in (got, want, got["extra"]["base"], want["extra"]["base"]):
            d.pop("wall_seconds"), d.pop("checkpoint")
        assert got == want


class TestReconstructCmd:
    def test_writes_ordered_outputs(self, recon_dir, ds_dir, capsys):
        ds = load_dataset(ds_dir)
        val_ids = [ds.samples[i]["id"] for i in ds.indices("val")]
        files = sorted(recon_dir.glob("*.rtc"))
        assert [f.stem for f in files] == sorted(val_ids)
        box = RtcContainer.read(files[0])
        assert box.entries["image"].shape == (2, 32, 32)
        assert box.entries["zf"].shape == (2, 32, 32)

    def test_matches_library_bit_exact(self, recon_dir, run_dir, ds_dir):
        rec = cas.load_checkpoint(run_dir / "checkpoint.rtc")
        ds = load_dataset(ds_dir)
        staged = ds.staged
        i = ds.indices("val")[0]
        want = rec.reconstruct(staged[i], ds.mask)
        got = RtcContainer.read(recon_dir / f"{staged[i]['id']}.rtc").entries["image"]
        assert np.array_equal(got, np.stack([want.real, want.imag]))

    def test_check_passes_on_fresh_outputs(self, recon_dir, run_dir, ds_dir,
                                           capsys):
        code = main(["reconstruct", "--checkpoint",
                     str(run_dir / "checkpoint.rtc"), "--dataset", str(ds_dir),
                     "--split", "val", "--out", str(recon_dir), "--check"])
        assert code == 0
        assert "check passed" in capsys.readouterr().out

    def test_check_detects_tampering(self, run_dir, ds_dir, tmp_path, capsys):
        out = tmp_path / "r"
        args = ["reconstruct", "--checkpoint", str(run_dir / "checkpoint.rtc"),
                "--dataset", str(ds_dir), "--split", "val", "--out", str(out)]
        assert main(args) == 0
        victim = sorted(out.glob("*.rtc"))[0]
        box = RtcContainer.read(victim)
        box.entries["image"] = box.entries["image"] + 0.05
        box.write(victim)
        assert main(args + ["--check"]) == 3
        assert "consistency violated" in capsys.readouterr().err

    def test_check_fails_a_nan_output(self, run_dir, ds_dir, tmp_path, capsys):
        out = tmp_path / "r"
        args = ["reconstruct", "--checkpoint", str(run_dir / "checkpoint.rtc"),
                "--dataset", str(ds_dir), "--split", "val", "--out", str(out)]
        assert main(args) == 0
        victim = sorted(out.glob("*.rtc"))[-1]
        box = RtcContainer.read(victim)
        box.entries["image"] = np.full_like(box.entries["image"], np.nan)
        box.write(victim)
        assert main(args + ["--check"]) == 3
        err = capsys.readouterr().err
        assert f"consistency violated for {victim.stem}: nan" in err
        assert "1 of 2 outputs" in err

    def test_non_finite_reconstruction_exits_3_before_writing_it(
            self, run_dir, ds_dir, tmp_path, capsys, monkeypatch):
        ds = load_dataset(ds_dir)
        first, second = (ds.samples[i]["id"] for i in ds.indices("val"))
        reconstruct = cas.Reconstructor.reconstruct

        def nan_on_second(rec, sample, mask):
            out = reconstruct(rec, sample, mask)
            if sample["id"] == second:
                out[3, 4] = np.nan
            return out

        monkeypatch.setattr(cas.Reconstructor, "reconstruct", nan_on_second)
        out = tmp_path / "r"
        assert main(["reconstruct", "--checkpoint", str(run_dir / "checkpoint.rtc"),
                     "--dataset", str(ds_dir), "--split", "val", "--out", str(out)]) == 3
        assert f"reconstruction of {second} is not finite" in capsys.readouterr().err
        assert (out / f"{first}.rtc").exists() and not (out / f"{second}.rtc").exists()

    # a NaN in ki.refine1.w does not show in the images: the fused ReLU maps it to 0
    @pytest.mark.parametrize("run, entry, value", [
        ("fu_dir", "model/block0.fu.c5.b", np.inf),
        ("run_dir", "model/block0.ki.refine1.w", np.nan)], ids=["fu_inf", "ki_nan"])
    def test_non_finite_weight_exits_2(self, request, ds_dir, tmp_path, capsys,
                                       run, entry, value):
        box = RtcContainer.read(request.getfixturevalue(run) / "checkpoint.rtc")
        box.entries[entry] = box.entries[entry].copy()
        box.entries[entry].flat[0] = value
        bad = tmp_path / "bad.rtc"
        box.write(bad)
        assert main(["reconstruct", "--checkpoint", str(bad), "--dataset",
                     str(ds_dir), "--out", str(tmp_path / "out")]) == 2
        assert f"entry {entry} is not finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        (None, None), ("eps", float("nan")), ("eps", "x"), ("eps", -1.0),
        ("eps", float("inf")), ("feature_depth", 0), ("base", 2.5), ("depth", True),
        ("trained", 1)], ids=["valid", "eps_nan", "eps_str", "eps_neg", "eps_inf",
                              "feature_depth_0", "base_float", "depth_bool", "trained_int"])
    def test_golf_meta_is_checked(self, golf_dir, ds_dir, tmp_path, capsys, key, value):
        box = RtcContainer.read(golf_dir / "checkpoint.rtc")
        info = box.get_json("meta")
        if key is not None:
            info["golf"][key] = value
        del box.entries["meta"]
        box.add_json("meta", info)
        bad = tmp_path / "golf.rtc"
        box.write(bad)
        code = main(["reconstruct", "--checkpoint", str(bad), "--dataset", str(ds_dir),
                     "--out", str(tmp_path / "out")])
        if key is None:
            assert code == 0
        else:
            assert code == 2
            assert f"golf meta {key} must be" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    # w_dist above w_adv is reported as a w_adv below it
    @pytest.mark.parametrize("key, value, named", [
        (None, None, None), ("w_adv", "x", "w_adv"), ("hidden", 2.5, "hidden"),
        ("channels", 0, "channels"), ("w_adv", float("nan"), "w_adv"),
        ("w_dist", -1.0, "w_dist"), ("critic_base", True, "critic_base"),
        ("w_adv", float("inf"), "w_adv"), ("w_dist", 2.0, "w_adv")],
        ids=["valid", "w_adv_str", "hidden_float", "channels_0", "w_adv_nan",
             "w_dist_neg", "critic_base_bool", "w_adv_inf", "w_dist_above_w_adv"])
    def test_prn_meta_is_checked(self, prn_dir, ds_dir, tmp_path, capsys, key, value,
                                 named):
        box = RtcContainer.read(prn_dir / "checkpoint.rtc")
        info = box.get_json("meta")
        if key is not None:
            info["prn"][key] = value
        del box.entries["meta"]
        box.add_json("meta", info)
        bad = tmp_path / "prn.rtc"
        box.write(bad)
        code = main(["reconstruct", "--checkpoint", str(bad), "--dataset", str(ds_dir),
                     "--out", str(tmp_path / "out")])
        if key is None:
            assert code == 0
        else:
            assert code == 2
            assert f"prn meta {named} must be" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_check_without_outputs_is_usage_error(self, run_dir, ds_dir,
                                                  tmp_path):
        assert main(["reconstruct", "--checkpoint",
                     str(run_dir / "checkpoint.rtc"), "--dataset", str(ds_dir),
                     "--split", "val", "--out", str(tmp_path / "empty"),
                     "--check"]) == 2

    @pytest.mark.parametrize("meta", [b"{oops", b'{"format": 1}', None],
                             ids=["not_json", "format_only", "no_meta"])
    def test_malformed_checkpoint_meta_exits_2(self, run_dir, ds_dir, tmp_path,
                                               capsys, meta):
        box = RtcContainer.read(run_dir / "checkpoint.rtc")
        del box.entries["meta"]
        if meta is not None:
            box.add("meta", np.frombuffer(meta, dtype=np.uint8).copy())
        bad = tmp_path / "bad.rtc"
        box.write(bad)
        assert main(["reconstruct", "--checkpoint", str(bad), "--dataset",
                     str(ds_dir), "--out", str(tmp_path / "out")]) == 2
        assert "meta" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [{"n_b": "2"}, {"lam": [1]}, {"seed": "x"}],
                             ids=str)
    def test_wrongly_typed_checkpoint_spec_exits_2(self, run_dir, ds_dir, tmp_path,
                                                   capsys, bad):
        box = RtcContainer.read(run_dir / "checkpoint.rtc")
        meta = box.get_json("meta")
        meta["spec"].update(bad)
        del box.entries["meta"]
        box.add_json("meta", meta)
        path = tmp_path / "bad.rtc"
        box.write(path)
        assert main(["reconstruct", "--checkpoint", str(path), "--dataset",
                     str(ds_dir), "--out", str(tmp_path / "out")]) == 2
        assert next(iter(bad)) in capsys.readouterr().err

    def test_huge_checkpoint_width_exits_2(self, run_dir, ds_dir, tmp_path, capsys):
        # 10**12 channels is past the address space, so the allocation fails at once
        box = RtcContainer.read(run_dir / "checkpoint.rtc")
        meta = box.get_json("meta")
        meta["spec"]["ki_hidden"] = 10 ** 12
        del box.entries["meta"]
        box.add_json("meta", meta)
        path = tmp_path / "huge.rtc"
        box.write(path)
        assert main(["reconstruct", "--checkpoint", str(path), "--dataset",
                     str(ds_dir), "--out", str(tmp_path / "out")]) == 2
        assert "cannot build" in capsys.readouterr().err

    def test_family_mismatch_exits_2(self, run_dir, ds_multi_dir):
        assert main(["reconstruct", "--checkpoint",
                     str(run_dir / "checkpoint.rtc"), "--dataset",
                     str(ds_multi_dir), "--out", "/tmp/unused"]) == 2

    def test_missing_dataset_exits_2(self, run_dir, tmp_path):
        assert main(["reconstruct", "--checkpoint",
                     str(run_dir / "checkpoint.rtc"), "--dataset",
                     str(tmp_path / "no_such_dataset"),
                     "--out", str(tmp_path / "out")]) == 2

    def test_all_split_covers_every_sample(self, run_dir, ds_dir, tmp_path):
        out = tmp_path / "all"
        assert main(["reconstruct", "--checkpoint",
                     str(run_dir / "checkpoint.rtc"), "--dataset", str(ds_dir),
                     "--split", "all", "--out", str(out)]) == 0
        assert len(list(out.glob("*.rtc"))) == 10


class TestEvaluateCmd:
    def test_csv_counts_and_parity_with_library(self, recon_dir, ds_dir,
                                                run_dir, tmp_path):
        csv = tmp_path / "m.csv"
        assert main(["evaluate", "--recon", str(recon_dir), "--target",
                     str(ds_dir), "--out", str(csv)]) == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "slice_id,psnr_db,ssim,vif"
        assert len(lines) == 1 + 2 + 1   # header + 2 val slices + mean row
        assert lines[-1].startswith("mean,")

        rec = cas.load_checkpoint(run_dir / "checkpoint.rtc")
        ds = load_dataset(ds_dir)
        want = cas.evaluate_model(rec, ds, "val")
        got_mean = [float(v) for v in lines[-1].split(",")[1:]]
        assert abs(got_mean[0] - want.mean("psnr_db")) < 1e-9
        assert abs(got_mean[1] - want.mean("ssim")) < 1e-9
        assert abs(got_mean[2] - want.mean("vif")) < 1e-9

    def test_identical_dirs_score_perfectly(self, recon_dir, tmp_path):
        csv = tmp_path / "self.csv"
        assert main(["evaluate", "--recon", str(recon_dir), "--target",
                     str(recon_dir), "--out", str(csv)]) == 0
        for line in csv.read_text().strip().split("\n")[1:]:
            _, _, ssim, vif = line.split(",")
            assert float(ssim) == 1.0
            assert float(vif) == 1.0

    def test_id_mismatch_lists_orphans(self, recon_dir, tmp_path, capsys):
        clone = tmp_path / "clone"
        clone.mkdir()
        files = sorted(recon_dir.glob("*.rtc"))
        for f in files[:-1]:
            (clone / f.name).write_bytes(f.read_bytes())
        code = main(["evaluate", "--recon", str(recon_dir), "--target",
                     str(clone), "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert files[-1].stem in capsys.readouterr().err

    def test_unknown_recon_id_vs_dataset(self, recon_dir, ds_dir, tmp_path,
                                         capsys):
        clone = tmp_path / "clone"
        clone.mkdir()
        for f in recon_dir.glob("*.rtc"):
            (clone / f.name).write_bytes(f.read_bytes())
        rogue = sorted(clone.glob("*.rtc"))[0]
        rogue.rename(clone / "zz_unknown.rtc")
        assert main(["evaluate", "--recon", str(clone), "--target",
                     str(ds_dir), "--out", str(tmp_path / "m.csv")]) == 2
        assert "zz_unknown" in capsys.readouterr().err

    def test_plot_file_written(self, recon_dir, ds_dir, tmp_path):
        svg = tmp_path / "box.svg"
        assert main(["evaluate", "--recon", str(recon_dir), "--target",
                     str(ds_dir), "--out", str(tmp_path / "m.csv"),
                     "--plot", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "psnr_db" in text and "ssim" in text and "vif" in text

    def test_recon_without_image_entry_exits_2(self, recon_dir, ds_dir,
                                               tmp_path, capsys):
        clone = tmp_path / "clone"
        clone.mkdir()
        for f in recon_dir.glob("*.rtc"):
            (clone / f.name).write_bytes(f.read_bytes())
        victim = sorted(clone.glob("*.rtc"))[0]
        box = RtcContainer.read(victim)
        del box.entries["image"]
        box.write(victim)
        assert main(["evaluate", "--recon", str(clone), "--target",
                     str(ds_dir), "--out", str(tmp_path / "m.csv")]) == 2
        assert "image" in capsys.readouterr().err

    def test_non_finite_recon_exits_2(self, recon_dir, ds_dir, tmp_path, capsys):
        clone = tmp_path / "clone"
        clone.mkdir()
        for f in recon_dir.glob("*.rtc"):
            (clone / f.name).write_bytes(f.read_bytes())
        victim = sorted(clone.glob("*.rtc"))[0]
        box = RtcContainer.read(victim)
        box.entries["image"][1, 5, 6] = np.nan
        box.write(victim)
        csv = tmp_path / "m.csv"
        assert main(["evaluate", "--recon", str(clone), "--target",
                     str(ds_dir), "--out", str(csv)]) == 2
        assert f"{victim}: image entry is not finite" in capsys.readouterr().err
        assert not csv.exists()

    def test_empty_recon_dir(self, ds_dir, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["evaluate", "--recon", str(empty), "--target",
                     str(ds_dir), "--out", str(tmp_path / "m.csv")]) == 2


@pytest.fixture(scope="module")
def tiny_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("clitiny")
    for kind in ("single", "paired", "multi"):
        make_dataset(kind, 6, 32, 4, "cartesian", seed=2, n_coils=2, out_dir=root / kind)
    return {kind: root / kind for kind in ("single", "paired", "multi")}


class TestTrainContract:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=15)
    @given(spec_dicts())
    @example(dict(TINY_SPEC, lr=1e308))
    @example(dict(TINY_SPEC, family="vs_rsn", lam=3, alpha=float("nan")))
    @example(dict(TINY_SPEC, prn={"w_adv": float("inf")}))
    @example(dict(TINY_SPEC, ki_hidden=10 ** 12))
    @example(dict(TINY_SPEC, prn={"hidden": 10 ** 12}))
    def test_exit_code_is_0_2_or_3(self, tiny_dirs, tmp_path_factory, d):
        run = tmp_path_factory.mktemp("contract")
        cfg = write_config(run / "cfg.json", d, tiny_dirs[dataset_kind(d)], run / "out")
        code = main(["train", "--config", str(cfg)])
        assert code in (0, 2, 3)
        # a run that trains or aborts writes strict JSON
        for name in {0: ["report.json"], 3: ["diagnostics.json"]}.get(code, []):
            strict_json(run / "out" / name)
