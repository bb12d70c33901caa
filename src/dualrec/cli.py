"""Command-line front end for the whole pipeline.

Subcommands: make-dataset, make-mask, train, reconstruct, evaluate.
Training runs from a strict JSON config (schema 1, unknown keys rejected);
every run writes the fully resolved config next to its outputs so any
reported number can be regenerated.  Exit codes: 0 success, 2 usage or
configuration errors and malformed inputs (a non-finite checkpoint weight or
image to evaluate included), 3 numeric failures (diverged training, a
non-finite reconstruction, failed consistency check).
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import cascade as cas
from .errors import ConfigError, ContainerError, DualrecError, NumericError
from .errors import TrainAbortError
from .fourier import fft2c
from .masks import MASK_KINDS, make_mask
from .metrics import MetricReport, compare
from .phantoms import (DATASET_KINDS, RtcContainer, load_dataset,
                       make_dataset, write_mask_file)

_CONFIG_KEYS = {"schema", "spec", "dataset", "out", "stage1_checkpoint"}


def load_run_config(path):
    """Parse and validate a training config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config {path} does not exist")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if raw.get("schema") != 1:
        raise ConfigError(f"config schema must be 1, got {raw.get('schema')!r}")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    for key in ("spec", "dataset", "out"):
        if key not in raw:
            raise ConfigError(f"config is missing required field {key!r}")
    for key in ("dataset", "out", "stage1_checkpoint"):
        v = raw.get(key)
        if not isinstance(v, str) and not (key == "stage1_checkpoint" and v is None):
            kind = "a string or null" if key == "stage1_checkpoint" else "a string"
            raise ConfigError(f"config field {key!r} must be {kind}, got {v!r:.200}")
    return {"spec": cas.CascadeSpec.from_dict(raw["spec"]),
            "dataset": raw["dataset"], "out": raw["out"],
            "stage1_checkpoint": raw.get("stage1_checkpoint")}


def resolved_config_dict(spec, dataset, out, stage1_checkpoint):
    return {"schema": 1, "spec": spec.to_dict(), "dataset": str(dataset),
            "out": str(out), "stage1_checkpoint":
            None if stage1_checkpoint is None else str(stage1_checkpoint)}


def cmd_make_dataset(args):
    make_dataset(args.kind, args.n, args.size, args.accel, args.mask,
                 seed=args.seed, out_dir=args.out, n_coils=args.coils,
                 noise_sigma=args.noise,
                 center_fraction=args.center_fraction)
    print(Path(args.out) / "manifest.json")
    return 0


def cmd_make_mask(args):
    mask = make_mask(args.kind, args.size, args.size, args.accel,
                     seed=args.seed, center_fraction=args.center_fraction)
    write_mask_file(mask, args.out)
    print(args.out)
    return 0


def cmd_train(args):
    cfg = load_run_config(args.config)
    if args.dataset is not None:
        cfg["dataset"] = args.dataset
    if args.out is not None:
        cfg["out"] = args.out
    if args.stage1_checkpoint is not None:
        cfg["stage1_checkpoint"] = args.stage1_checkpoint
    spec = cfg["spec"]
    if spec.assists in ("golf", "t1_golf") and not cfg["stage1_checkpoint"]:
        raise ConfigError(
            f"assists {spec.assists!r} requires the config field "
            "'stage1_checkpoint' (train the base model first)")
    dataset = load_dataset(cfg["dataset"])
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(
        resolved_config_dict(spec, cfg["dataset"], out,
                             cfg["stage1_checkpoint"]), indent=1))
    try:
        report = cas.train(spec, dataset, out_dir=out,
                           stage1_checkpoint=cfg["stage1_checkpoint"])
    except TrainAbortError as exc:
        (out / "diagnostics.json").write_text(json.dumps(
            {"error": str(exc), "epoch": exc.epoch, "batch": exc.batch,
             "diagnostics": exc.diagnostics}, indent=1, allow_nan=False))
        print(f"aborted; diagnostics written to {out / 'diagnostics.json'}",
              file=sys.stderr)
        raise
    d = report.to_dict()
    cas.validate_train_report(d)
    (out / "report.json").write_text(json.dumps(d, indent=1, allow_nan=False))
    print(out / "report.json")
    return 0


def _reconstruct_ids(dataset, split):
    if split == "all":
        return list(range(len(dataset)))
    return dataset.indices(split)


def cmd_reconstruct(args):
    rec = cas.load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.dataset)
    cas._check_dataset(rec.spec, dataset)    # family vs kind, sizes
    ids = _reconstruct_ids(dataset, args.split)
    out = Path(args.out)
    staged = dataset.staged
    if args.check:
        return _check_outputs(rec, dataset, staged, ids, out)
    out.mkdir(parents=True, exist_ok=True)
    for i in ids:
        s = staged[i]
        recon = rec.reconstruct(s, dataset.mask)
        if not np.isfinite(recon).all():
            raise NumericError(f"reconstruction of {s['id']} is not finite")
        box = RtcContainer()
        box.add("image", np.stack([recon.real, recon.imag]))
        box.add("zf", s["us_image"])
        box.add_json("info", {"schema": 1, "id": s["id"]})
        path = out / f"{s['id']}.rtc"
        box.write(path)
        print(path)
    return 0


def _check_outputs(rec, dataset, staged, ids, out):
    """Verify previously written reconstructions keep the measured
    frequencies.  Read-only: tampering is detected, not repaired."""
    if rec.spec.family == "vs_rsn":
        raise ConfigError("--check applies to single-coil reconstructions; "
                          "the coil-combined output is not spectrum-pinned")
    bad = []
    for i in ids:
        s = staged[i]
        path = out / f"{s['id']}.rtc"
        if not path.exists():
            raise ConfigError(f"missing output {path}; run reconstruct "
                              "without --check first")
        arr = RtcContainer.read(path).get("image")
        spec_out = fft2c(arr[0] + 1j * arr[1])
        err = np.abs(spec_out[dataset.mask.bits] -
                     s["us_k"][dataset.mask.bits]).max()
        if not err <= 1e-8:    # a NaN error fails too
            bad.append((s["id"], float(err)))
    if bad:
        for sid, err in bad:
            print(f"consistency violated for {sid}: {err:g}", file=sys.stderr)
        raise NumericError(f"{len(bad)} of {len(ids)} outputs failed the "
                           "sampled-frequency check")
    print(f"check passed: {len(ids)} files")
    return 0


def _read_image_dir(path):
    """{id: magnitude} from a directory of per-sample RTC files."""
    files = sorted(Path(path).glob("*.rtc"))
    out = {}
    for f in files:
        arr = RtcContainer.read(f).get("image").astype(np.float64)
        if not np.isfinite(arr).all():
            raise ContainerError(f"{f}: image entry is not finite")
        out[f.stem] = np.hypot(arr[0], arr[1]) if arr.ndim == 3 else arr
    return out


def cmd_evaluate(args):
    recons = _read_image_dir(args.recon)
    if not recons:
        raise ConfigError(f"no .rtc files under {args.recon}")
    target_path = Path(args.target)
    from_dataset = (target_path / "manifest.json").exists() or \
        target_path.name == "manifest.json"
    if from_dataset:
        ds = load_dataset(args.target)
        targets = {s["id"]: s["target_mag"] for s in ds.staged}
        orphans = sorted(set(recons) - set(targets))
        if orphans:
            raise ConfigError(f"recon ids missing from targets: {orphans}")
    else:
        targets = _read_image_dir(args.target)
        a = sorted(set(recons) - set(targets))
        b = sorted(set(targets) - set(recons))
        if a or b:
            raise ConfigError(f"id mismatch: only-in-recon={a} "
                              f"only-in-target={b}")
    report = MetricReport()
    for sid in sorted(recons):
        report.add(compare(recons[sid], targets[sid], sid, data_range=1.0))
    lines = ["slice_id,psnr_db,ssim,vif"]
    for r in report.records:
        lines.append(f"{r.slice_id},{r.psnr_db:.12g},{r.ssim:.12g},{r.vif:.12g}")
    lines.append(f"mean,{report.mean('psnr_db'):.12g},"
                 f"{report.mean('ssim'):.12g},{report.mean('vif'):.12g}")
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    if args.plot is not None:
        _box_plot_svg(report, args.plot)
    print(out)
    return 0


def _box_plot_svg(report, path):
    """One box (min/q1/median/q3/max whisker plot) per metric, each on its
    own vertical scale.  Plain hand-rolled SVG so there is no plotting
    dependency."""
    width, height, top, bottom = 420, 240, 30, 200
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" font-family="monospace" font-size="10">']
    for k, name in enumerate(("psnr_db", "ssim", "vif")):
        vals = np.array([getattr(r, name) for r in report.records])
        lo, hi = float(vals.min()), float(vals.max())
        span = (hi - lo) or 1.0
        lo, hi = lo - 0.05 * span, hi + 0.05 * span

        def y(v):
            return bottom - (v - lo) / (hi - lo) * (bottom - top)

        q1, med, q3 = (float(np.percentile(vals, p)) for p in (25, 50, 75))
        cx = 70 + 140 * k
        parts.append(f'<line x1="{cx}" y1="{y(vals.min()):.1f}" x2="{cx}" '
                     f'y2="{y(vals.max()):.1f}" stroke="black"/>')
        parts.append(f'<rect x="{cx - 25}" y="{y(q3):.1f}" width="50" '
                     f'height="{max(1.0, y(q1) - y(q3)):.1f}" fill="lightsteelblue" '
                     'stroke="black"/>')
        parts.append(f'<line x1="{cx - 25}" y1="{y(med):.1f}" x2="{cx + 25}" '
                     f'y2="{y(med):.1f}" stroke="black" stroke-width="2"/>')
        parts.append(f'<text x="{cx - 25}" y="{bottom + 14}">{name}</text>')
        parts.append(f'<text x="{cx - 25}" y="{bottom + 26}">med {med:.4g}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dualrec",
        description="Cascaded dual-domain MRI reconstruction on synthetic phantoms")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-dataset", help="generate a phantom dataset")
    p.add_argument("--kind", required=True, choices=DATASET_KINDS)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--size", required=True, type=int)
    p.add_argument("--accel", required=True, type=float)
    p.add_argument("--mask", required=True, choices=MASK_KINDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--coils", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--center-fraction", type=float, default=None)
    p.set_defaults(func=cmd_make_dataset)

    p = sub.add_parser("make-mask", help="generate one sampling mask file")
    p.add_argument("--kind", required=True, choices=MASK_KINDS)
    p.add_argument("--size", required=True, type=int)
    p.add_argument("--accel", required=True, type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--center-fraction", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_mask)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", default=None, help="override config dataset")
    p.add_argument("--out", default=None, help="override config out dir")
    p.add_argument("--stage1-checkpoint", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reconstruct", help="run a checkpoint over a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", choices=("train", "val", "all"), default="val")
    p.add_argument("--out", required=True)
    p.add_argument("--check", action="store_true",
                   help="verify previously written outputs instead of writing")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("evaluate", help="score reconstructions into a CSV")
    p.add_argument("--recon", required=True, help="directory of .rtc outputs")
    p.add_argument("--target", required=True,
                   help="dataset dir/manifest, or another .rtc directory")
    p.add_argument("--out", required=True, help="CSV path")
    p.add_argument("--plot", default=None, help="optional box-plot SVG path")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DualrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
