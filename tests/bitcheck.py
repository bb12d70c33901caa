"""Hash what training, dataset generation and mask generation produce, so that
a change which must keep every bit can be checked with one command.

    python tests/bitcheck.py                        # JSON object: run -> SHA-256
    python tests/bitcheck.py REV                    # the same on git revision REV,
                                                    # then the runs that differ
    python tests/bitcheck.py REV --acceptance       # and the acceptance lines

With REV, the tree of REV is extracted with ``git archive`` into a temporary
directory, and this same script runs in a subprocess on that tree's ``src``.
The runs whose hashes differ are printed, and the exit status is 1 if any
differ.  With ``--acceptance``, ``tests/test_acceptance.py -s`` also runs on
both trees, each on its own ``src`` and tests, and the twelve "criterion"
lines it prints are compared with wall times ("53s") masked.  Each line is
printed; a line that differs, or a missing one, is printed with the other
tree's and makes the exit status 1.  The temporary tree
is removed however the comparison ends.

A training run hashes its TrainReport.to_dict() without ``wall_seconds`` and
``checkpoint`` (the same for ``extra["base"]`` and the stage-1 report), every
trained weight of the model, stage-1, guidance and refiner groups, the
checkpoint bytes and the reconstructions of the validation split.  A dataset
entry hashes every file make_dataset writes; a mask entry the bits of its kind
at 32x32 and 64x64, at 4x and 8x, or the error a combination raises.
Everything runs on 8-sample 32x32 datasets in one temporary directory, in a
few seconds.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

if __name__ == "__main__":    # import dualrec from the tree --src names
    sys.path.insert(0, sys.argv[sys.argv.index("--src") + 1]
                    if "--src" in sys.argv else str(REPO / "src"))

import numpy as np  # noqa: E402

from dualrec import cascade as cas  # noqa: E402
from dualrec.errors import DualrecError  # noqa: E402
from dualrec.masks import MASK_KINDS, make_mask  # noqa: E402
from dualrec.phantoms import load_dataset, make_dataset  # noqa: E402

BASE_SPEC = dict(family="dc_rsn", n_b=1, mode="fu_with_us", size=32, ki_hidden=2,
                 ii_base=2, ii_depth=1, fu_hidden=4, golf_feature_depth=2,
                 golf_base=2, golf_depth=1, seed=0, epochs=3, batch=4, lr=1e-3)

_THIN = dict(ki_hidden=8, ii_base=8, fu_hidden=24)

# name -> (dataset kind, spec fields over BASE_SPEC); every "retry_" run halves
# its learning rate once, and "golf_stage1_checkpoint" first trains its base
# model to a checkpoint
RUNS = {
    "dc_rsn_fu_with_us": ("single", {}),
    "dc_rsn_n_b2": ("single", dict(n_b=2, mode="fu")),
    "vs_rsn": ("multi", dict(family="vs_rsn", lam=3.0, batch=2)),
    "retry_lr0.2": ("single", dict(lr=0.2)),
    "retry_ki_then_ii": ("single", dict(mode="ki_then_ii", lr=0.1)),
    "retry_t1_shift": ("paired", dict(assists="t1", t1_shift=1, lr=0.05)),
    "golf": ("single", dict(assists="golf")),
    "golf_stage1_checkpoint": ("single", dict(assists="golf")),
    "t1_golf": ("paired", dict(assists="t1_golf")),
    "prn": ("single", dict(epochs=2, prn={"hidden": 2, "critic_base": 2,
                                          "critic_steps": 2, "epochs": 2})),
    "dc_rsn_mean": ("single", dict(mode="mean")),
    "vs_rsn_mean": ("multi", dict(family="vs_rsn", mode="mean", lam=3.0)),
    # widths at which a first conv is thin (4*C <= F), so its output is
    # recomputed in backward: KI 2->8, II 2->8, Fu 6->24 (8->32 with T1),
    # the guidance UNet 1->4 and the refiner 2->8
    "thin_dc_rsn": ("single", _THIN),
    "thin_vs_rsn": ("multi", dict(_THIN, family="vs_rsn", lam=3.0, batch=2)),
    "thin_t1": ("paired", dict(_THIN, assists="t1", fu_hidden=32)),
    "thin_golf": ("single", dict(_THIN, assists="golf", golf_base=4)),
    "thin_prn": ("single", dict(_THIN, epochs=2, prn={"hidden": 8, "critic_base": 2,
                                                      "critic_steps": 2, "epochs": 2})),
    # a two-level II UNet: a rebuilt max-pool output feeds the second
    # encoder level, and both up-conv outputs are rebuilt
    "deep_unet": ("single", dict(ii_depth=2)),
}

# kind -> make_dataset arguments after kind, n and size
DATASETS = {
    "single": dict(accel=4, mask_kind="radial", seed=3),
    "multi": dict(accel=4, mask_kind="cartesian", seed=7, n_coils=2, noise_sigma=0.01),
    "paired": dict(accel=4, mask_kind="spiral", seed=5),
}


class Hasher:
    """SHA-256 over a sequence of labelled parts."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, label, data):
        if isinstance(data, np.ndarray):
            label = f"{label} {data.dtype.str} {data.shape}"
            data = np.ascontiguousarray(data).tobytes()
        elif not isinstance(data, bytes):
            data = json.dumps(data, sort_keys=True).encode()
        self._h.update(f"{label} {len(data)}\n".encode())
        self._h.update(data)

    def hexdigest(self):
        return self._h.hexdigest()


def report_dict(report):
    """report.to_dict() without what differs between equal runs."""
    d = {k: v for k, v in report.to_dict().items() if k not in ("wall_seconds", "checkpoint")}
    if "base" in d["extra"]:
        d["extra"] = dict(d["extra"], base={k: v for k, v in d["extra"]["base"].items()
                                            if k not in ("wall_seconds", "checkpoint")})
    return d


def hash_report(h, label, report, dataset):
    """Add one trained run: report, stage-1 report, weights, checkpoint and
    validation reconstructions."""
    h.add(f"{label} report", report_dict(report))
    if report.stage1 is not None:
        h.add(f"{label} stage1 report", report_dict(report.stage1))
    rec = report.model
    for group in ("model", "stage1", "golf", "prn"):
        part = getattr(rec, group)
        for name, p in (() if part is None else part.named_parameters()):
            h.add(f"{label} {group}/{name}", p.data)
    h.add(f"{label} checkpoint", Path(report.checkpoint).read_bytes())
    for i in dataset.indices("val"):
        h.add(f"{label} recon {i}", rec.reconstruct(dataset.staged[i], dataset.mask))


def hash_run(name, datasets, out):
    """Train run ``name`` of RUNS into ``out``; returns its hash."""
    kind, fields = RUNS[name]
    spec = cas.CascadeSpec.from_dict(dict(BASE_SPEC, **fields))
    h, stage1_checkpoint = Hasher(), None
    if name == "golf_stage1_checkpoint":
        base = cas.train(replace(spec, assists="none"), datasets[kind], out_dir=out / "base")
        hash_report(h, "base", base, datasets[kind])
        stage1_checkpoint = base.checkpoint
    report = cas.train(spec, datasets[kind], out_dir=out, stage1_checkpoint=stage1_checkpoint)
    if name.startswith("retry_") and not report.retried:
        raise SystemExit(f"bitcheck: run {name} no longer retries its learning rate")
    hash_report(h, name, report, datasets[kind])
    return h.hexdigest()


def hash_files(root):
    h = Hasher()
    for f in sorted(root.iterdir()):
        h.add(f.name, f.read_bytes())
    return h.hexdigest()


def hash_masks(kind):
    h = Hasher()
    for size in (32, 64):
        for accel in (4, 8):
            for seed in (0, 1):
                label = f"{size} {accel} {seed}"
                try:
                    h.add(label, make_mask(kind, size, size, accel, seed=seed).bits)
                except DualrecError as exc:
                    h.add(label, f"{type(exc).__name__}: {exc}")
    return h.hexdigest()


def run_all(names=None):
    """{entry: SHA-256} for the named entries of ``entries()``, or all."""
    names = entries() if names is None else names
    kinds = {RUNS[n][0] if n in RUNS else n.split("/")[1]
             for n in names if not n.startswith("mask/")}
    out = {}
    with tempfile.TemporaryDirectory(prefix="bitcheck-") as tmp:
        tmp, datasets = Path(tmp), {}
        for kind in sorted(kinds):
            make_dataset(kind, 8, 32, out_dir=tmp / kind, **DATASETS[kind])
            datasets[kind] = load_dataset(tmp / kind)
        for name in names:
            if name.startswith("dataset/"):
                out[name] = hash_files(tmp / name.split("/")[1])
            elif name.startswith("mask/"):
                out[name] = hash_masks(name.split("/")[1])
            else:
                out[name] = hash_run(name, datasets, tmp / "runs" / name)
    return out


def entries():
    return ([f"dataset/{k}" for k in DATASETS] + [f"mask/{k}" for k in MASK_KINDS]
            + list(RUNS))


def run_tree(tree, names=None):
    """run_all in a subprocess on the package under ``tree``/src."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--src", str(Path(tree) / "src")]
    if names is not None:
        cmd += ["--only", ",".join(names)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"bitcheck on {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


CRITERIA = 12


def criterion_lines(stdout):
    """The "criterion" lines of an acceptance run's output, without the
    pytest progress marks that may precede one, wall times masked."""
    found = (re.match(r"[.FEsx]*(criterion +\d+ \S.*)", line)
             for line in stdout.splitlines())
    return [re.sub(r"(?<![\w.])\d+s\b", "<t>s", m.group(1)) for m in found if m]


def acceptance_lines(tree):
    """criterion_lines of ``tests/test_acceptance.py -s`` run on ``tree``."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"], cwd=tree, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(tree) / "src")), timeout=3600)
    return criterion_lines(done.stdout)


def compare_acceptance(tree, rev):
    """Print this tree's acceptance lines, with ``tree``'s (git revision
    ``rev``) beside each that differs; returns how many differ or are
    missing."""
    theirs, ours = acceptance_lines(tree), acceptance_lines(REPO)
    differ = 0
    for k in range(max(CRITERIA, len(ours), len(theirs))):
        mine = ours[k] if k < len(ours) else None
        other = theirs[k] if k < len(theirs) else None
        if mine is not None and mine == other:
            print(f"equal: {mine}")
        else:
            differ += 1
            print(f"differs:\n  this tree: {mine or '(missing)'}\n  {rev}: {other or '(missing)'}")
    print(f"{CRITERIA - differ} of {CRITERIA} criterion lines equal to {rev}")
    return differ


def against(rev, acceptance=False):
    """Compare this tree with git revision ``rev``; returns the exit status."""
    with tempfile.TemporaryDirectory(prefix="bitcheck-rev-") as tree:
        archive = subprocess.run(["git", "-C", str(REPO), "archive", rev],
                                 capture_output=True)
        if archive.returncode != 0:
            raise SystemExit(f"git archive {rev} failed: {archive.stderr.decode()}")
        subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout, check=True)
        theirs = run_tree(tree)
        ours = run_all()
        differ = [n for n in ours if ours[n] != theirs.get(n)]
        for n in differ:
            print(f"differs: {n}")
        print(f"{len(ours) - len(differ)} of {len(ours)} runs equal to {rev}")
        lines_differ = compare_acceptance(tree, rev) if acceptance else 0
    return 1 if differ or lines_differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare with")
    parser.add_argument("--only", help="comma-separated entries to run")
    parser.add_argument("--src", help="the package tree to import (set at startup)")
    parser.add_argument("--acceptance", action="store_true",
                        help="with REV, also compare the acceptance suite's criterion lines")
    args = parser.parse_args(argv)
    if args.acceptance and args.rev is None:
        parser.error("--acceptance needs a revision to compare with")
    if args.rev is not None:
        return against(args.rev, args.acceptance)
    names = None if args.only is None else args.only.split(",")
    unknown = sorted(set(names or ()) - set(entries()))
    if unknown:
        parser.error(f"unknown entries {unknown}; the entries are {entries()}")
    print(json.dumps(run_all(names), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
