"""The three workloads and the phases one run goes through.

One run, in one process: set up (generate, load, build) several times;
check the stored spectra; warm up with an untimed training call on a subset,
which also gives the training memory peak; the timed training call; reload
the checkpoint and check it; then rounds of reconstruct-and-score over the
held-out slices.  Every timed phase has run before it is timed, and each
timing is per operation.

The number of rounds follows from ``--seconds`` alone, through each
workload's reference costs (``fixed_s``, ``round_s``: seconds on the
reference machine).  A run therefore lasts about ``--seconds`` there, and
every run with the same ``--seconds`` attempts exactly the same operations,
whatever the seed or the speed of the program.
"""

import math
import shutil
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

import checks
import stats

SETUPS = 3          # set-ups per run; setup_s is their median
MIN_ROUNDS = 2      # reconstruct-and-score rounds however short the run
WARM_ITERS = 2      # iterations of the timed training call left out of its median
COIL_CHECKS = 4     # held-out slices whose coil images are checked (VS-RSN)
ACCEL = 4
# The radial mask has no random part.  A Cartesian mask draws its peripheral
# lines from the seed, and which lines it draws moved the mean zero-filled
# PSNR of a 16-slice split by 6 % and its VIF by 15 % (quartile distance
# over 10 seeds), more than any bound could absorb (README.md).
MASK = "radial"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # dataset kind for phantoms.make_dataset
    n: int              # samples; the first 80 % train, the rest are held out
    size: int
    spec: dict          # CascadeSpec fields (seed comes from --seed)
    n_coils: int = 4
    prn: dict = field(default_factory=dict)   # train_prn arguments, if any
    train_n: int = None  # training samples of the timed call (None: all)
    warm_train: int = 4  # training samples of the warm-up subset
    warm_val: int = 1
    fixed_s: float = 10.0  # reference seconds of everything but the rounds
    round_s: float = 1.0   # reference seconds of one round
    known_fault: str = None  # op that fails on every seed (see README.md)

    @property
    def batch(self):
        """Samples per optimizer iteration (the refiner's batch for PRN)."""
        if self.prn:
            return self.prn["batch"]
        return 1 if self.spec["family"] == "vs_rsn" else self.spec["batch"]

    def rounds(self, seconds):
        return max(MIN_ROUNDS, int((seconds - self.fixed_s) / self.round_s))


# the acceptance suite's wide_spec widths
_WIDE = dict(family="dc_rsn", n_b=1, mode="fu_with_us", size=64, ki_hidden=16,
             ii_base=16, ii_depth=2, fu_hidden=32, lr=1e-3)

WORKLOADS = {w.name: w for w in (
    Workload("dc-rsn-64", "single", n=80, size=64,
             spec=dict(_WIDE, epochs=1, batch=4), warm_train=8, warm_val=4,
             fixed_s=16.5, round_s=0.95),
    # lr 1e-4: at 1e-3 the first epoch raises the validation loss
    Workload("vs-rsn-64", "multi", n=80, size=64, n_coils=8,
             spec=dict(_WIDE, family="vs_rsn", n_b=3, epochs=1, batch=1, lr=1e-4),
             train_n=16, warm_train=2, warm_val=1, fixed_s=27.5, round_s=3.45,
             known_fault="reload"),
    Workload("prn-refine-32", "single", n=80, size=32,
             spec=dict(_WIDE, size=32, epochs=1, batch=4),
             prn=dict(hidden=32, critic_base=16, critic_steps=5, epochs=1, batch=4),
             warm_train=4, warm_val=1, fixed_s=7.5, round_s=0.48),
)}

END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "train_epoch_s": "s",
    "recon_slices_per_s": "slices/s",
    "train_peak_mb": "MiB",
    "recon_peak_mb": "MiB",
    "val_psnr_db": "dB",
    "val_ssim": "1",
    "val_vif": "1",
}


def stage(dualrec, rec):
    """One loaded sample in the form ``Reconstructor.reconstruct`` takes
    (float64 arrays, complex spectra, coil maps as a SensitivitySet)."""
    usk = rec["us_kspace"].astype(np.float64)
    s = {"id": rec["id"], "us_k": usk[0] + 1j * usk[1],
         "us_image": rec["us_image"].astype(np.float64)}
    target = rec["target"].astype(np.float64)
    if target.ndim == 2:
        s["target"] = np.stack([target, np.zeros_like(target)])
        s["target_mag"] = target
    else:
        s["target"] = target
        s["target_mag"] = np.hypot(target[0], target[1])
    if "coil_kspace" in rec:
        ck = rec["coil_kspace"].astype(np.float64)
        s["y"] = ck[:, 0] + 1j * ck[:, 1]
        sm = rec["sens"].astype(np.float64)
        grid = dualrec.fourier.ComplexGrid
        s["sens"] = dualrec.fidelity.SensitivitySet(
            [grid(sm[i, 0], sm[i, 1], "image") for i in range(sm.shape[0])],
            normalized=True)
    return s


def subset(dualrec, dataset, n_train, n_val):
    """A Dataset of the first n_train training and n_val held-out samples."""
    train, val = dataset.indices("train")[:n_train], dataset.indices("val")[:n_val]
    ids = train + val
    manifest = dict(dataset.manifest, n=len(ids),
                    files=[dataset.manifest["files"][i] for i in ids])
    return dualrec.phantoms.Dataset(manifest, [dataset.samples[i] for i in ids],
                                    dataset.root)


class Ledger:
    """Operations attempted and failed, with the first few reasons.  A
    failure of a known fault (one that fails on every seed, named in
    README.md) is counted but leaves the run correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.reasons = []

    def record(self, what, reason, known=False):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.unexpected += not known
            if len(self.reasons) < 10:
                self.reasons.append(f"{what}{' (known fault)' if known else ''}: {reason}")


class Phase:
    """A benchmark phase as a span (when tracing) around a block."""

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


def _peak_over(fn):
    """tracemalloc peak above the starting level while ``fn`` runs, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def run(dualrec, wl, seed, seconds, tracer, clock, workdir, now=time.perf_counter):
    """Run workload ``wl`` once.  Returns (end-to-end metrics, ledger, info)."""
    cas, ph, me = dualrec.cascade, dualrec.phantoms, dualrec.metrics
    t_begin = now()
    ledger = Ledger()
    spec = cas.CascadeSpec(**dict(wl.spec, seed=seed))
    is_prn = bool(wl.prn)

    def build():
        model = cas.build_model(spec)
        if not is_prn:
            return model, None
        block = dualrec.networks.PrnBlock(
            hidden=wl.prn["hidden"], critic_base=wl.prn["critic_base"],
            rng=np.random.default_rng((seed, 1)))
        return model, block

    # -- set-up, several times -------------------------------------------
    setup_times = []
    for k in range(SETUPS):
        out = workdir / f"data{k}"
        with Phase(tracer, "bench.setup"):
            t0 = now()
            ph.make_dataset(wl.kind, wl.n, wl.size, ACCEL, MASK, seed, out,
                            n_coils=wl.n_coils)
            dataset = ph.load_dataset(out)
            base_model, block = build()
            setup_times.append(now() - t0)
        if k:
            shutil.rmtree(workdir / f"data{k - 1}")
    mask = dataset.mask
    val_ids = dataset.indices("val")
    staged = {i: stage(dualrec, dataset.samples[i]) for i in val_ids}

    with Phase(tracer, "bench.check"):
        for i, rec in enumerate(dataset.samples):
            if wl.kind == "multi":
                reason = checks.stored_coil_spectra(rec["target"], rec["coil_kspace"],
                                                    rec["sens"], mask.bits)
            else:
                reason = checks.stored_spectrum(rec["target"], rec["us_kspace"], mask.bits)
            ledger.record(f"stored spectrum of {rec['id']}", reason)

    # -- warm-up training call, untimed; gives the training memory peak ----
    warm = subset(dualrec, dataset, wl.warm_train, wl.warm_val)
    peaks = []

    def on_begin():
        tracemalloc.reset_peak()
        on_begin.base = tracemalloc.get_traced_memory()[0]

    clock.on_begin = on_begin
    clock.on_end = lambda: peaks.append(tracemalloc.get_traced_memory()[1] - on_begin.base)
    with Phase(tracer, "bench.warmup"):
        tracemalloc.start()
        try:
            if is_prn:
                _, warm_block = build()
                clock.reset(expect=math.ceil(wl.warm_train / wl.prn["batch"]))
                cas.train_prn(warm_block, cas.Reconstructor(spec, base_model), warm,
                              epochs=1, batch=wl.prn["batch"], seed=seed,
                              critic_steps=wl.prn["critic_steps"])
            else:
                clock.reset()
                cas.train(spec, warm)
        finally:
            tracemalloc.stop()
    clock.on_begin = clock.on_end = None

    # -- the timed training call -------------------------------------------
    if wl.train_n:
        dataset = subset(dualrec, dataset, wl.train_n, len(val_ids))
    n_train = len(dataset.indices("train"))
    with Phase(tracer, "bench.train"):
        t0 = now()
        if is_prn:
            p = wl.prn
            clock.reset(expect=p["epochs"] * math.ceil(n_train / p["batch"]))
            report = cas.train_prn(block, cas.Reconstructor(spec, base_model), dataset,
                                   epochs=p["epochs"], batch=p["batch"], seed=seed,
                                   critic_steps=p["critic_steps"],
                                   out_dir=workdir / "run")
            epochs = p["epochs"]
        else:
            clock.reset()
            report = cas.train(spec, dataset, out_dir=workdir / "run")
            epochs = spec.epochs
        train_wall = now() - t0
    # the first iterations of a call grow the heap to its working size
    # (the previous step's graph is still alive while the next one is built)
    iter_times = clock.durations[WARM_ITERS:]
    if is_prn:
        ledger.record("refiner training", None if all(math.isfinite(v) for v in (
            report.final_psnr, report.final_ssim, report.final_vif))
            else "non-finite final metrics")
    else:
        ledger.record("training", checks.val_improved(
            report.best_val_loss, report.extra["init_val_loss"]))

    # -- reload and check the checkpoint; warms reconstruct ------------------
    # One operation: load_checkpoint, then every held-out slice reconstructed
    # bit for bit as the trained model does.  Should the reload fail, the
    # rounds go on with the trained model, so the rest is still measured.
    with Phase(tracer, "bench.reload"):
        try:
            rec = cas.load_checkpoint(report.checkpoint)
            reason = None
        except dualrec.errors.DualrecError as exc:
            rec, reason = None, f"{type(exc).__name__}: {exc}"
    with Phase(tracer, "bench.check"):
        for i in val_ids:
            if reason is None:
                reason = checks.bit_exact(rec.reconstruct(staged[i], mask),
                                          report.model.reconstruct(staged[i], mask))
        ledger.record("reload checkpoint", reason, known=wl.known_fault == "reload")
        if rec is None:
            rec = report.model
        if spec.family == "vs_rsn":
            for i in val_ids[:COIL_CHECKS]:
                s = staged[i]
                _, parts = rec.model(s["y"], s["sens"], mask, with_parts=True)
                images = [p.data[0, 0] + 1j * p.data[0, 1] for p in parts]
                ledger.record(f"coil consistency of {s['id']}",
                              checks.coil_images_kept(images, s["y"], mask.bits))
    recon_peak = _peak_over(lambda: rec.reconstruct(staged[val_ids[0]], mask))

    # -- rounds: reconstruct every held-out slice, then score every one -------
    recon_times, scored, first = [], [], {}
    n_rounds = wl.rounds(seconds)
    for rnd in range(n_rounds):
        outs = {}
        for i in val_ids:
            s = staged[i]
            with Phase(tracer, "bench.recon"):
                t0 = now()
                outs[i] = out = rec.reconstruct(s, mask)
                recon_times.append(now() - t0)
            if spec.family != "vs_rsn":
                reason = checks.measured_kept(out, s["us_k"], mask.bits)
            elif rnd:
                reason = checks.bit_exact(out, first[i])
            else:
                reason = checks.finite(out)
            ledger.record(f"reconstruct {s['id']}", reason)
        for i in val_ids:
            s = staged[i]
            x = np.abs(outs[i])
            with Phase(tracer, "bench.score"):
                record = me.compare(x, s["target_mag"], s["id"], data_range=1.0)
            ledger.record(f"score {s['id']}", checks.psnr_closed_form(
                record.psnr_db, x, s["target_mag"], 1.0))
            if rnd == 0:
                scored.append(record)
        if rnd == 0:
            first = outs
            with Phase(tracer, "bench.check"):
                for i in val_ids:
                    s = staged[i]
                    x = np.abs(outs[i])
                    ledger.record(f"metric identities on {s['id']}", checks.identity_scores(
                        me.ssim(x, x, 1.0), me.vif(x, x)[0]))
                    ledger.record(f"ssim symmetry on {s['id']}", checks.ssim_symmetric(
                        me.ssim(x, s["target_mag"], 1.0), me.ssim(s["target_mag"], x, 1.0)))
    for key, name in (("psnr_db", "final_psnr"), ("ssim", "final_ssim"),
                      ("vif", "final_vif")):
        ledger.record(f"reported {name}", checks.mean_matches(
            getattr(report, name), [getattr(r, key) for r in scored]))

    metrics = {
        "setup_s": stats.median(setup_times),
        "train_samples_per_s": wl.batch / stats.median(iter_times),
        "train_epoch_s": train_wall / epochs,
        "recon_slices_per_s": 1.0 / stats.median(recon_times),
        "train_peak_mb": max(peaks) / stats.MIB,
        "recon_peak_mb": recon_peak / stats.MIB,
        "val_psnr_db": report.final_psnr,
        "val_ssim": report.final_ssim,
        "val_vif": report.final_vif,
    }
    info = {"iteration_ms": [round(1e3 * t, 2) for t in clock.durations],
            "rounds": n_rounds,
            "recon_samples": len(recon_times), "seconds": now() - t_begin,
            "retried": report.retried,
            "val_loss": [report.extra.get("init_val_loss"), report.best_val_loss]}
    return metrics, ledger, info
