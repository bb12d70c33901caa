"""Hooks the benchmark installs on the library from its own process.

Two kinds, both installed by replacing attributes, never by editing the
library:

* ``IterationClock`` marks optimizer iterations inside the training entry
  points through ``autodiff.Adam`` and ``autodiff.Sgd``.  It is on in every
  run, because ``train_samples_per_s`` is the median iteration time.
* ``install_tracing`` wraps the public functions and methods of every layer
  in spans (traced runs only).  A function imported with ``from .x import y``
  is a separate binding in each importing module, so each wrapper replaces
  every binding of the original object in every ``dualrec`` module.  An op's
  backward time comes from wrapping the backward closure of the node it
  returns; ``autodiff._make`` is wrapped so every closure is timed, which
  lets the backward walk's own time be told apart from the closures'.
"""

import functools
import math
import os

import stats
from spans import nearest, self_times


class Patcher:
    """Replaces attributes and remembers the originals for ``undo``."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def rebind(self, modules, original, replacement):
        """Point every module-level binding of ``original`` at ``replacement``."""
        hits = 0
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, name, replacement)
                    hits += 1
        if not hits:
            raise RuntimeError(f"no binding of {original!r} found")

    def undo(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


# -- iteration boundaries ------------------------------------------------

class IterationClock:
    """Start and end times of the optimizer iterations of one training call.

    kind "cascade" (``cascade.train``): an iteration runs from
    ``Adam.zero_grad`` to the end of ``Adam.step``.  kind "prn"
    (``cascade.train_prn``): an iteration is the critic steps plus one
    refiner step; it runs from the critic optimizer's creation, or the end
    of the previous ``Sgd.step``, to the end of its own ``Sgd.step``.  The
    prn kind needs the number of iterations to expect, so that it opens no
    iteration after the last one.

    ``on_begin``/``on_end`` are optional callbacks (used for memory peaks);
    with a tracer, each iteration is also a ``cascade.iter`` span.
    """

    def __init__(self, kind, tracer):
        if kind not in ("cascade", "prn"):
            raise ValueError(f"unknown iteration kind {kind!r}")
        self.kind = kind
        self.tracer = tracer
        self.on_begin = None
        self.on_end = None
        self.reset()

    def reset(self, expect=0):
        self.durations = []
        self.remaining = expect
        self._t0 = None
        self._span = None

    def begin(self, now):
        if self._t0 is not None:
            raise RuntimeError("iteration began while another was open")
        if self.on_begin is not None:
            self.on_begin()
        self._span = self.tracer.open("cascade.iter")
        self._t0 = now()

    def end(self, now):
        if self._t0 is None:
            raise RuntimeError("iteration ended without a beginning")
        self.durations.append(now() - self._t0)
        self._t0 = None
        self.tracer.close(self._span)
        if self.on_end is not None:
            self.on_end()


def install_clock(patcher, ad, clock, now):
    """Hook ``ad.Adam`` and ``ad.Sgd`` so they drive ``clock``."""
    adam_init, adam_zero, adam_step = ad.Adam.__init__, ad.Adam.zero_grad, ad.Adam.step
    sgd_step = ad.Sgd.step

    def init(self, *args, **kwargs):
        adam_init(self, *args, **kwargs)
        if clock.kind == "prn" and clock.remaining > 0:
            clock.begin(now)

    def zero_grad(self):
        if clock.kind == "cascade":
            clock.begin(now)
        adam_zero(self)

    def step(self):
        adam_step(self)
        if clock.kind == "cascade":
            clock.end(now)

    def sstep(self):
        sgd_step(self)
        if clock.kind == "prn":
            clock.end(now)
            clock.remaining -= 1
            if clock.remaining > 0:
                clock.begin(now)

    patcher.set(ad.Adam, "__init__", init)
    patcher.set(ad.Adam, "zero_grad", zero_grad)
    patcher.set(ad.Adam, "step", step)
    patcher.set(ad.Sgd, "step", sstep)


# -- span wrappers -------------------------------------------------------

class TimedBackward:
    """A backward closure run inside a span."""

    __slots__ = ("fn", "tracer", "name", "attrs")

    def __init__(self, fn, tracer, name, attrs=None):
        self.fn = fn
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __call__(self, g, flow):
        idx = self.tracer.open(self.name, self.attrs)
        try:
            self.fn(g, flow)
        finally:
            self.tracer.close(idx)


def _closure_op(fn):
    # "conv2d.<locals>.backward" -> "conv2d"
    return getattr(fn, "__qualname__", "op").split(".")[0].lstrip("_")


def spanned(tracer, name, fn, attrs=None, after=None):
    """``fn`` run inside a span; ``attrs(args, kwargs)`` gives the span's
    counts and ``after(result, args, kwargs)`` sees the result."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        idx = tracer.open(name, attrs(args, kwargs) if attrs else None)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(out, args, kwargs)
        return out

    return wrapped


def _conv_args(args, kwargs):
    x, w = args[0], args[1]
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    padding = kwargs.get("padding", args[4] if len(args) > 4 else 0)
    return tuple(x.shape), tuple(w.shape), stride, padding, x.dtype


def install_tracing(patcher, tracer, dualrec_modules):
    """Wrap every layer's public entry points in spans.  ``dualrec_modules``
    maps short names ("autodiff", "cascade", ...) to the imported modules."""
    m = dualrec_modules
    ad, fr, fi, nw, cas, me, ph = (m["autodiff"], m["fourier"], m["fidelity"],
                                   m["networks"], m["cascade"], m["metrics"],
                                   m["phantoms"])
    mods = list(m.values())

    # every graph node's backward closure, and the number of nodes built
    orig_make = ad._make

    def make(data, parents, backward):
        out = orig_make(data, parents,
                        TimedBackward(backward, tracer, "autodiff.bwd." + _closure_op(backward)))
        if out._parents:
            tracer.count("nodes")
        return out

    patcher.set(ad, "_make", make)

    def name_backward(name, flops=None):
        def after(out, args, kwargs):
            bwd = getattr(out, "_backward", None)
            if isinstance(bwd, TimedBackward):
                bwd.name = name
                if flops is not None:
                    bwd.attrs = {"flops": flops(args, kwargs)}
        return after

    def conv_attrs(args, kwargs):
        xs, ws, stride, padding, dtype = _conv_args(args, kwargs)
        return {"flops": stats.conv2d_flops(xs, ws, stride, padding),
                "im2col_bytes": stats.im2col_bytes(xs, ws, stride, padding,
                                                   dtype.itemsize),
                "stride": stride}

    def conv_bwd_flops(args, kwargs):
        xs, ws, stride, padding, _ = _conv_args(args, kwargs)
        return stats.conv2d_backward_flops(xs, ws, stride, padding)

    patcher.rebind(mods, ad.conv2d, spanned(
        tracer, "autodiff.conv2d", ad.conv2d, attrs=conv_attrs,
        after=name_backward("autodiff.conv2d.bwd", conv_bwd_flops)))
    patcher.rebind(mods, ad.conv_transpose2d, spanned(
        tracer, "autodiff.conv_transpose2d", ad.conv_transpose2d,
        after=name_backward("autodiff.conv_transpose2d.bwd")))
    for fn_name in ("fft2_t", "ifft2_t"):
        fn = getattr(fr, fn_name)
        patcher.rebind(mods, fn, spanned(
            tracer, f"fourier.{fn_name}", fn,
            after=name_backward(f"fourier.{fn_name}.bwd")))
    for mod, short, names in (
            (fi, "fidelity", ("df_single_t", "vs_x_update_t", "wab_t", "sens_combine")),
            (nw, "networks", ("gradient_penalty",)),
            (me, "metrics", ("psnr", "ssim", "vif")),
            (ph, "phantoms", ("make_dataset", "load_dataset")),
            (cas, "cascade", ("train", "train_prn", "save_checkpoint", "load_checkpoint"))):
        for fn_name in names:
            fn = getattr(mod, fn_name)
            patcher.rebind(mods, fn, spanned(tracer, f"{short}.{fn_name}", fn))

    for cls, span_name, meth in (
            (nw.UNet, "networks.UNet.fwd", "forward"),
            (nw.FuNet, "networks.FuNet.fwd", "forward"),
            (nw.RsnBlock, "networks.RsnBlock.fwd", "forward"),
            (nw.Critic, "networks.Critic.fwd", "forward"),
            (nw.PrnBlock, "networks.PrnBlock.refine", "refine"),
            (fr.DTLayer, "fourier.DTLayer.fwd", "forward"),
            (ad.Tensor, "autodiff.backward", "backward"),
            (ad.Adam, "autodiff.Adam.step", "step"),
            (ad.Sgd, "autodiff.Sgd.step", "step"),
            (cas.Reconstructor, "cascade.Reconstructor.reconstruct", "reconstruct")):
        patcher.set(cls, meth, spanned(tracer, span_name, cls.__dict__[meth]))

    # container traffic: bytes of every RTC file written or read
    box = ph.RtcContainer
    write, read = box.__dict__["write"], box.__dict__["read"].__func__

    def traced_write(self, path):
        idx = tracer.open("phantoms.RtcContainer.write")
        try:
            write(self, path)
        finally:
            tracer.close(idx)
        tracer.spans[idx].attrs = {"bytes": os.path.getsize(path)}

    def traced_read(cls, path):
        idx = tracer.open("phantoms.RtcContainer.read",
                          {"bytes": os.path.getsize(path)})
        try:
            return read(cls, path)
        finally:
            tracer.close(idx)

    patcher.set(box, "write", traced_write)
    patcher.set(box, "read", classmethod(traced_read))


# -- per-layer metrics from the spans -------------------------------------

# Each per-layer metric: (unit, scope, how).  Scopes divide by the number of
# training iterations of the timed training call ("iter"), reconstructed
# slices ("recon"), scored slices ("score"), set-ups ("setup"), timed
# training calls ("train") or checkpoint reloads ("reload").
PER_LAYER = {
    "autodiff.conv2d.fwd_ms": "ms",
    "autodiff.conv2d.bwd_ms": "ms",
    "autodiff.conv2d.calls": "count",
    "autodiff.conv2d.gflop_per_s": "GFLOP/s",
    "autodiff.conv2d.stride2_fwd_ms": "ms",
    "autodiff.conv_transpose2d.fwd_ms": "ms",
    "autodiff.conv_transpose2d.bwd_ms": "ms",
    "autodiff.backward.walk_ms": "ms",
    "autodiff.graph_nodes": "count",
    "autodiff.Adam.step_ms": "ms",
    "autodiff.im2col_mb": "MiB",
    "fourier.fft2_t.fwd_ms": "ms",
    "fourier.fft2_t.bwd_ms": "ms",
    "fourier.fft2_t.calls": "count",
    "fourier.ifft2_t.fwd_ms": "ms",
    "fourier.ifft2_t.bwd_ms": "ms",
    "fourier.ifft2_t.calls": "count",
    "fourier.DTLayer.fwd_ms": "ms",
    "fidelity.df_single_t.ms": "ms",
    "fidelity.vs_x_update_t.ms": "ms",
    "fidelity.wab_t.ms": "ms",
    "fidelity.sens_combine.ms": "ms",
    "networks.UNet.fwd_ms": "ms",
    "networks.FuNet.fwd_ms": "ms",
    "networks.RsnBlock.fwd_ms": "ms",
    "networks.PrnBlock.refine_ms": "ms",
    "networks.Critic.fwd_ms": "ms",
    "networks.gradient_penalty.ms": "ms",
    "cascade.iter.ms": "ms",
    "cascade.iter.forward_ms": "ms",
    "cascade.iter.backward_ms": "ms",
    "cascade.iter.optimizer_ms": "ms",
    "cascade.iter.traced_share": "%",
    "cascade.train.outside_iter_ms": "ms",
    "cascade.save_checkpoint.ms": "ms",
    "cascade.load_checkpoint.ms": "ms",
    "metrics.psnr.ms": "ms",
    "metrics.ssim.ms": "ms",
    "metrics.vif.ms": "ms",
    "phantoms.make_dataset.s": "s",
    "phantoms.load_dataset.s": "s",
    "phantoms.rtc_mb": "MiB",
}

PHASES = ("bench.setup", "bench.warmup", "bench.train", "bench.reload",
          "bench.check", "bench.recon", "bench.score")


def per_layer_metrics(spans):
    """Per-layer metrics of one traced run, keyed as in ``PER_LAYER``.

    Times of ops and modules are self times (children excluded), in ms per
    unit of their scope; ``cascade.*`` phase times and ``metrics.*`` are
    inclusive.  A layer that never ran in the scope reads 0.
    """
    selft = self_times(spans)
    phase = nearest(spans, lambda s: s.name in PHASES)
    in_iter = nearest(spans, lambda s: s.name == "cascade.iter")

    def phase_of(i):
        return spans[phase[i]].name if phase[i] >= 0 else None

    iters = [i for i, s in enumerate(spans)
             if s.name == "cascade.iter" and phase_of(i) == "bench.train"]
    n = {"iter": len(iters),
         "recon": sum(1 for s in spans if s.name == "bench.recon"),
         "score": sum(1 for s in spans if s.name == "bench.score"),
         "setup": sum(1 for s in spans if s.name == "bench.setup"),
         "train": sum(1 for s in spans if s.name == "bench.train"),
         "reload": sum(1 for s in spans if s.name == "bench.reload")}
    scope_phase = {"recon": "bench.recon", "score": "bench.score",
                   "setup": "bench.setup", "train": "bench.train",
                   "reload": "bench.reload"}

    def members(scope, pred):
        for i, s in enumerate(spans):
            if not pred(s):
                continue
            if scope == "iter":
                if in_iter[i] >= 0 and in_iter[i] != i and phase_of(i) == "bench.train":
                    yield i
            elif phase_of(i) == scope_phase[scope]:
                yield i

    def per(scope, total):
        return total / n[scope] if n[scope] else 0.0

    def self_ms(scope, name, pred=None):
        return per(scope, 1e3 * sum(selft[i] for i in members(
            scope, lambda s: s.name == name and (pred is None or pred(s)))))

    def incl_ms(scope, name):
        return per(scope, 1e3 * sum(spans[i].duration for i in members(
            scope, lambda s: s.name == name)))

    def calls(scope, name):
        return per(scope, sum(1 for _ in members(scope, lambda s: s.name == name)))

    def attr_sum(scope, name, key):
        return sum((spans[i].attrs or {}).get(key, 0) for i in members(
            scope, lambda s: name is None or s.name == name))

    out = {}
    conv_fwd = [i for i in members("iter", lambda s: s.name == "autodiff.conv2d")]
    conv_bwd = [i for i in members("iter", lambda s: s.name == "autodiff.conv2d.bwd")]
    conv_s = sum(selft[i] for i in conv_fwd + conv_bwd)
    conv_flops = sum((spans[i].attrs or {}).get("flops", 0) for i in conv_fwd + conv_bwd)
    out["autodiff.conv2d.fwd_ms"] = self_ms("iter", "autodiff.conv2d")
    out["autodiff.conv2d.bwd_ms"] = self_ms("iter", "autodiff.conv2d.bwd")
    out["autodiff.conv2d.calls"] = calls("iter", "autodiff.conv2d")
    out["autodiff.conv2d.gflop_per_s"] = conv_flops / conv_s / 1e9 if conv_s else 0.0
    out["autodiff.conv2d.stride2_fwd_ms"] = self_ms(
        "iter", "autodiff.conv2d", lambda s: s.attrs and s.attrs.get("stride") == 2)
    out["autodiff.conv_transpose2d.fwd_ms"] = self_ms("iter", "autodiff.conv_transpose2d")
    out["autodiff.conv_transpose2d.bwd_ms"] = self_ms("iter", "autodiff.conv_transpose2d.bwd")
    out["autodiff.backward.walk_ms"] = self_ms("iter", "autodiff.backward")
    out["autodiff.graph_nodes"] = per("recon", attr_sum("recon", None, "nodes"))
    out["autodiff.Adam.step_ms"] = incl_ms("iter", "autodiff.Adam.step")
    out["autodiff.im2col_mb"] = per("iter", attr_sum(
        "iter", "autodiff.conv2d", "im2col_bytes")) / stats.MIB
    for fn in ("fft2_t", "ifft2_t"):
        out[f"fourier.{fn}.fwd_ms"] = self_ms("iter", f"fourier.{fn}")
        out[f"fourier.{fn}.bwd_ms"] = self_ms("iter", f"fourier.{fn}.bwd")
        out[f"fourier.{fn}.calls"] = calls("iter", f"fourier.{fn}")
    out["fourier.DTLayer.fwd_ms"] = self_ms("iter", "fourier.DTLayer.fwd")
    for fn in ("df_single_t", "vs_x_update_t", "wab_t", "sens_combine"):
        out[f"fidelity.{fn}.ms"] = self_ms("iter", f"fidelity.{fn}")
    for key, name in (("UNet.fwd_ms", "UNet.fwd"), ("FuNet.fwd_ms", "FuNet.fwd"),
                      ("RsnBlock.fwd_ms", "RsnBlock.fwd"),
                      ("PrnBlock.refine_ms", "PrnBlock.refine"),
                      ("Critic.fwd_ms", "Critic.fwd"),
                      ("gradient_penalty.ms", "gradient_penalty")):
        out[f"networks.{key}"] = self_ms("iter", f"networks.{name}")

    iter_ms = [1e3 * spans[i].duration for i in iters]
    out["cascade.iter.ms"] = stats.median(iter_ms) if iter_ms else 0.0
    bwd = incl_ms("iter", "autodiff.backward")
    opt = incl_ms("iter", "autodiff.Adam.step") + incl_ms("iter", "autodiff.Sgd.step")
    out["cascade.iter.forward_ms"] = per("iter", sum(iter_ms)) - bwd - opt
    out["cascade.iter.backward_ms"] = bwd
    out["cascade.iter.optimizer_ms"] = opt
    iter_total = sum(spans[i].duration for i in iters)
    iter_self = sum(selft[i] for i in iters)
    out["cascade.iter.traced_share"] = (100.0 * (iter_total - iter_self) / iter_total
                                        if iter_total else 0.0)
    train_ms = incl_ms("train", "cascade.train") + incl_ms("train", "cascade.train_prn")
    out["cascade.train.outside_iter_ms"] = train_ms - per("train", 1e3 * iter_total)
    out["cascade.save_checkpoint.ms"] = incl_ms("train", "cascade.save_checkpoint")
    out["cascade.load_checkpoint.ms"] = incl_ms("reload", "cascade.load_checkpoint")
    for fn in ("psnr", "ssim", "vif"):
        out[f"metrics.{fn}.ms"] = incl_ms("score", f"metrics.{fn}")
    out["phantoms.make_dataset.s"] = incl_ms("setup", "phantoms.make_dataset") / 1e3
    out["phantoms.load_dataset.s"] = incl_ms("setup", "phantoms.load_dataset") / 1e3
    out["phantoms.rtc_mb"] = per("setup", attr_sum(
        "setup", "phantoms.RtcContainer.write", "bytes")
        + attr_sum("setup", "phantoms.RtcContainer.read", "bytes")) / stats.MIB
    missing = set(PER_LAYER) ^ set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {sorted(missing)}")
    return {k: v if math.isfinite(v) else 0.0 for k, v in out.items()}
