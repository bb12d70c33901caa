"""The benchmark's hooks still fit the library.

``bench/instrument.py`` rebinds library functions and methods by identity
and marks training iterations through ``autodiff.Adam``.  A refactor that
drops a binding it looks for, or splits an iteration's zero_grad/step pair,
would otherwise show only on the next traced benchmark run.  The bench
modules are loaded as they are, from their own directory.
"""

import importlib
import inspect
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import dualrec
from dualrec import cascade as cas
from dualrec.phantoms import load_dataset, make_dataset

BENCH = Path(__file__).resolve().parents[1] / "bench"
LAYERS = ("autodiff", "errors", "layers", "fourier", "masks", "fidelity",
          "networks", "cascade", "metrics", "phantoms")


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("instrument"), importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))


def _dualrec_modules():
    for name in LAYERS:
        importlib.import_module(f"dualrec.{name}")
    return {name.split(".")[-1]: mod for name, mod in sys.modules.items()
            if name.startswith("dualrec.")}


def _bindings(modules):
    """Every module-level binding and every class attribute of the package."""
    out = {}
    for mod in modules.values():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
            if inspect.isclass(value) and value.__module__.startswith("dualrec"):
                for attr, v in vars(value).items():
                    out[(value.__module__, value.__qualname__, attr)] = v
    return out


def test_tracing_and_clock_fit_train_and_reconstruct(bench_modules, tmp_path):
    instrument, spans = bench_modules
    make_dataset("single", 6, 32, 4, "cartesian", seed=1, out_dir=tmp_path / "ds")
    ds = load_dataset(tmp_path / "ds")
    spec = cas.CascadeSpec(n_b=1, mode="ki_then_ii", size=32, ki_hidden=4,
                           ii_base=4, ii_depth=2, fu_hidden=8, epochs=1, batch=2)
    modules = _dualrec_modules()
    before = _bindings(modules)
    tracer = spans.Tracer()
    clock = instrument.IterationClock("cascade", tracer)
    patcher = instrument.Patcher()
    try:
        # raises RuntimeError("no binding ...") if a wrapped target is gone
        instrument.install_tracing(patcher, tracer, modules)
        instrument.install_clock(patcher, dualrec.autodiff, clock, time.perf_counter)
        report = dualrec.cascade.train(spec, ds)
        n_recon = len(ds.indices("val")) + 1
        report.model.reconstruct(ds.staged[ds.indices("val")[0]], ds.mask)
    finally:
        patcher.undo()
    names = [s.name for s in tracer.spans]
    n_iter = -(-len(ds.indices("train")) // spec.batch) * spec.epochs
    assert names.count("cascade.train") == 1
    assert names.count("cascade.iter") == names.count("autodiff.Adam.step") == n_iter
    assert len(clock.durations) == n_iter
    assert names.count("cascade.Reconstructor.reconstruct") == n_recon
    assert all(s.end is not None for s in tracer.spans)
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_clock_counts_one_prn_iteration_per_refiner_batch(bench_modules, tmp_path):
    """A refiner iteration runs from the critic's Adam, or the last
    Sgd.step, to the next Sgd.step; the benchmark's prn timing needs one per
    refiner batch, with none left open."""
    instrument, spans = bench_modules
    make_dataset("single", 7, 32, 4, "cartesian", seed=1, out_dir=tmp_path / "ds")
    ds = load_dataset(tmp_path / "ds")
    spec = cas.CascadeSpec(n_b=1, mode="ki_then_ii", size=32, ki_hidden=4,
                           ii_base=4, ii_depth=2, fu_hidden=8)
    base = cas.Reconstructor(spec, cas.build_model(spec))
    block = dualrec.networks.PrnBlock(hidden=4, critic_base=4, rng=np.random.default_rng(0))
    epochs, batch = 2, 2
    n_iter = epochs * math.ceil(len(ds.indices("train")) / batch)
    clock = instrument.IterationClock("prn", spans.Tracer())
    clock.reset(expect=n_iter)
    patcher = instrument.Patcher()
    try:
        instrument.install_clock(patcher, dualrec.autodiff, clock, time.perf_counter)
        cas.train_prn(block, base, ds, epochs=epochs, batch=batch, critic_steps=2)
    finally:
        patcher.undo()
    assert len(ds.indices("train")) % batch     # a short last batch
    assert len(clock.durations) == n_iter and clock.remaining == 0


def test_traced_conv_spans_read_the_whole_channel_stack(bench_modules):
    """A UNet decoder conv reads a ChannelStack; the traced conv2d spans
    must count its flops over every stacked channel, forward and backward."""
    instrument, spans = bench_modules
    stats = importlib.import_module("stats")
    unet = dualrec.networks.UNet(2, 2, base=4, depth=2, rng=np.random.default_rng(0))
    x = dualrec.autodiff.Tensor(np.random.default_rng(1).normal(size=(2, 2, 16, 16)))
    # the convs in call order, with the side of the image each one sees
    convs = [(unet.enc0.c1, 16), (unet.enc0.c2, 16), (unet.enc1.c1, 8), (unet.enc1.c2, 8),
             (unet.mid.c1, 4), (unet.mid.c2, 4), (unet.dec1.c1, 8), (unet.dec1.c2, 8),
             (unet.dec0.c1, 16), (unet.dec0.c2, 16), (unet.final, 16)]
    want = [stats.conv2d_flops((2, c.w.shape[1], n, n), c.w.shape, 1, 1) for c, n in convs]
    tracer = spans.Tracer()
    patcher = instrument.Patcher()
    try:
        instrument.install_tracing(patcher, tracer, _dualrec_modules())
        dualrec.layers.mse_loss(unet(x), np.zeros((2, 2, 16, 16))).backward()
    finally:
        patcher.undo()
    fwd = [s.attrs["flops"] for s in tracer.spans if s.name == "autodiff.conv2d"]
    bwd = [s.attrs["flops"] for s in tracer.spans if s.name == "autodiff.conv2d.bwd"]
    assert unet.dec1.c1.w.shape[1] == 16 and unet.dec0.c1.w.shape[1] == 8
    assert fwd == want
    assert sorted(bwd) == sorted(2 * f for f in want)
