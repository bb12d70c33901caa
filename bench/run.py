"""Benchmark of dualrec: train, reload, reconstruct and score one workload.

    python3 bench/run.py --workload dc-rsn-64 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/dualrec`` there and nowhere else.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the same run is made with every layer's public functions
wrapped in spans, and the object carries the per-layer metrics instead.
Result and span files go to ``.bench_out/`` in the checkout; a readable
table goes to standard error.

BLAS threads: the command in BENCHMARK.json sets OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS to 1; a run started without them gets the same default.
See README.md for why.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse   # noqa: E402  (the thread count must be set before numpy loads)
import importlib  # noqa: E402
import json       # noqa: E402
import shutil     # noqa: E402
import sys        # noqa: E402
import time       # noqa: E402
from pathlib import Path  # noqa: E402

import instrument  # noqa: E402
import workloads   # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

LAYERS = ("autodiff", "errors", "layers", "fourier", "masks", "fidelity",
          "networks", "cascade", "metrics", "phantoms")


def import_dualrec(root):
    """Import the package from ``root/src`` only; None if it is not there."""
    src = root / "src"
    if not (src / "dualrec" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("dualrec")
    if Path(pkg.__file__).resolve().parent != (src / "dualrec").resolve():
        return None
    for name in LAYERS:
        importlib.import_module(f"dualrec.{name}")   # binds pkg.<name>
    return pkg


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    dualrec = import_dualrec(root)
    if dualrec is None:
        print(f"no dualrec source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NullTracer()
    patcher = instrument.Patcher()
    if args.trace:
        modules = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
                   if name.startswith("dualrec.")}
        instrument.install_tracing(patcher, tracer, modules)
    clock = instrument.IterationClock("prn" if wl.prn else "cascade", tracer)
    instrument.install_clock(patcher, dualrec.autodiff, clock, time.perf_counter)

    out_dir = root / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        e2e, ledger, info = workloads.run(dualrec, wl, args.seed, args.seconds,
                                          tracer, clock, workdir)
    finally:
        patcher.undo()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = instrument.per_layer_metrics(tracer.spans)
        units = instrument.PER_LAYER
    else:
        values, units = e2e, workloads.END_TO_END
    result = {"correct": ledger.unexpected == 0,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"result-{stem}.json").write_text(json.dumps(
        dict(result, info=info, failures=ledger.reasons), indent=1))
    if args.trace:
        (out_dir / f"spans-{stem}.json").write_text(json.dumps(tracer.to_json()))

    for reason in ledger.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {info}", file=sys.stderr)
    for k, m in result["metrics"].items():
        print(f"  {k:34s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
