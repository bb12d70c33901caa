"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 30
    python3 bench/sweep.py --workloads prn-refine-32 --seeds 1 2 3 --trace

Runs ``bench/run.py`` once per (workload, seed), one process at a time,
with the thread settings of BENCHMARK.json, from the current directory (a
checkout root).  Prints, per workload and metric, the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and their distance
as a share of the median.  With ``--trace`` each seed is also run traced,
and the tracing overhead is the traced median iteration time over the
untraced one.  Raw result lines go to ``.bench_out/sweep-*.jsonl``.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          env=dict(os.environ, **ENV))
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results):
    """(name, unit, values) per metric, in the order the results list them."""
    return [(name, m["unit"], [r["metrics"][name]["value"] for r in results])
            for name, m in results[0]["metrics"].items()]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS))
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("quartiles need at least two seeds")
    out = Path(".bench_out")
    out.mkdir(exist_ok=True)
    log = out / f"sweep-{time.strftime('%Y%m%d-%H%M%S')}.jsonl"
    for wl in args.workloads:
        plain, traced = [], []
        for seed in args.seeds:
            plain.append(run_once(wl, seed, args.seconds, False))
            if args.trace:
                traced.append(run_once(wl, seed, args.seconds, True))
            with log.open("a") as f:
                for trace, res in ((0, plain[-1]), (1, traced[-1] if traced else None)):
                    if res is not None:
                        f.write(json.dumps(dict(res, workload=wl, seed=seed,
                                                trace=trace)) + "\n")
        shares = {r["failed"] / r["attempted"] for r in plain}
        print(f"\n{wl}: {len(plain)} runs, failed share {sorted(shares)}, "
              f"correct {all(r['correct'] for r in plain)}")
        print("| metric | unit | median | q1 | q3 | (q3-q1)/median |")
        print("|---|---|---|---|---|---|")
        for name, unit, values in summarize(plain):
            q1, q2, q3 = stats.quartiles(values)
            print(f"| {name} | {unit} | {q2:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{stats.iqr_share(values):.4f} |")
        if traced:
            plain_ms = stats.median(
                1e3 * WORKLOADS[wl].batch / r["metrics"]["train_samples_per_s"]["value"]
                for r in plain)
            traced_ms = stats.median(r["metrics"]["cascade.iter.ms"]["value"] for r in traced)
            share = stats.median(r["metrics"]["cascade.iter.traced_share"]["value"]
                                 for r in traced)
            print(f"\ntraced iteration {traced_ms:.1f} ms vs untraced {plain_ms:.1f} ms: "
                  f"overhead {100 * (traced_ms / plain_ms - 1):+.1f} %; "
                  f"traced layers cover {share:.1f} % of the traced iteration")
            print("| per-layer metric | unit | median |")
            print("|---|---|---|")
            for name, unit, values in summarize(traced):
                print(f"| {name} | {unit} | {stats.median(values):.4g} |")
    print(f"\nraw results: {log}")


if __name__ == "__main__":
    main()
