"""Benchmark of the ahmass classification: one command, three workloads.

    python3 perfbench/run.py --workload highest-weight --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported
from ``src/`` next to this directory, and the command fails (non-zero
exit, no result line) when it is missing.

Load model: a closed loop with a single client.  Every pass of a
workload runs in a fresh interpreter (``child.py``), single-threaded
with BLAS threads set to 1, because users run the classification once
per process and no warm cache may carry over.  Passes run back to back,
one at a time, until the next one would end past ``--seconds`` (at least
one pass).

``--trace 0`` prints the end-to-end metrics.  Declared in BENCHMARK.json:

* ``wall_ref`` -- median over the passes of the case time divided by the
  mean time of a fixed reference computation sampled during the pass
  (see ``speed.py``), which cancels the drift in speed of a shared
  machine;
* ``setup_s`` -- median set-up time (importing ahmass and generating the
  seeded inputs) over the passes and extra set-up-only processes;
* ``peak_rss_mb`` -- the largest peak RSS of the pass processes.

Printed as well: ``wall_s`` and ``cpu_s`` (median case wall and CPU
time; they drift with the machine's speed) and ``fail_frac``, the share
of failed or raising checks.  ``--trace 1`` runs one untraced and one
traced pass and prints the per-layer metrics measured by the wrappers
of ``tracer.py``; the spans are written to ``.perfbench/`` in the
checkout.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("highest-weight", "aspect-calculus", "mass-equivariance")
SETUP_PROBES = 4  # set-up-only processes per untraced run, besides the passes
RUN_LIMIT_S = 170.0  # the whole run, passes and probes, must end before this

# zero-call controls: (workloads where the layer must not run, layer metric)
CONTROLS = [
    (("highest-weight",), "poly.vanishes_on_sphere.calls"),
    (("aspect-calculus",), "linalg.echelon.calls"),
    (("highest-weight", "aspect-calculus"), "invariants.conformal_mass.calls"),
    (("highest-weight", "aspect-calculus"), "invariants.weyl_mass.calls"),
    (("highest-weight", "aspect-calculus"), "invariants.weyl_mass_chiral.calls"),
]


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], deadline: float) -> dict:
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), *argv],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish within the run time limit: {argv}") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {argv} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, deadline: float) -> tuple[dict, dict, list]:
    """Untraced run: set-up probes, then passes until ``--seconds`` is used."""
    base = ["--workload", args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    setup = [run_child(base + ["--setup-only"], deadline)["setup_s"]
             for _ in range(1 if args.smoke else SETUP_PROBES)]
    passes = []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_child(base, deadline))
        took = time.perf_counter() - t0
        now = time.perf_counter()
        if args.smoke or now - begin + took > args.seconds or now + took > deadline:
            break
    setup += [p["setup_s"] for p in passes]
    checks = [c for p in passes for c in p["checks"] + p["bench_checks"]]
    metrics = {
        "wall_ref": (statistics.median(p["wall_ref"] for p in passes), "ref"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    printed = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
    }
    print(f"passes: {len(passes)}  set-up samples: {len(setup)}  "
          f"speed samples: {sum(p['speed_samples'] for p in passes)}")
    for name, secs in passes[0]["case_wall_s"].items():
        print(f"  case {name:<34} {secs:9.3f} s")
    return metrics, printed, checks


def trace(args, deadline: float) -> tuple[dict, dict, list]:
    """Traced run: one untraced pass, then one pass with the wrappers installed."""
    base = ["--workload", args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    plain = run_child(base, deadline)
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    dump = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.npz")
    traced = run_child(base + ["--trace", "1", "--dump", dump], deadline)
    same = [c[:3] for c in plain["checks"]] == [c[:3] for c in traced["checks"]]
    checks = plain["checks"] + plain["bench_checks"] + traced["checks"] + traced["bench_checks"]
    checks.append(["bench:traced_results_identical", same, "", ""])
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    print(f"untraced wall {plain['wall_s']:.3f} s, traced wall {traced['wall_s']:.3f} s; spans in {dump}")
    print("largest self times (layer, calls, self_s, self and inclusive share of traced wall_s):")
    for name, calls, self_s, share, incl in traced["shares"]:
        print(f"  {name:<44} {calls:>9} {self_s:9.3f} s {share:7.1%} {incl:7.1%}")
    for where, metric in CONTROLS:
        if args.workload in where:
            held = metrics[metric][0] == 0
            print(f"zero-call control {metric} == 0 on {args.workload}: {'holds' if held else 'VIOLATED'}")
    return metrics, {}, checks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run only the small (3,0)-sized cases")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "ahmass", "__init__.py")):
        print(f"no ahmass sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    try:
        metrics, printed, checks = (trace if args.trace else measure)(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failed = [c for c in checks if not c[1]]
    for name, _, observed, expected in failed:
        print(f"FAILED {name}: observed {observed}, expected {expected}")
    fail_frac = len(failed) / len(checks)
    for name, (value, unit) in {**printed, **metrics}.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print(f"  {'fail_frac':<48} {fail_frac:>14.6g} ratio  ({len(failed)} of {len(checks)} checks)")
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
