"""One pass of one workload in a fresh interpreter (started by run.py).

Times the set-up (importing ``ahmass`` and generating the seeded
inputs) and the cases, checks every observation against the expected
table and prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--dump", help="write the spans of a traced pass to this .npz file")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import workloads  # imports ahmass

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        unwrapped = tracer.install(extra_modules=[workloads])
    cases = workloads.WORKLOADS[args.workload](args.seed)
    if args.smoke:
        cases = [c for c in cases if c.smoke]
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from speed import SpeedProbe

    # untraced passes sample the machine's speed; the probe's own time is
    # taken out of the case times
    probe = SpeedProbe()
    results = []
    case_wall, case_cpu = [], []
    with probe if tracer is None else contextlib.nullcontext():
        for case in cases:
            run = case.run if tracer is None else tracer.wrap(case.run, "case")
            p0 = probe.total_s
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                results.append((case.name, run(), None))
            except Exception as exc:  # a raising case fails all of its checks
                results.append((case.name, {}, f"{type(exc).__name__}: {exc}"))
            taken = probe.total_s - p0
            case_wall.append(time.perf_counter() - w0 - taken)
            case_cpu.append(time.process_time() - c0 - taken)
    wall_s, cpu_s = sum(case_wall), sum(case_cpu)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from expected import EXPECTED, matches

    checks = []
    for name, observed, error in results:
        table = EXPECTED.get(name, {})
        for check in sorted(table.keys() | observed.keys()):
            exp = table.get(check, "<no expected value>")
            obs = observed.get(check, error or "<not observed>")
            ok = error is None and check in table and check in observed and matches(exp, obs)
            checks.append([f"{name}:{check}", ok, repr(obs), repr(exp)])

    from tracer import ahmass_modules, wrapped_bindings

    if tracer is None:
        bench_checks = [["bench:untraced_has_no_wrappers", wrapped_bindings(ahmass_modules()) == [], "", ""]]
    else:
        bench_checks = [["bench:trace_replaced_every_binding", unwrapped == [], repr(unwrapped), "[]"]]

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "wall_ref": wall_s / probe.mean_s() if probe.samples else None,
        "speed_samples": len(probe.samples),
        "case_wall_s": dict(zip((c.name for c in cases), case_wall)),
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
        "bench_checks": bench_checks,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(args.workload, wall_s)
        out["shares"] = tracer.shares(wall_s)
        if args.dump:
            tracer.dump(args.dump)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
