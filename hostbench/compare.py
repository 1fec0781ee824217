#!/usr/bin/env python3
"""Repeat the host-path benchmark and say whether two sets of runs agree.

    python3 hostbench/compare.py                       # every workload, 2 sets x 10 runs
    python3 hostbench/compare.py --workloads tenant_lifecycle --repeats 5 --sets 1
    python3 hostbench/compare.py --traced              # plus one traced run each

Each run goes through run.py with its own seed (seed-base + 1000 * set + run).
For every end-to-end metric the script prints, per set, the median and the
quartiles (statistics.quantiles, n=4) and the quartile spread as a share of
the median. It then reports, against the bounds in BENCHMARK.json, whether
each spread stays within its bound and whether the two sets' medians lie
within the bound of each other, in either direction. It also
prints the medians of the workload's own named figures (req_p99_ms,
seal_gbps, ...) including the open-loop generator's lateness, the failed
share of operations, and for --traced the per-layer ledger and the tracing
overhead. Standard library only.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "hostbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit("run failed: %s seed %d (exit %d)" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    details = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            try:
                details[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return result, details, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def change(first, second):
    """Relative change of `second` from `first`."""
    return (second - first) / first if first else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--traced", action="store_true",
                        help="also make one traced run per workload")
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")

    all_ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for r in range(args.repeats):
                seed = args.seed_base + 1000 * s + r
                runs.append(run_once(workload, seed, args.seconds, 0))
                print("  %s set %d run %d (seed %d): %.1f s wall" %
                      (workload, s + 1, r + 1, seed, runs[-1][2]), file=sys.stderr)
            sets.append(runs)

        print("\n== %s (%d x %d runs, %d s each)" % (workload, args.sets, args.repeats,
                                                    args.seconds))
        print("  %-16s %-6s %-44s %s" % ("metric", "bound", "set medians [q1, q3] spread",
                                          "verdict"))
        for m in contract["end_to_end"]:
            cells, verdict = [], []
            stats = []
            for runs in sets:
                values = [res["metrics"][m["name"]]["value"] for res, _, _ in runs]
                med, q1, q3, sp = spread(values)
                stats.append((med, sp))
                cells.append("%.6g [%.6g, %.6g] %.1f%%" % (med, q1, q3, 100 * sp))
                if sp > m["bound"]:
                    verdict.append("spread > bound")
            if len(stats) == 2:
                c = change(stats[0][0], stats[1][0])
                verdict.append("sets differ (2nd %+.1f%%)" % (100 * c) if abs(c) > m["bound"]
                               else "agree (2nd %+.1f%%)" % (100 * c))
            ok = not any(v.startswith("spread") or v.startswith("sets") for v in verdict)
            all_ok = all_ok and ok
            print("  %-16s %-6g %s  %s" % (m["name"], m["bound"], " | ".join(cells),
                                          ", ".join(verdict) or "ok"))
            for i, runs in enumerate(sets):
                print("  %16s set %d runs: %s" % ("", i + 1, " ".join(
                    "%.4g" % res["metrics"][m["name"]]["value"] for res, _, _ in runs)))

        shares = []
        for runs in sets:
            shares.append(sorted({res["failed"] / res["attempted"] for res, _, _ in runs}))
        print("  failed share per set: %s" % shares)
        if len(shares) == 2 and shares[0] != shares[1]:
            all_ok = False
        detail_names = sorted({k for _, details, _ in sets[0] for k in details})
        print("  workload figures (median of all runs):")
        for k in detail_names:
            values = [d[k][0] for runs in sets for _, d, _ in runs if k in d]
            unit = next(d[k][1] for runs in sets for _, d, _ in runs if k in d)
            print("    %-30s %14.6g %s" % (k, statistics.median(values), unit))
        walls = [w for runs in sets for _, _, w in runs]
        print("  wall per run: median %.1f s, max %.1f s" % (statistics.median(walls),
                                                            max(walls)))

        if args.traced:
            res, details, wall = run_once(workload, args.seed_base + 7, args.seconds, 1)
            print("  traced run (%.1f s wall): trace overhead %.1f%% on the median op" %
                  (wall, details.get("trace_overhead_pct", (float("nan"), ""))[0]))
            for name, m in res["metrics"].items():
                print("    %-30s %14.6g %s" % (name, m["value"], m["unit"]))

    print("\nall end-to-end metrics agree within their bounds" if all_ok
          else "\nSOME METRICS DO NOT AGREE (see above)")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
