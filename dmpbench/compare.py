#!/usr/bin/env python3
"""Summarise and compare dmpbench results.

Each directory holds the saved standard output of benchmark runs, one file
per run (any name ending in .out). Run from the repository root:

    python3 dmpbench/compare.py BASE_DIR            # spread of each metric
    python3 dmpbench/compare.py BASE_DIR NEW_DIR    # NEW against BASE

The spread of a metric is the distance between the first and third
quartiles of its values (statistics.quantiles, n=4) as a share of their
median. A comparison reports, per workload and end-to-end metric, how much
worse NEW's median is than BASE's and flags changes beyond the metric's
bound in BENCHMARK.json. Results measured with different core counts
(nproc or GOMAXPROCS) are refused: their timings are not comparable.

Exit status: 0 when every run was correct and (comparing) nothing
regressed beyond its bound; 1 otherwise; 2 on unusable input.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """Return {(workload, trace): [result, ...]} and the set of core stamps."""
    runs, cores = {}, set()
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if len(lines) < 2:
            sys.exit("compare: %s holds no result" % path)
        env = json.loads(lines[-2])["env"]
        res = json.loads(lines[-1])
        cores.add((env["nproc"], env["gomaxprocs"]))
        runs.setdefault((env["workload"], env["trace"]), []).append(res)
    if not runs:
        sys.exit("compare: no *.out files in %s" % directory)
    return runs, cores


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(d) for d in argv[1:]]
    cores = set().union(*(c for _, c in sets))
    if len(cores) != 1:
        print("compare: refusing results from different core counts (nproc, GOMAXPROCS): %s"
              % sorted(cores), file=sys.stderr)
        return 2
    print("cores (nproc, GOMAXPROCS): %s" % (next(iter(cores)),))
    status = 0
    base = sets[0][0]
    for (workload, trace), results in sorted(base.items()):
        bad = sum(1 for r in results if not r["correct"] or r["failed"])
        if bad:
            status = 1
        print("\n%s (trace=%s): %d runs, %d incorrect" % (workload, int(trace), len(results), bad))
        names = sorted(results[0]["metrics"])
        for name in names:
            vals = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med, sp = spread(vals)
            line = "  %-30s median %14.4f %-8s spread %6.2f%%" % (name, med, unit, 100 * sp)
            m = e2e.get(name) if not trace else None
            if m:
                line += "  (bound %.0f%%%s)" % (100 * m["bound"], "" if name == "setup_s" or sp < m["bound"] else ", OVER")
            if len(sets) == 2 and m:
                other = sets[1][0].get((workload, trace))
                if other is None:
                    line += "  NEW: missing"
                    status = 1
                else:
                    new = statistics.median(r["metrics"][name]["value"] for r in other)
                    worse = (new - med) / abs(med) if med else 0.0
                    if m["better"] == "higher":
                        worse = -worse
                    flag = "REGRESSION" if worse > m["bound"] else "ok"
                    if flag != "ok":
                        status = 1
                    line += "  NEW %14.4f (%+.2f%% worse) %s" % (new, 100 * worse, flag)
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
