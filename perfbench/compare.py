"""Compare two sets of benchmark records (files written by run.py).

    python3 perfbench/compare.py BASE NEW

BASE and NEW are record files or directories of them (run.py writes them
to perfbench/out/results/).  Refuses, with exit code 2, when the records
were taken in different environments (Python version, CPU count, CPU model,
whether PFDIM_BUDGET was set) or with different run lengths; the pfdim
commit is what is being compared, so it may differ.  For each workload and
end-to-end metric it prints both medians, the change, and a verdict against
the bound in BENCHMARK.json: "worse" when the new median is worse by more
than the bound, "unresolved" when the base's own quartile spread exceeds
the bound (unless every new run beats every base run), else "ok".
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FIXED = ("python", "nproc", "cpu_model", "pfdim_budget_set")


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) \
        else [path]
    records = []
    for name in files:
        with open(name) as fh:
            records.append(json.load(fh))
    return records


def spread(values):
    if len(values) < 4:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    base, new = (load(p) for p in argv)
    everything = base + new
    if not base or not new:
        print("compare: no records found", file=sys.stderr)
        return 1
    for key in FIXED:
        seen = {json.dumps(r["env"][key]) for r in everything}
        if len(seen) > 1:
            print(f"compare: refusing, environments differ in {key}: "
                  f"{sorted(seen)}", file=sys.stderr)
            return 2
    if len({r["seconds"] for r in everything}) > 1:
        print("compare: refusing, run lengths differ", file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    print(f"{'workload':10s} {'metric':12s} {'base':>12s} {'new':>12s} "
          f"{'change':>8s} {'bound':>6s}  verdict (runs base/new)")
    for w in sorted({r["workload"] for r in base if not r["trace"]}):
        for m in bench["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in base
                 if r["workload"] == w and not r["trace"]]
            n = [r["metrics"][m["name"]]["value"] for r in new
                 if r["workload"] == w and not r["trace"]]
            if not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            lower = m["better"] == "lower"
            worse = ((mn - mb) if lower else (mb - mn)) / mb if mb else 0.0
            beats_all = max(n) < min(b) if lower else min(n) > max(b)
            if worse > m["bound"]:
                verdict = "worse"
            elif spread(b) > m["bound"] and not beats_all:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{w:10s} {m['name']:12s} {mb:12.4f} {mn:12.4f} "
                  f"{(mn / mb - 1) if mb else 0.0:+8.1%} {m['bound']:6.3f}  {verdict} "
                  f"({len(b)}/{len(n)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
