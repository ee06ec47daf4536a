"""Self-test of the benchmark itself; run from the repository root.

    python3 perfbench/selftest.py            # check
    python3 perfbench/selftest.py --record   # re-pin digests.json

Checks, for every workload at the default seed:

1. a traced run passes every output check and the designed layer
   separation holds (no engine calls on growth or oracles, every block
   count on growth answered, no abelian/vspace/groups calls on growth or
   enumerate);
2. the output digests match digests.json;
3. every pass-0 output, deliberately corrupted, is caught by the
   reference checks, and changes the digest;
4. BENCHMARK.json and predictions.json name exactly the metrics the
   runner reports.

``--record`` runs the default seed and writes the digests of its outputs;
use it only when an output change is intended.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def corrupt(spec, out):
    """The output with one checked value changed."""
    kind = spec["kind"]
    if isinstance(out, list):                      # mu_D_sequence
        return ["7/3" if out[0] != "7/3" else "1/3"] + out[1:]
    out = dict(out)
    if "count" in out:
        out["count"] = str(int(out["count"]) + 1)
    elif kind == "abelian-count":                  # catalog without a value
        out["cases"] = out["cases"][:-1]
    elif kind == "word-image":
        out["imageSize"] += 1
    elif kind in ("measure-kcap", "pairwise-check"):
        out["measure"] = "2/1"
    elif kind == "dim-compare":
        out["logRatios"] = [1.5] + out["logRatios"][1:]
    elif kind in ("chain", "spectrum"):
        out["logCounts"] = [[0.25]] + out["logCounts"][1:]
    else:
        raise AssertionError(f"no corruption for {kind}")
    return out


def check_corruption(workload, problems):
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as workdir:
        jobs = workloads.build(workload, run.DEFAULT_SEED, workdir)
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            outputs = {j["id"]: worker.run_job(j) for j in jobs["passes"][0]}
        finally:
            os.chdir(cwd)
        base = run.outputs_digest(jobs["passes"][0], outputs)
        for job in jobs["passes"][0]:
            code, stdout, err = outputs[job["id"]]
            if reference.check(job["spec"], code, stdout, workdir):
                problems.append(f"{job['id']}: a genuine output fails its check")
                continue
            bad = json.dumps(corrupt(job["spec"], json.loads(stdout)))
            if reference.check(job["spec"], code, bad, workdir) is None:
                problems.append(f"{job['id']}: a corrupted output passes")
            if run.outputs_digest(jobs["passes"][0],
                                  {**outputs, job["id"]: (code, bad, err)}) == base:
                problems.append(f"{job['id']}: corruption leaves the digest")


def traced(workload, root):
    args = SimpleNamespace(workload=workload, seed=run.DEFAULT_SEED,
                           seconds=0, trace=1, started=time.monotonic())
    return run.measure(args, os.path.join(root, "src"))


def check_benchmark_json(root, problems):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if [m["name"] for m in bench["end_to_end"]] != [n for n, _ in run.END_TO_END]:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] != \
            tracing.per_layer_spec():
        problems.append("BENCHMARK.json per_layer differs from tracing.py")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    with open(os.path.join(HERE, "predictions.json")) as fh:
        rows = json.load(fh)["predictions"]
    if [r["metric"] for r in rows] != [m["name"] for m in bench["per_layer"]]:
        problems.append("predictions.json rows differ from the per-layer metrics")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--record", action="store_true")
    record = parser.parse_args().record
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    problems = []
    digests = {"seed": run.DEFAULT_SEED, "warmup": {}, "pass0": {}}
    for workload in workloads.WORKLOADS:
        line, details = traced(workload, root)
        for kind in ("warmup", "pass0"):
            digests[kind][workload] = details["digests"][kind]
        reasons = [r for r in details["failures"]
                   if not (record and "digests.json" in r)]
        problems += [f"{workload}: {r}" for r in reasons]
        problems += [f"{workload}: layer separation: {b}"
                     for b in details["layer_separation_breaches"]]
        check_corruption(workload, problems)
        separation = "BROKEN" if details["layer_separation_breaches"] else "ok"
        print(f"{workload}: {line['attempted']} jobs, {line['failed']} failed, "
              f"separation {separation}")
    check_benchmark_json(root, problems)
    if record:
        with open(os.path.join(HERE, "digests.json"), "w") as fh:
            json.dump(digests, fh, indent=1)
            fh.write("\n")
        print("digests.json written")
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
