"""pfdim benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {growth,enumerate,oracles} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root.  One client sends jobs in a closed loop:
each job starts when the previous one has finished, all in one worker
process.  Each job is one ``pfdim.cli.main(argv)`` call with its output
captured, or one call of a public function that has no subcommand.  CLI
defaults are left alone (``--workers`` is the CPU count, ``PFDIM_BUDGET``
is whatever the caller's environment says, and it is recorded).

With ``--trace 0`` the last line of output reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of a traced pass
(see tracing.py).  Every job's output is checked against reference.py and
against the digests in digests.json (the warm-up on every run, pass 0 at
the default seed).  The run's
environment, metrics and failures are also written to
``perfbench/out/results/``; compare.py compares two sets of such records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5          # set-up samples per run, one from the measuring worker
DEFAULT_SEED = 0        # the seed whose outputs digests.json pins
DEADLINE_S = 170        # a run must end within 180 s
END_TO_END = (("jobs_per_s", "1/s"), ("job_ms_p50", "ms"), ("job_ms_p90", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("ok_share", "ratio"))


def environment(root, src):
    """What a comparison between two runs must hold fixed, plus the code
    identity (which is what a comparison is about, so it may differ)."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(src, "pfdim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "pfdim_budget_set": "PFDIM_BUDGET" in os.environ,
            "pfdim_commit": commit,
            "pfdim_source_sha256": digest.hexdigest()}


def bare(job):
    """The job as the worker sees it: no expected-answer spec."""
    return {k: v for k, v in job.items() if k != "spec"}


def outputs_digest(jobs, outputs):
    h = hashlib.sha256()
    for job in jobs:
        code, stdout, _err = outputs[job["id"]]
        h.update(f"{job['id']}\0{code}\0{stdout}\0".encode())
    return h.hexdigest()


def launch(mode, seconds, src, workdir, started):
    """Run worker.py in a fresh interpreter and return its result."""
    out = os.path.join(workdir, f"result-{mode}.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "jobs.json", out,
         mode, str(seconds)],
        cwd=workdir, env=dict(os.environ, SRC=src, PYTHONHASHSEED="0"),
        capture_output=True, text=True,
        timeout=max(DEADLINE_S - (time.monotonic() - started), 1))
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    with open(out) as fh:
        return json.load(fh)


def check_outputs(specs, outputs, runs, mismatches, workdir):
    """(attempted, failed, reasons) over every job the worker ran."""
    attempted = failed = 0
    reasons = []
    for job_id, n in runs.items():
        code, stdout, stderr = outputs[job_id]
        try:
            why = reference.check(specs[job_id], code, stdout, workdir)
        except Exception as exc:  # a malformed output must not stop the check
            why = f"reference check raised {exc!r}"
        if why and code != 0:
            why += f": {stderr.strip()[-300:]}"
        bad = n if why else mismatches.get(job_id, 0)
        if bad:
            reasons.append(f"{job_id}: {why or 'a repeat gave another output'}")
        attempted += n
        failed += bad
    return attempted, failed, reasons


def end_to_end(result, setups):
    lat = sorted(1000 * x for p in result["latencies"] for x in p)
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {"jobs_per_s": len(lat) / sum(result["pass_s"]),
            "job_ms_p50": statistics.median(lat),
            "job_ms_p90": deciles[8],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"]}


def measure(args, src):
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=outdir)
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        every = jobs["warmup"] + [j for p in jobs["passes"] for j in p]
        specs = {job["id"]: job["spec"] for job in every}
        with open(os.path.join(workdir, "jobs.json"), "w") as fh:
            json.dump({"workload": args.workload,
                       "warmup": [bare(j) for j in jobs["warmup"]],
                       "passes": [[bare(j) for j in p] for p in jobs["passes"]]},
                      fh)
        setups = [launch("setup", 0, src, workdir, args.started)
                  for _ in range(SETUP_RUNS - 1)]
        result = launch("trace" if args.trace else "run", args.seconds, src,
                        workdir, args.started)
        attempted, failed, reasons = check_outputs(
            specs, result["outputs"], result["runs"], result["mismatches"],
            workdir)
        reasons += check_outputs(
            specs, result["warmup"], dict.fromkeys(result["warmup"], 1), {},
            workdir)[2]

        digests = {"warmup": outputs_digest(jobs["warmup"], result["warmup"]),
                   "pass0": outputs_digest(jobs["passes"][0], result["outputs"])}
        if any(outputs_digest(jobs["warmup"], s["warmup"]) != digests["warmup"]
               for s in setups):
            reasons.append("warm-up outputs differ between set-up runs")
        with open(os.path.join(HERE, "digests.json")) as fh:
            pinned = json.load(fh)
        if digests["warmup"] != pinned["warmup"].get(args.workload):
            reasons.append("warm-up outputs differ from digests.json")
        if args.seed == pinned["seed"] and \
                digests["pass0"] != pinned["pass0"].get(args.workload):
            reasons.append("pass 0 outputs differ from digests.json")

        details = {"samples": sum(map(len, result.get("latencies", ()))),
                   "passes": result["passes"], "jobs_per_pass":
                   len(jobs["passes"][0]), "digests": digests,
                   "failures": reasons[:20],
                   "pass_s": result.get("pass_s"),
                   "latencies_ms": [[round(1000 * x, 3) for x in p]
                                    for p in result.get("latencies", ())]}
        if args.trace:
            metrics = result["layers"]
            units = {n: u for n, u, _ in tracing.per_layer_spec()}
            details["layer_separation_breaches"] = result["breaches"]
        else:
            metrics = end_to_end(result, [s["setup_s"] for s in setups]
                                 + [result["setup_s"]])
            metrics["ok_share"] = 1 - failed / attempted
            units = dict(END_TO_END)
        return {"correct": not reasons and failed == 0, "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]}
                            for n, v in metrics.items()}}, details
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.started = time.monotonic()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pfdim", "__init__.py")):
        print("perfbench: ./src/pfdim not found; run from the pfdim "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = environment(root, src)
    print("perfbench-env " + json.dumps(env))
    try:
        line, details = measure(args, src)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "details": details, **line}
    resdir = os.path.join(HERE, "out", "results")
    os.makedirs(resdir, exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(os.path.join(resdir, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print("perfbench-details " + json.dumps(
        {k: v for k, v in details.items() if k != "latencies_ms"}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
