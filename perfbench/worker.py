"""One fresh interpreter running a workload's jobs; started by run.py.

    python3 worker.py JOBS_JSON OUT_JSON MODE SECONDS

MODE is ``setup`` (import pfdim and run the warm-up jobs, then stop),
``run`` (set up, then run whole passes, one job after another in this one
process, until SECONDS have passed) or ``trace`` (set up, then run pass 0
untraced, traced, untraced, traced).  The working directory is the one
holding the job input files.  ``SRC`` in the environment names the
directory that holds the pfdim package.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import tracing

clock = time.perf_counter


def call(spec):
    """Jobs for public functions that have no subcommand."""
    from pfdim import families, measure
    if spec["func"] != "measure.mu_D_sequence":
        raise ValueError(f"unknown function {spec['func']}")
    result = measure.mu_D_sequence(
        families.get_family(spec["family"]), spec["d_formula"],
        spec["x_formula"], spec["indices"], d_selector=spec["d_selector"],
        x_selector=spec["x_selector"])
    return json.dumps([str(f) for f in result])


def run_job(job):
    from pfdim import cli
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in job:
                code = cli.main(list(job["argv"]))
            else:
                out.write(call(job["call"]))
                code = 0
    except Exception:  # a crash is a failed job; keep measuring the rest
        code = -1
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


class Log:
    """First output of every job id, and how many later runs disagreed."""

    def __init__(self):
        self.first = {}
        self.runs = {}
        self.mismatches = {}

    def record(self, job_id, result):
        self.runs[job_id] = self.runs.get(job_id, 0) + 1
        if job_id not in self.first:
            self.first[job_id] = result
        elif result[:2] != self.first[job_id][:2]:
            self.mismatches[job_id] = self.mismatches.get(job_id, 0) + 1


def run_pass(jobs, log, latencies=None, tracer=None):
    start = clock()
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        t = clock()
        result = run_job(job)
        if latencies is not None:
            latencies.append(clock() - t)
        log.record(job["id"], result)
    return clock() - start


def main():
    jobs_path, out_path, mode, seconds = sys.argv[1:5]
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    src = os.path.realpath(os.environ["SRC"])
    sys.path.insert(0, src)
    t0 = clock()
    import pfdim
    if not os.path.realpath(pfdim.__file__).startswith(src + os.sep):
        sys.exit(f"pfdim was imported from {pfdim.__file__}, not from {src}")
    warm = Log()
    run_pass(jobs["warmup"], warm)
    result = {"setup_s": clock() - t0, "warmup": warm.first}
    log = Log()
    if mode == "run":
        latencies, times = [], []
        passes = jobs["passes"]
        # whole passes only, and none that would likely end past SECONDS
        while not times or sum(times) * (len(times) + 1) / len(times) \
                <= float(seconds):
            latencies.append([])
            times.append(run_pass(passes[len(times) % len(passes)], log,
                                  latencies[-1]))
        result.update(latencies=latencies, pass_s=times, passes=len(times))
    elif mode == "trace":
        tracer = tracing.Tracer()
        plain = traced = 0.0
        for _ in range(2):
            plain += run_pass(jobs["passes"][0], log)
            tracer.install()
            try:
                traced += run_pass(jobs["passes"][0], log, tracer=tracer)
            finally:
                tracer.uninstall()
        metrics, breaches = tracing.layer_metrics(
            jobs["workload"], tracer, 2, len(jobs["passes"][0]),
            traced / plain - 1)
        result.update(layers=metrics, breaches=breaches, passes=4)
    if mode != "setup":
        result.update(outputs=log.first, runs=log.runs, mismatches=log.mismatches,
                      peak_rss_mb=resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024)
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
