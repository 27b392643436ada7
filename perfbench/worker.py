"""One benchmark process: set up one workload, run its closed loop, and
write the measurements as JSON.

Started by run.py, one process per repetition, so that set-up time and
peak memory belong to a process that runs only this workload.  One
client, no threads: each CLI job is an in-process call of
`eqchase.cli.main(argv)`, issued after the previous one returned.  The
loop runs whole cycles of the job list until `--seconds` have passed and
at least `--min-jobs` jobs are done.  Outputs are checked after the loop.

With --trace-out, every job runs twice in a row, untraced and then traced,
and the per-layer metrics of tracer.py are reported for the traced runs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from eqchase.cli import main  # noqa: E402

import calibrate  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as w  # noqa: E402

perf = time.perf_counter


def call(argv: list[str]) -> tuple[int, str]:
    """One job; an exception or an argparse exit is a failed job."""
    try:
        code, out, _ = w.run_cli(main, argv)
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted as failures
        return -1, repr(exc)
    return code, out


class Checker:
    """Checks each distinct (job, exit code, output) once."""

    def __init__(self, workload: str, jobs: list[w.Job]):
        self.workload = workload
        self.jobs = jobs
        self.seen: dict[tuple[int, int, str], str | None] = {}
        self.failures: list[str] = []

    def __call__(self, i: int, code: int, out: str) -> None:
        key = (i, code, out)
        if key not in self.seen:
            self.seen[key] = w.check_output(self.workload, self.jobs[i], code, out)
        if self.seen[key] is not None:
            self.failures.append(f"{self.jobs[i].name}: {self.seen[key]}")


def plain_loop(argvs, seconds: float, min_jobs: int, check: Checker) -> dict:
    """Whole cycles of the job list.  Before the first job and after each
    job, outside the timed calls, the calibration kernel samples the
    machine's current speed."""
    records = []
    kernel = [calibrate.kernel_ms()]
    start = perf()
    while True:
        for i, argv in enumerate(argvs):
            t0 = perf()
            code, out = call(argv)
            records.append((i, code, out, perf() - t0))
            kernel.append(calibrate.kernel_ms())
        if perf() - start >= seconds and len(records) >= min_jobs:
            break
    for i, code, out, _ in records:
        check(i, code, out)
    return {"kernel_ms": kernel, "latencies_ms": [r[3] * 1000.0 for r in records],
            "attempted": len(records)}


def traced_loop(argvs, seconds: float, check: Checker, tracer: tr.Tracer) -> dict:
    """Whole cycles, at least one; each job untraced and then traced."""
    untraced = traced = 0.0
    jobs = 0
    start = perf()
    while True:
        for i, argv in enumerate(argvs):
            t0 = perf()
            code, out = call(argv)
            untraced += perf() - t0
            check(i, code, out)
            tracer.install()
            span = tracer.open("cli.job")
            try:
                code, out = call(argv)
            finally:
                tracer.close(span)
                tracer.uninstall()
            traced += span.end - span.start
            check(i, code, out)
            jobs += 1
        if perf() - start >= seconds:
            break
    return {"layers": tr.layer_metrics(tracer, jobs, traced, untraced), "attempted": 2 * jobs}


def main_worker() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=w.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-jobs", type=int, default=1)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace-out", type=Path,
                    help="trace this run and write its spans to this file")
    args = ap.parse_args()

    jobs = w.make_jobs(args.workload, args.seed)
    w.write_inputs(jobs, args.dir)
    argvs = [job.cli_args(args.dir) for job in jobs]
    check = Checker(args.workload, jobs)
    setup_s = time.monotonic() - args.spawned

    if args.trace_out:
        tracer = tr.Tracer()
        result = traced_loop(argvs, args.seconds, check, tracer)
        tracer.dump(args.trace_out)
    else:
        result = plain_loop(argvs, args.seconds, args.min_jobs, check)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["cycle"] = len(jobs)
    result["failures"] = check.failures
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main_worker()
