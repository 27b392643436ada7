"""The eqchase benchmark: closed-loop CLI jobs on three workloads.

    python3 perfbench/run.py --workload chase-egd --seed 1 --seconds 30 --trace 0

Run from the repository root.  Workloads (BENCHMARK.json says why each
was chosen; workloads.py builds the inputs and their references):

  chase-egd      eqchase chase --format json --no-timing, ROADMAP family (b)
  chase-datalog  eqchase query, transitive closure over random DAGs
  check-corpus   eqchase check --notion all --format json --no-timing

--trace 0 starts REPETITIONS fresh processes one after the other
(worker.py), each running the closed loop for an equal share of what is
left of --seconds, and reports the end-to-end metrics:

  setup_s      process start to the first timed job, median over processes
  jobs_per_s   jobs divided by the time spent in them, median over processes
  job_ms.p50   median job latency over the jobs of all processes
  job_ms.p90   90th percentile of the same; at least ten jobs lie beyond it
  peak_rss_mb  peak resident memory, median over processes
  pass_share   jobs whose output matched its reference, over jobs attempted
               (1 - fail_share; a metric that reads 0 cannot carry a bound)

Times are calibrated to a reference machine speed.  The machine this was
built on is shared, and its speed for pure Python drifts by up to a
factor of two within seconds, with no steal time to account for it.  So
between jobs, outside the timed calls, each process runs a fixed kernel
(calibrate.py) that does not touch the code under test; every job time is
scaled by KERNEL_REF_MS over the median of the four kernel samples around
it, and set-up time by the first three.  A change to eqchase moves the
calibrated times as it would move the raw ones on a quiet machine.  The
raw medians are printed beside them.

--trace 1 runs one process that issues every job untraced and then traced
and reports the per-layer metrics of layers.json (uncalibrated); its
spans are written to perfbench/_out/.

Either way a verification pass outside the timed loop re-checks every
distinct input (workloads.verify_outside_loop); any job whose exit code
or output misses its reference counts as failed.  The last line of stdout
is one JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads as w  # noqa: E402

REPETITIONS = 7
# At least ten jobs lie beyond the 90th percentile of a run.
MIN_JOBS = 110
# A repetition that overruns its share by this much is stuck.
STUCK_S = 25.0
# One calibration kernel run on the reference machine speed, in ms.
KERNEL_REF_MS = 1.7
UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_ms.p50": "ms", "job_ms.p90": "ms",
         "peak_rss_mb": "MB", "pass_share": "share"}


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_worker(args, share: float, index: int, workdir: Path, trace_out=None) -> dict:
    out = workdir / f"worker-{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(share), "--min-jobs", str(math.ceil(MIN_JOBS / REPETITIONS)),
           "--dir", str(workdir / f"inputs-{index}"), "--out", str(out)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    cmd += ["--spawned", repr(time.monotonic())]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=share + STUCK_S)
    return json.loads(out.read_text())


def verify(workload: str, seed: int, workdir: Path) -> tuple[int, list[str]]:
    """The checks outside the timed loop: (inputs checked, failures)."""
    sys.path.insert(0, str(ROOT / "src"))
    jobs = w.make_jobs(workload, seed)
    directory = workdir / "verify"
    w.write_inputs(jobs, directory)
    failures = w.verify_outside_loop(workload, jobs, directory)
    return (len(jobs) if workload in w.VERIFIED else 0), failures


def calibrated(r: dict) -> tuple[list[float], float]:
    """A process's job latencies and set-up time at the reference speed.
    kernel_ms[j] was sampled just before job j, kernel_ms[j + 1] just
    after it."""
    k = r["kernel_ms"]
    lat = [x * KERNEL_REF_MS / statistics.median(k[max(0, j - 1):j + 3])
           for j, x in enumerate(r["latencies_ms"])]
    return lat, r["setup_s"] * KERNEL_REF_MS / statistics.median(k[:3])


def end_to_end(results: list[dict]) -> tuple[dict, list[str]]:
    runs = {"calibrated": [calibrated(r) for r in results],
            "raw": [(r["latencies_ms"], r["setup_s"]) for r in results]}
    lines = []
    for kind, per_process in runs.items():
        every = [x for lat, _ in per_process for x in lat]
        per_run = {
            "setup_s": [setup for _, setup in per_process],
            "jobs_per_s": [1000.0 * len(lat) / sum(lat) for lat, _ in per_process],
            "job_ms.p50": [statistics.median(lat) for lat, _ in per_process],
            "job_ms.p90": [statistics.quantiles(lat, n=10)[-1] for lat, _ in per_process],
            "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        }
        values = {
            "setup_s": statistics.median(per_run["setup_s"]),
            "jobs_per_s": statistics.median(per_run["jobs_per_s"]),
            "job_ms.p50": statistics.median(every),
            "job_ms.p90": statistics.quantiles(every, n=10)[-1],
            "peak_rss_mb": statistics.median(per_run["peak_rss_mb"]),
        }
        lines.append(f"  {kind}:")
        lines += [f"    {name:<12} {values[name]:>10.4f}  spread {spread(per_run[name]):.3f} "
                  f"over {len(results)} processes" for name in per_run]
        if kind == "calibrated":
            reported = values
            beyond = sum(1 for x in every if x > values["job_ms.p90"])
            lines.append(f"    latency samples {len(every)}, {beyond} beyond p90")
    return reported, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=w.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "eqchase" / "__init__.py").is_file():
        print(f"no eqchase sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2

    workdir = HERE / "_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            trace_out = HERE / "_out" / f"trace-{args.workload}-{args.seed}.json"
            results = [run_worker(args, args.seconds, 0, workdir, trace_out)]
        else:
            # Each process gets an equal share of the time left, so one that
            # overran (it always finishes its last cycle) shortens the rest.
            start = time.monotonic()
            results = []
            for i in range(REPETITIONS):
                left = args.seconds - (time.monotonic() - start)
                results.append(run_worker(args, max(0.0, left) / (REPETITIONS - i), i, workdir))
        checked, verify_failures = verify(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for r in results for f in r["failures"]] + verify_failures
    attempted = sum(r["attempted"] for r in results) + checked
    print(f"{args.workload} seed {args.seed}: {len(results)} process(es), "
          f"{results[0]['cycle']} jobs per cycle, {attempted} checks, {len(failures)} failed")
    for f in sorted(set(failures))[:20]:
        print(f"  FAILED {f}")
    if args.trace:
        layers = results[0]["layers"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in tracer.layer_table()}
        for name, m in metrics.items():
            print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
    else:
        values, lines = end_to_end(results)
        values["pass_share"] = (attempted - len(failures)) / attempted
        print("\n".join(lines))
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
