"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the repository root.  Checks that the same seed gives
byte-identical inputs (also in a fresh interpreter), that every job
passes, that a corrupted reference is reported as a failure, that the
traced run reports every metric of layers.json (and BENCHMARK.json lists
the same ones), that layer self times sum to the traced job time, that
the exact counters repeat between two traced runs, and that run.py fails
without a result where the sources are missing.  Exits 1 on a failure.
"""

from __future__ import annotations

import dataclasses
import filecmp
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
import worker  # noqa: E402  (puts src/ on the path)
import workloads as w  # noqa: E402

EXACT = ("chase.steps", "chase.atoms", "chase.egd_steps", "acyclicity.atoms")
failed: list[str] = []


def report(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        failed.append(what)


def same_tree(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def check_inputs(tmp: Path, workload: str) -> None:
    w.write_inputs(w.make_jobs(workload, 7), tmp / "a")
    fresh = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads as w; "
             "w.write_inputs(w.make_jobs(sys.argv[2], 7), __import__('pathlib').Path(sys.argv[3]))")
    subprocess.run([sys.executable, "-c", fresh, str(HERE), workload, str(tmp / "b")],
                   check=True, env={"PYTHONHASHSEED": "123"})
    w.write_inputs(w.make_jobs(workload, 8), tmp / "c")
    report(same_tree(tmp / "a", tmp / "b"), f"{workload}: seed 7 inputs byte-identical across processes")
    report(not same_tree(tmp / "a", tmp / "c"), f"{workload}: seeds 7 and 8 give different inputs")


def check_jobs(tmp: Path, workload: str) -> None:
    jobs = w.make_jobs(workload, 7)
    w.write_inputs(jobs, tmp)
    outputs = [worker.call(job.cli_args(tmp)) for job in jobs]
    errors = [w.check_output(workload, job, code, out) for job, (code, out) in zip(jobs, outputs)]
    errors = [e for e in errors if e] + w.verify_outside_loop(workload, jobs, tmp)
    report(not errors, f"{workload}: all {len(jobs)} jobs pass ({errors[:1]})")

    job, (code, out) = jobs[0], outputs[0]
    if workload == "chase-egd":
        corrupt = dataclasses.replace(job, expect={**job.expect, "digest": "0" * 64})
        caught = w.check_output(workload, corrupt, code, out) is not None
    elif workload == "chase-datalog":
        corrupt = dataclasses.replace(job, expect=job.expect[:-1])
        caught = bool(w.verify_outside_loop(workload, [corrupt], tmp))
    else:
        flipped = ["cyclic" if v == "acyclic" else "acyclic" for v in job.expect]
        corrupt = dataclasses.replace(job, expect=flipped)
        caught = w.check_output(workload, corrupt, code, out) is not None
    report(caught, f"{workload}: a corrupted reference is reported as a failure")


def traced(tmp: Path, workload: str) -> tuple[dict, tr.Tracer]:
    jobs = w.make_jobs(workload, 7)
    w.write_inputs(jobs, tmp)
    tracer = tr.Tracer()
    result = worker.traced_loop([j.cli_args(tmp) for j in jobs], 0.0,
                                worker.Checker(workload, jobs), tracer)
    return result, tracer


def check_trace(tmp: Path, workload: str) -> None:
    first, tracer = traced(tmp, workload)
    second, _ = traced(tmp, workload)
    names = [m["name"] for m in tr.layer_table()]
    report(sorted(first["layers"]) == sorted(names),
           f"{workload}: traced run reports exactly the metrics of layers.json")
    jobs_s = sum(s.end - s.start for s in tracer.spans if s.name == "cli.job")
    own = sum(tr.self_times(tracer.spans))
    report(abs(own - jobs_s) <= 1e-9 * max(jobs_s, 1.0),
           f"{workload}: layer self times sum to the traced job time ({own:.6f}s vs {jobs_s:.6f}s)")
    report(all(first["layers"][k] == second["layers"][k] for k in EXACT),
           f"{workload}: exact counters repeat between two traced runs")


def check_declared() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
    report(per_layer == [(m["name"], m["unit"], m["better"]) for m in tr.layer_table()],
           "BENCHMARK.json per_layer matches layers.json")
    report([x["name"] for x in declared["workloads"]] == list(w.WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")


def check_without_sources(tmp: Path) -> None:
    tmp.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp)
    shutil.copytree(HERE, tmp / HERE.name, ignore=shutil.ignore_patterns("_run", "_out", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", w.WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp, capture_output=True, text=True, timeout=180)
    report(proc.returncode != 0 and not proc.stdout,
           "run.py fails without a result where only BENCHMARK.json and perfbench/ exist")


def main() -> int:
    (HERE / "_run").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_run") as tmp:
        tmp = Path(tmp)
        for i, workload in enumerate(w.WORKLOADS):
            check_inputs(tmp / f"inputs-{i}", workload)
            check_jobs(tmp / f"jobs-{i}", workload)
            check_trace(tmp / f"trace-{i}", workload)
        check_declared()
        check_without_sources(tmp / "bare")
    print(f"{len(failed)} failed" if failed else "all self-checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
