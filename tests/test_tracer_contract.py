"""The benchmark's tracer still sees the library it wraps.

`perfbench/tracer.py` patches public names of `eqchase` from outside and
reads some arguments by position, so a change to a wrapped signature can
silently misfile its spans.  One job of each benchmark workload runs
under `Tracer.install()`, as the benchmark's traced run issues it, and
the spans each layer must produce are checked, as is the restoration of
every patched attribute by `uninstall()`.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import pytest

from eqchase.cli import main
from eqchase.model import AtomSet
from perfbench_loader import load_tracer, load_workloads

tr = load_tracer()
w = load_workloads()

# Spans each workload's job must open, with how many of each.
EXPECTED = {
    "chase-egd": {"parser.parse": 1, "chase.run": 1},
    "chase-datalog": {"parser.parse": 1, "chase.run": 1, "chase.query": 2},
    "check-corpus": {
        "parser.parse": 1,
        "axiomatisation.axiomatise": 2,
        "acyclicity.emfa": 1,
        "acyclicity.mfa_st": 1,
        "acyclicity.mfa_sing": 1,
    },
}


def _patchable():
    """Every attribute the tracer may patch, keyed by (owner, name)."""
    owners = [sys.modules[m] for m in ("eqchase.cli", "eqchase.chase",
                                       "eqchase.acyclicity", "eqchase.model")]
    owners.append(AtomSet)
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def _traced_job(workload, tmp_path):
    job = min(w.make_jobs(workload, 1), key=lambda j: len(j.text))
    w.write_inputs([job], tmp_path)
    tracer = tr.Tracer()
    before = _patchable()
    tracer.install()
    try:
        patched = {k for k, v in _patchable().items() if before.get(k) is not v}
        span = tracer.open("cli.job")
        try:
            code, out, err = w.run_cli(main, job.cli_args(tmp_path))
        finally:
            tracer.close(span)
    finally:
        tracer.uninstall()
    assert patched, "install() patched nothing"
    after = _patchable()
    assert not [k for k in before if after.get(k) is not before[k]]
    assert after.keys() == before.keys()
    assert code == w.EXIT_OK, err
    assert w.check_output(workload, job, code, out) is None
    return tracer, out


@pytest.mark.parametrize("workload", w.WORKLOADS)
def test_each_layer_opens_its_spans(workload, tmp_path):
    tracer, out = _traced_job(workload, tmp_path)
    names = Counter(s.name for s in tracer.spans)
    for name, n in EXPECTED[workload].items():
        assert names[name] == n, (name, dict(names))
    runs = [s for s in tracer.spans if s.name == "chase.run"]
    if workload == "chase-egd":
        (run,) = runs
        assert run.info["steps"] == json.loads(out)["steps"]
        assert len(run.info["stamps"]) == run.info["steps"]
        assert run.matches > 0
    if workload == "chase-datalog":
        # The index lookups of each query search hand it candidates.
        assert all(s.info > 0 for s in tracer.spans if s.name == "chase.query")
    if workload == "check-corpus":
        assert not runs
        assert any(s.matches for s in tracer.spans if s.name == "acyclicity.saturate")

