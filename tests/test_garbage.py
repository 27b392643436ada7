"""A run leaves no reference cycles behind.

Objects in a reference cycle are freed only by the cyclic garbage
collector, whose passes the benchmark measured at about a seventh of a
check job.  Each run below happens with the collector disabled, after a
first run has warmed every cache; `gc.collect()` must then find nothing
unreachable.
"""

from __future__ import annotations

import gc

import pytest

from eqchase import ChaseLimits, Ontology, chase, check_pipeline, parse
from eqchase.cli import main
from perfbench_loader import load_workloads
from rulesets import ALL_TEXTS

w = load_workloads()


def _unreachable_after(run) -> int:
    """Objects the cyclic collector frees after `run()`, run with the
    collector off."""
    run()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_chase_with_merges_leaves_no_cycles():
    program = parse(w.egd_instance(20, 0))
    ontology = Ontology(program.rules, program.facts)

    def run():
        outcome = chase(ontology)
        assert outcome.trace.egd_steps > 0

    assert _unreachable_after(run) == 0


def test_query_run_leaves_no_cycles(tmp_path):
    job = min(w.make_jobs("chase-datalog", 1), key=lambda j: len(j.text))
    w.write_inputs([job], tmp_path)

    def run():
        code, out, err = w.run_cli(main, job.cli_args(tmp_path))
        assert w.check_output("chase-datalog", job, code, out) is None, err

    assert _unreachable_after(run) == 0


@pytest.mark.parametrize("name", sorted(ALL_TEXTS))
def test_check_pipeline_leaves_no_cycles(name):
    rules = parse(ALL_TEXTS[name]).rules
    limits = ChaseLimits(max_term_depth=10)

    def run():
        assert len(check_pipeline(rules, limits, sing_cap=4)) > 3

    assert _unreachable_after(run) == 0
