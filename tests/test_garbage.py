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


FILES = {
    "ok.rules": "A(X) -> exists W . R(X,W), B(W) .\nR(X,Y), R(X,Z) -> Y = Z .\n"
                "A(a) .\nR(a,a) .\n? exists X . B(X) .\n",
    "deep.rules": "A(X) -> exists Y . S(X,Y), A(Y) .\nA(a) .\n? exists X . S(X,X) .\n",
    "parse.rules": "A(X) -> .\n",
    "invalid.rules": "A(X) -> B(X) .\nA(a,b) .\n",
    "corpus/ok.rules": "A(X) -> exists W . R(X,W), B(W) .\nR(X,Y), R(X,Z) -> Y = Z .\n",
    "mixed/ok.rules": "A(X) -> exists W . R(X,W), B(W) .\n",
    "mixed/parse.rules": "A(X) -> .\n",
}

# Every subcommand on each exit code it can give: 0, 1 for bad input and
# 2 for a hit limit; and usage errors, which exit 1.
CLI_RUNS = {
    "usage-unknown-flag": (["check", "{d}/ok.rules", "--bogus"], 1),
    "usage-bad-count": (["chase", "{d}/ok.rules", "--max-steps", "x"], 1),
    "usage-unknown-subcommand": (["bogus"], 1),
    "usage-no-arguments": ([], 1),
    "usage-no-file": (["check"], 1),
    "validate-ok": (["validate", "{d}/ok.rules"], 0),
    "validate-parse-error": (["validate", "{d}/parse.rules"], 1),
    "validate-invalid": (["validate", "{d}/invalid.rules", "--format", "json"], 1),
    "validate-missing-file": (["validate", "{d}/missing.rules"], 1),
    "chase-ok": (["chase", "{d}/ok.rules", "--format", "json"], 0),
    "chase-parse-error": (["chase", "{d}/parse.rules"], 1),
    "chase-invalid": (["chase", "{d}/invalid.rules"], 1),
    "chase-depth": (["chase", "{d}/deep.rules", "--max-depth", "3"], 2),
    "chase-max-atoms": (["chase", "{d}/ok.rules", "--max-atoms", "2"], 2),
    "chase-timeout": (["chase", "{d}/deep.rules", "--timeout-ms", "0"], 2),
    "query-ok": (["query", "{d}/ok.rules", "--format", "json"], 0),
    "query-rule-as-query": (["query", "{d}/ok.rules", "--query", "A(X) -> B(X) ."], 1),
    "query-missing-file": (["query", "{d}/ok.rules", "--facts", "{d}/missing.facts"], 1),
    "query-depth": (["query", "{d}/deep.rules", "--max-depth", "3"], 2),
    "query-max-atoms": (["query", "{d}/deep.rules", "--max-atoms", "5"], 2),
    "query-timeout": (["query", "{d}/deep.rules", "--timeout-ms", "0"], 2),
    "axiomatise-st": (["axiomatise", "{d}/ok.rules", "--kind", "st", "--format", "json"], 0),
    "axiomatise-sing-all": (["axiomatise", "{d}/ok.rules", "--kind", "sing-all"], 0),
    "axiomatise-parse-error": (["axiomatise", "{d}/parse.rules", "--kind", "st"], 1),
    "axiomatise-invalid": (["axiomatise", "{d}/invalid.rules", "--kind", "sing"], 1),
    "check-ok": (["check", "{d}/ok.rules", "--sing-cap", "2"], 0),
    "check-parse-error": (["check", "{d}/parse.rules"], 1),
    "check-invalid": (["check", "{d}/invalid.rules"], 1),
    "check-depth": (["check", "{d}/ok.rules", "--max-depth", "1"], 2),
    "check-max-atoms": (["check", "{d}/ok.rules", "--max-atoms", "3", "--format", "csv"], 2),
    "check-timeout": (["check", "{d}/ok.rules", "--timeout-ms", "0", "--format", "json"], 2),
    "bench-ok": (["bench", "{d}/corpus"], 0),
    "bench-skipped-file": (["bench", "{d}/mixed"], 1),
    "bench-depth": (["bench", "{d}/corpus", "--max-depth", "1"], 2),
    "bench-max-atoms": (["bench", "{d}/corpus", "--max-atoms", "3"], 2),
    "bench-timeout": (["bench", "{d}/corpus", "--timeout-ms", "0"], 2),
}


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_run_leaves_no_cycles(name, tmp_path):
    for path, text in FILES.items():
        (tmp_path / path).parent.mkdir(exist_ok=True)
        (tmp_path / path).write_text(text)
    args, want = CLI_RUNS[name]
    argv = [a.format(d=tmp_path) for a in args]

    def run():
        code, out, err = w.run_cli(main, argv)
        assert code == want, err

    assert _unreachable_after(run) == 0


@pytest.mark.parametrize("argv", [["--help"]] + [[command, "--help"] for command in
                                                 ("validate", "chase", "query", "axiomatise", "check", "bench")],
                         ids=lambda argv: " ".join(argv))
def test_help_leaves_no_cycles(argv):
    def run():
        with pytest.raises(SystemExit) as exc:
            w.run_cli(main, argv)
        code = exc.value.code
        del exc  # its traceback holds this frame
        assert code == 0

    assert _unreachable_after(run) == 0
