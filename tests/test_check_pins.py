"""`eqchase check` keeps its pinned outputs.

Runs `eqchase check --notion all --sing-cap 4 --format json --no-timing`
in-process on the check-corpus benchmark jobs of two seeds (read from
`perfbench/workloads.py`) and on a seeded batch of random rule sets from
`corpus.py`, and checks the exit code and the digest of stdout against
`data/check_pins.json`.  The saturation's semantics fix which atoms it
adds and in which order, so a change to the checks or to the matcher
must leave every verdict, witness, `set_size` and `steps` unchanged.

The reference is written by running this file as a script, at a commit
whose outputs are trusted:

    PYTHONPATH=src python tests/test_check_pins.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from corpus import random_ruleset
from eqchase.cli import main
from eqchase.parser import serialize_rule
from perfbench_loader import load_workloads

w = load_workloads()
REFERENCE = Path(__file__).resolve().parent / "data" / "check_pins.json"
CHECK_ARGV = ("check", "--notion", "all", "--sing-cap", "4", "--format", "json", "--no-timing")
SEEDS = (101, 102)
CORPUS_SEED = 4
CORPUS_SIZE = 150


def _cases() -> dict[str, str]:
    """Case id -> rule text; a job whose text an earlier seed had is kept once."""
    cases: dict[str, str] = {}
    seen: set[str] = set()
    for seed in SEEDS:
        for job in w.make_jobs("check-corpus", seed):
            if job.text not in seen:
                seen.add(job.text)
                cases[f"s{seed}-{job.name}"] = job.text
    rng = random.Random(CORPUS_SEED)
    for i in range(CORPUS_SIZE):
        rules = random_ruleset(rng)
        cases[f"corpus-{i:03d}"] = "".join(serialize_rule(r) + "\n" for r in rules)
    return cases


def _run(text: str, directory: Path) -> dict:
    path = directory / "case.rules"
    path.write_text(text)
    code, out, err = w.run_cli(main, [CHECK_ARGV[0], str(path), *CHECK_ARGV[1:]])
    assert not err, err
    return {"exit": code, "digest": w.digest(out)}


CASES = _cases()


def test_the_cases_are_the_pinned_ones():
    assert sorted(CASES) == sorted(json.loads(REFERENCE.read_text()))


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_output_matches_the_pin(case, tmp_path):
    pinned = json.loads(REFERENCE.read_text())
    assert _run(CASES[case], tmp_path) == pinned[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {case: _run(text, Path(tmp)) for case, text in sorted(CASES.items())}
    REFERENCE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {REFERENCE}")
