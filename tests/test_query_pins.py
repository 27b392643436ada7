"""`eqchase query` keeps its pinned outputs.

Runs `eqchase query --format json` in-process on the chase-datalog
benchmark jobs of two seeds (read from `perfbench/workloads.py`) and on a
seeded batch of random programs from `corpus.py`, each with two random
queries, and checks the exit code and the digest of stdout against
`data/query_pins.json`.  The input goes through the whole path: the
parser, validation, the chase, the homomorphism search and the
serialisation of each query and witness, so a change to any of them
must leave every status, witness and limit unchanged.

The reference is written by running this file as a script, at a commit
whose outputs are trusted:

    PYTHONPATH=src python tests/test_query_pins.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from corpus import random_ontology, random_query
from eqchase.cli import main
from eqchase.parser import Program, serialize
from perfbench_loader import load_workloads

w = load_workloads()
REFERENCE = Path(__file__).resolve().parent / "data" / "query_pins.json"
QUERY_ARGV = ("query", "--format", "json")
SEEDS = (101, 102)
CORPUS_SEED = 5
CORPUS_SIZE = 50


def _cases() -> dict[str, str]:
    """Case id -> program text; a job whose text an earlier seed had is kept once."""
    cases: dict[str, str] = {}
    seen: set[str] = set()
    for seed in SEEDS:
        for job in w.make_jobs("chase-datalog", seed):
            assert job.argv == QUERY_ARGV
            if job.text not in seen:
                seen.add(job.text)
                cases[f"s{seed}-{job.name}"] = job.text
    rng = random.Random(CORPUS_SEED)
    for i in range(CORPUS_SIZE):
        o = random_ontology(rng)
        queries = tuple(random_query(rng, o.rules) for _ in range(2))
        cases[f"corpus-{i:03d}"] = serialize(Program(o.rules, o.facts, queries))
    return cases


def _run(text: str, directory: Path) -> dict:
    path = directory / "case.rules"
    path.write_text(text)
    code, out, err = w.run_cli(main, [QUERY_ARGV[0], str(path), *QUERY_ARGV[1:]])
    assert not err, err
    return {"exit": code, "digest": w.digest(out)}


CASES = _cases()


def test_the_cases_are_the_pinned_ones():
    assert sorted(CASES) == sorted(json.loads(REFERENCE.read_text()))


@pytest.mark.parametrize("case", sorted(CASES))
def test_query_output_matches_the_pin(case, tmp_path):
    pinned = json.loads(REFERENCE.read_text())
    assert _run(CASES[case], tmp_path) == pinned[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {case: _run(text, Path(tmp)) for case, text in sorted(CASES.items())}
    REFERENCE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {REFERENCE}")
