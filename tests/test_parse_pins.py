"""`parse` keeps its pinned results.

Parses every `data/*.rules` file, the job texts of all three benchmark
workloads at two seeds (read from `perfbench/workloads.py`), a seeded
batch of serialised random programs from `corpus.py` and a seeded batch
of grammar-shaped noise, and checks each result against
`data/parse_pins.json`: a digest of `serialize(program)` when the text
parses, else the exact `ParseError` text, every diagnostic with its
`line:col`, in order.  A digest of each input pins the case list itself,
so a generator that drifts between interpreters shows as a changed case.

The reference is written by running this file as a script, at a commit
whose parser is trusted:

    PYTHONPATH=src python tests/test_parse_pins.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

from corpus import random_ontology, random_query
from eqchase.parser import ParseError, Program, parse, serialize
from perfbench_loader import load_workloads

w = load_workloads()
DATA = Path(__file__).resolve().parent / "data"
REFERENCE = DATA / "parse_pins.json"
SEEDS = (101, 102)
CORPUS_SEED = 15
CORPUS_SIZE = 300
NOISE_SEED = 16
NOISE_SIZE = 500

# Pieces of noise: tokens, the characters the lexer must reject or skip
# ('\r', '\x1c' and '\u3000' are whitespace to `str.isspace`; '²' and 'Ⅻ'
# are word characters but not letters; 'ǅ' is a titlecase letter) and
# comments.
_PIECES = ("A", "B", "R", "eq", "a", "b", "X", "Y", "W", "_1", "1", "exists",
           "(", ")", ",", ".", "->", "-", ">", "=", "?", " ", "\n", "\t", "\r",
           "\x1c", "\u3000", "²x", "Ⅻ", "ǅa", "\ufeff", "% c\n", "%c")


def _atom(rng: random.Random, terms: str) -> str:
    args = ",".join(rng.choice(terms) for _ in range(rng.randint(1, 3)))
    return f"{rng.choice('ABR')}({args})"


def _statement(rng: random.Random) -> str:
    """A statement of each shape, over predicates whose arity varies, so
    that arity clashes occur."""
    shape = rng.randrange(5)
    body = ", ".join(_atom(rng, "XYa") for _ in range(rng.randint(1, 2)))
    if shape == 0:
        return _atom(rng, "ab") + " ."
    if shape == 1:
        return f"{body} -> exists W . {_atom(rng, 'XW')} ."
    if shape == 2:
        return f"{body} -> X = Y ."
    if shape == 3:
        return f"{body} -> {_atom(rng, 'XY')} ."
    return f"? exists X . {body} ." if rng.random() < 0.5 else f"? {body} ."


def _noise(rng: random.Random) -> str:
    """Half random runs of pieces, half programs with a few pieces
    deleted, inserted or repeated; a fifth ends in a comment with no line
    feed."""
    if rng.random() < 0.5:
        text = "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 30)))
    else:
        text = "\n".join(_statement(rng) for _ in range(rng.randint(1, 4)))
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(len(text) + 1)
            op = rng.randrange(3)
            if op == 0:
                text = text[:i] + text[i + rng.randint(1, 3):]
            elif op == 1:
                text = text[:i] + rng.choice(_PIECES) + text[i:]
            else:
                text = text[:i] + text[i:i + 4] + text[i:]
    if rng.random() < 0.2:
        text += " % trailing"
    return text


def _cases() -> dict[str, str]:
    """Case id -> text; a job whose text an earlier case had is kept once."""
    cases: dict[str, str] = {}
    for path in sorted(DATA.glob("*.rules")):
        cases[f"data-{path.stem}"] = path.read_text(encoding="utf-8")
    seen = set(cases.values())
    for workload in w.WORKLOADS:
        for seed in SEEDS:
            for job in w.make_jobs(workload, seed):
                if job.text not in seen:
                    seen.add(job.text)
                    cases[f"{workload}-s{seed}-{job.name}"] = job.text
    rng = random.Random(CORPUS_SEED)
    for i in range(CORPUS_SIZE):
        o = random_ontology(rng)
        queries = tuple(random_query(rng, o.rules) for _ in range(2))
        cases[f"corpus-{i:03d}"] = serialize(Program(o.rules, o.facts, queries))
    rng = random.Random(NOISE_SEED)
    for i in range(NOISE_SIZE):
        cases[f"noise-{i:03d}"] = _noise(rng)
    return cases


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _result(text: str) -> dict:
    try:
        program = parse(text)
    except ParseError as exc:
        return {"input": _digest(text), "error": str(exc)}
    return {"input": _digest(text), "program": _digest(serialize(program))}


CASES = _cases()


@functools.lru_cache(maxsize=1)
def _pinned() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def test_the_cases_are_the_pinned_ones():
    pinned = _pinned()
    assert sorted(CASES) == sorted(pinned)
    assert {case: _digest(text) for case, text in CASES.items()} == {
        case: pin["input"] for case, pin in pinned.items()
    }


def test_the_pins_cover_both_outcomes():
    pinned = _pinned().values()
    assert sum("error" in pin for pin in pinned) >= 200
    assert sum("program" in pin for pin in pinned) >= 300


@pytest.mark.parametrize("case", sorted(CASES))
def test_parse_matches_the_pin(case):
    assert _result(CASES[case]) == _pinned()[case]


if __name__ == "__main__":
    pins = {case: _result(text) for case, text in sorted(CASES.items())}
    REFERENCE.write_text(json.dumps(pins, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
                         encoding="utf-8")
    print(f"wrote {len(pins)} pins to {REFERENCE}")
