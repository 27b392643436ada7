"""The saturation keeps its pinned derivation records.

`test_check_pins.py` pins what `eqchase check` prints, which names no
derivation record.  This file saturates, for each of its cases, the rule
set of each notion `check --notion all --sing-cap 4` runs, at the CLI's
default limits, and checks one sha256 per notion against
`data/derivation_pins.json`.  The digest covers the atoms in rank order,
the derivation records in insertion order, the status and limit, the
witness and `steps`; so a change to the saturation or to the matcher
must leave every atom, its order and the match that derived it as they
were.

The reference is written by running this file as a script, at a commit
whose outputs are trusted:

    PYTHONPATH=src python tests/test_derivation_pins.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from eqchase import parse
from eqchase.acyclicity import emfa_set
from eqchase.axiomatisation import (
    canonical_singularisation,
    singularisations,
    standard_axiomatisation,
)
from eqchase.chase import ChaseLimits
from test_check_pins import CASES

REFERENCE = Path(__file__).resolve().parent / "data" / "derivation_pins.json"
# The CLI's defaults: `--max-depth 10 --max-atoms 1000000`.
LIMITS = ChaseLimits(max_atoms=1_000_000, max_term_depth=10)
SING_CAP = 4


def _notions(text: str) -> dict:
    """Notion -> the rule set its check saturates; the enumerated
    singularisations after the canonical one are numbered."""
    rules = parse(text).rules
    out = {
        "emfa": rules,
        "mfa-st": standard_axiomatisation(rules).rules,
        "mfa-sing": canonical_singularisation(rules).rules,
    }
    for k, axr in enumerate(itertools.islice(singularisations(rules), 1, SING_CAP), 1):
        out[f"mfa-sing-all-{k}"] = axr.rules
    return out


def _plain(x):
    """A derivation record as JSON: tuples as lists, atoms and terms as
    their text."""
    if type(x) is tuple:
        return [_plain(y) for y in x]
    return x if type(x) in (str, int) else str(x)


def _digest(rules) -> str:
    outcome = emfa_set(rules, LIMITS)
    record = {
        "atoms": [str(a) for a in outcome.atoms],
        "derivations": [[str(a), _plain(d)] for a, d in outcome.derivations.items()],
        "status": outcome.status,
        "limit": outcome.limit,
        "witness": [str(outcome.witness_atom), str(outcome.witness_term)],
        "steps": outcome.steps,
    }
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def _pins(text: str) -> dict:
    return {notion: _digest(rules) for notion, rules in _notions(text).items()}


def test_the_cases_are_the_pinned_ones():
    assert sorted(CASES) == sorted(json.loads(REFERENCE.read_text()))


@pytest.mark.parametrize("case", sorted(CASES))
def test_derivations_match_the_pin(case):
    pinned = json.loads(REFERENCE.read_text())
    assert _pins(CASES[case]) == pinned[case]


if __name__ == "__main__":
    pins = {case: _pins(text) for case, text in sorted(CASES.items())}
    REFERENCE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {REFERENCE}")
