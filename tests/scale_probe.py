"""Chase and check time as the rule count grows (ROADMAP items 13 and 14).

    PYTHONPATH=src python3 tests/scale_probe.py [--rules 360 1440 2880 5760] [--repeat 3]
    PYTHONPATH=src python3 tests/scale_probe.py --mode check
        [--notion emfa|mfa-st|mfa-sing] [--rules 90 360 1440] [--repeat 3]

Each program is a run of open `chain_family` families (perfbench/
workloads.py) of length 8 and arity 2, renamed apart so that no two
share a predicate, with one fact per family: 9 rules and 9 chase steps
per family, eight TGD steps and one merge.  So the work per step is the
same at every size, and a time per step that grows with the rule count
is work that does not belong to the step.  `built` counts the atoms the
chase constructs, in one more, untimed run with `Atom.__init__` wrapped,
next to `atoms`, the atoms of its result: it builds one per atom a TGD
step adds and one per merge image the set keeps.

`--mode check` times `is_emfa` on the rules of the same programs, by
default on the rules themselves (EMFA, acyclic: each family's merge
renames one null in its last predicate), with `--notion mfa-st` on
their standard axiomatisation (cyclic) and with `--notion mfa-sing` on
their canonical singularisation (acyclic; most of its rules differ only
in their predicates, so they bind one compiled form of their skeleton);
each family adds 52 atoms to the EMFA set, so a time that grows faster than the rule count is work that
does not belong to a family.  The call is timed whole, its compile
included.  `built` counts the atoms the call constructs, as for the
chase, next to `atoms`, the atoms its set holds: a held head the
saturation builds again shows as their gap.

Everything runs in this process, uncalibrated; each size reports the
best of `--repeat` runs as one JSON line.  Standard library and eqchase
only; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from eqchase import (  # noqa: E402
    Atom,
    Ontology,
    Terminated,
    canonical_singularisation,
    chase,
    is_emfa,
    parse,
    standard_axiomatisation,
)
from perfbench_loader import load_workloads  # noqa: E402

LENGTH, ARITY = 8, 2
# The rules each check notion saturates, and its verdict on the programs.
NOTIONS = {
    "emfa": (lambda rules: rules, "acyclic"),
    "mfa-st": (lambda rules: standard_axiomatisation(rules).rules, "cyclic"),
    "mfa-sing": (lambda rules: canonical_singularisation(rules).rules, "acyclic"),
}


def program(families: int) -> str:
    """`families` open chain families, each with its predicates suffixed
    by the family's number and with the fact P0(c0,c1)."""
    wl = load_workloads()
    rng = random.Random(0)
    fact = ",".join(f"c{i}" for i in range(ARITY))
    lines = []
    for k in range(families):
        text, _ = wl.chain_family(rng, LENGTH, ARITY, False)
        text = re.sub(r"(\w+)\(", rf"\1_{k}(", text)
        lines.append(text + f"{text.split('(', 1)[0]}({fact}) .\n")
    return "".join(lines)


def probe(rules: int, repeat: int) -> dict:
    families = rules // (LENGTH + 1)
    parsed = parse(program(families))
    ontology = Ontology(parsed.rules, parsed.facts)
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        outcome = chase(ontology)
        best = min(best, time.perf_counter() - start)
    assert isinstance(outcome, Terminated), outcome
    assert outcome.steps == families * (LENGTH + 1), outcome.steps
    return {"rules": len(parsed.rules), "families": families, "steps": outcome.steps,
            "merges": outcome.trace.egd_steps, "atoms": len(outcome.result),
            "built": built(lambda: chase(ontology)), "best_ms": round(best * 1e3, 2),
            "us_per_step": round(best * 1e6 / outcome.steps, 1)}


def built(call) -> int:
    """The atoms one `call()` constructs."""
    count, init = [0], Atom.__init__

    def counted(self, predicate, args):
        count[0] += 1
        init(self, predicate, args)

    Atom.__init__ = counted
    try:
        call()
    finally:
        Atom.__init__ = init
    return count[0]


def probe_check(rules: int, repeat: int, notion: str) -> dict:
    families = rules // (LENGTH + 1)
    axiomatise, verdict = NOTIONS[notion]
    checked = axiomatise(parse(program(families)).rules)
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        report = is_emfa(checked, notion=notion)
        best = min(best, time.perf_counter() - start)
    assert report.verdict == verdict, report
    return {"rules": families * (LENGTH + 1), "families": families, "notion": notion,
            "checked_rules": len(checked), "atoms": report.set_size,
            "built": built(lambda: is_emfa(checked, notion=notion)), "best_ms": round(best * 1e3, 2)}


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mode", choices=("chase", "check"), default="chase")
    ap.add_argument("--notion", choices=tuple(NOTIONS), default="emfa",
                    help="the check --mode check times")
    ap.add_argument("--rules", type=int, nargs="+",
                    help="default: 360 1440 2880 5760, with --mode check 90 360 1440")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)
    if args.mode == "chase":
        rows = (probe(rules, args.repeat) for rules in args.rules or [360, 1440, 2880, 5760])
    else:
        rows = (probe_check(rules, args.repeat, args.notion)
                for rules in args.rules or [90, 360, 1440])
    for row in rows:
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
