"""The chase engine against the naive reference semantics.

The engine must select exactly the (rule, substitution) sequence that a
naive full rescan with `find_applicable` selects.  This module holds the
two runs and the cases they are compared on, with the standard library
alone, so `tests/run_pins.py` checks them where pytest and hypothesis
are not installed; `test_chase.py` runs the same cases under pytest.
"""

from __future__ import annotations

import random

from eqchase import AtomSet, ChaseLimits, Ontology, apply, chase, find_applicable, parse
from corpus import random_ontology
from perfbench_loader import load_workloads


def _render(rule, sigma):
    return f"{rule!r} | " + ", ".join(f"{v.name}={sigma[v]}" for v in rule.universals)


def _oracle_run(o, limits, seed):
    """The naive run: at every step the first pair `find_applicable` yields
    over the rules in the engine's (seed-shuffled) order, applied with
    `apply`.  Stops where the engine's step, depth and atom caps stop it,
    tested in the engine's order.  Returns the steps and the limit that
    stopped the run, None if none did."""
    order = list(o.rules)
    if seed:
        random.Random(seed).shuffle(order)
    state = AtomSet(o.facts)
    steps = []
    while True:
        pair = next(find_applicable(order, state), None)
        if pair is None:
            return steps, None
        if limits.max_steps is not None and len(steps) >= limits.max_steps:
            return steps, "max_steps"
        rule, sigma = pair
        after = apply(rule, sigma, state)
        if after.max_term_depth() > limits.max_term_depth:
            return steps, "max_term_depth"
        if limits.max_atoms is not None and len(after) > limits.max_atoms:
            return steps, "max_atoms"
        steps.append(_render(rule, sigma))
        state = after


def _engine_run(o, limits, seed, iterate=False):
    """The engine's run: its steps and its outcome.  With `iterate`,
    `on_step` also iterates the set at every step, which re-sorts it
    after a merge."""
    steps = []

    def on_step(i, rule, sigma, aset):
        steps.append(_render(rule, sigma))
        if iterate:
            frozenset(aset)

    return steps, chase(o, limits, seed=seed, on_step=on_step)


EGD_FAMILY = (
    "A(X) -> exists W . R(X,W), B(W) .\n"
    "R(X,Y), R(X,Z) -> Y = Z .\n"
    "E(X,Y) -> R(X,Y) .\n"
    "R(X,Y), B(Y) -> C(X) .\n"
)
# The last rule's `B(U)` shares no variable with the rest of the body, so
# every merge that rewrites a `B` atom is followed by a read of the
# stale `B` bucket while matches are queued.
EGD_CROSS_FAMILY = EGD_FAMILY.replace("R(X,Y), B(Y) -> C(X) .", "R(X,Y), B(U) -> C(X) .")
TC_RULES = "E(X,Y) -> T(X,Y) .\nT(X,Y), E(Y,Z) -> T(X,Z) .\n"
# Heads that repeat an atom, closed and open, and open multi-atom heads
# that the set partly holds: B(X) and A(Y) often are, and the last TGD
# grows an R chain that only the depth cap stops.
REPEAT_FAMILY = (
    "A(X) -> B(X), C(X), B(X) .\n"
    "B(X), E(X,Y) -> exists W . R(Y,W), A(Y), R(Y,W) .\n"
    "R(X,Y) -> exists V . R(Y,V), B(X) .\n"
)


def _many_rules(n: int) -> str:
    """At least 100 rules in a shuffled order, with facts: the benchmark's
    chase-egd rules and `chain_family` families of one arity.  The
    families draw their names from few predicates, so families share
    rules and each family's EGD reads the atoms of longer ones."""
    wl = load_workloads()
    rng = random.Random(f"many:{n}")
    arity = rng.choice(wl.CHAIN_ARITIES)
    lines = wl.EGD_RULES.splitlines()
    while len(lines) < 100:
        text, _ = wl.chain_family(rng, rng.choice(wl.CHAIN_LENGTHS), arity, rng.random() < 0.3)
        lines += text.splitlines()
    rng.shuffle(lines)
    args = [f"c{i}" for i in range(arity + 1)]
    for p in wl.CHAIN_PREDICATES:
        lines += [f"{p}{rng.randrange(4)}({','.join(rng.choices(args, k=arity))}) ."
                  for _ in range(5)]
    lines += [f"A(c{i}) ." for i in range(6)]
    lines += [f"E(c{rng.randrange(6)},c{rng.randrange(6)}) ." for _ in range(6)]
    return "\n".join(lines) + "\n"


def _differential_cases():
    """(ontology, seed, limits) of each case the engine is checked on
    against the naive run."""
    limits = ChaseLimits(max_steps=60, max_term_depth=4)
    for seed in range(3):
        rng = random.Random(seed)
        for _ in range(120):
            yield random_ontology(rng), seed, limits
    for n in (3, 5, 8, 12, 16):
        rng = random.Random(f"egd:{n}")
        text = EGD_FAMILY + "".join(f"A(c{i}) .\n" for i in range(n))
        text += "".join(f"E(c{rng.randrange(n)},c{rng.randrange(n)}) .\n" for _ in range(n))
        program = parse(text)
        for seed in range(3):
            yield Ontology(program.rules, program.facts), seed, limits
    for n in (5, 12, 24):
        rng = random.Random(f"egd-cross:{n}")
        text = EGD_CROSS_FAMILY + "".join(f"A(c{i}) .\n" for i in range(n))
        text += "".join(f"E(c{rng.randrange(n)},c{rng.randrange(n)}) .\n" for _ in range(n))
        program = parse(text)
        for seed in range(3):
            yield Ontology(program.rules, program.facts), seed, limits
    for n in (3, 6):
        rng = random.Random(f"tc:{n}")
        edges = [(i, i + 1) for i in range(n)] + [(i, rng.randrange(i + 1, n + 1)) for i in range(n)]
        program = parse(TC_RULES + "".join(f"E(v{i},v{j}) .\n" for i, j in edges))
        for seed in range(2):
            yield Ontology(program.rules, program.facts), seed, limits
    # The benchmark's chase-egd instances, run to the end: their merges
    # re-rank TGD matches that were already applied.
    for n in (8, 16, 24):
        program = parse(load_workloads().egd_instance(n, 0))
        yield Ontology(program.rules, program.facts), 0, ChaseLimits(max_term_depth=10)
    # Many rules that read each other's atoms, interleaved in rule order:
    # the engine starts them lazily and keeps their queued matches apart.
    for n in range(6):
        program = parse(_many_rules(n))
        for seed in range(3):
            yield Ontology(program.rules, program.facts), seed, limits
    # Repeated and partly held heads, with and without merges, under a
    # depth cap and under atom caps that stop the run part way.
    for n in (3, 6, 10):
        rng = random.Random(f"repeat:{n}")
        facts = "".join(f"A(c{i}) .\n" for i in range(0, n, 2))
        facts += "".join(f"B(c{i}) .\n" for i in range(0, n, 3))
        facts += "".join(f"E(c{rng.randrange(n)},c{rng.randrange(n)}) .\n" for _ in range(n))
        for egd in ("", "R(X,Y), R(X,Z) -> Y = Z .\n"):
            program = parse(REPEAT_FAMILY + egd + facts)
            o = Ontology(program.rules, program.facts)
            for seed in range(2):
                yield o, seed, ChaseLimits(max_steps=60, max_term_depth=4)
                for extra in (4, 12):
                    yield o, seed, ChaseLimits(max_term_depth=4, max_atoms=len(o.facts) + extra)


CASES = 3 * 120 + 15 + 9 + 4 + 3 + 18 + 3 * 2 * 2 * 3


def check_case(o, seed, limits) -> None:
    """Assert that the engine selects the naive run's step sequence, also
    when the set is iterated at every step, and stops on the naive run's
    limit after as many steps."""
    oracle, limit = _oracle_run(o, limits, seed)
    for iterate in (False, True):
        steps, outcome = _engine_run(o, limits, seed, iterate)
        assert steps == oracle and outcome.steps == len(oracle)
        assert getattr(outcome, "limit", None) == limit
