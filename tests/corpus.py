"""Seeded random generators for rule sets, fact sets and queries.

Everything is driven by an explicit random.Random so that the property
suites are reproducible; the shapes stay small (at most 4 rules, 3
predicates, arity 2) to keep whole-corpus runs fast.
"""

from __future__ import annotations

import random
from typing import Optional

from eqchase import (
    EQ,
    EGD,
    TGD,
    Atom,
    BCQ,
    Constant,
    Ontology,
    Predicate,
    RuleSet,
    Variable,
    validate,
    validate_ruleset,
)

_VARS = [Variable(n) for n in ("X", "Y", "Z")]
_CONSTS = [Constant(n) for n in ("a", "b")]


def random_predicates(rng: random.Random) -> list[Predicate]:
    names = ["P", "Q", "S"][: rng.randint(1, 3)]
    return [Predicate(n, rng.randint(1, 2)) for n in names]


def _random_atom(rng: random.Random, preds, vars_pool) -> Atom:
    p = rng.choice(preds)
    return Atom(p, [rng.choice(vars_pool) for _ in range(p.arity)])


def random_ruleset(
    rng: random.Random,
    max_rules: int = 4,
    egd_share: float = 0.3,
    preds: Optional[list[Predicate]] = None,
) -> RuleSet:
    preds = preds or random_predicates(rng)
    n_rules = rng.randint(1, max_rules)
    rules = []
    ex_counter = 0
    for _ in range(n_rules):
        body = [_random_atom(rng, preds, _VARS) for _ in range(rng.randint(1, 2))]
        body_vars = list({v: None for a in body for v in a.variables()})
        if rng.random() < egd_share and len(body_vars) >= 2:
            x, y = rng.sample(body_vars, 2)
            rules.append(EGD(body, x, y))
            continue
        existentials = []
        if rng.random() < 0.7:
            ex_counter += 1
            existentials = [Variable(f"W{ex_counter}")]
        head_pool = body_vars + existentials
        head = [
            _random_atom(rng, preds, head_pool)
            for _ in range(rng.randint(1, 2))
        ]
        used = {v for a in head for v in a.variables()}
        existentials = [w for w in existentials if w in used]
        rules.append(TGD(body, existentials, head))
    rs = RuleSet(rules)
    assert not validate_ruleset(rs), validate_ruleset(rs)
    return rs


def random_facts(rng: random.Random, rules: RuleSet, max_facts: int = 4) -> tuple[Atom, ...]:
    preds = [p for p in rules.predicates() if p is not EQ]
    facts = []
    for _ in range(rng.randint(1, max_facts)):
        p = rng.choice(preds)
        facts.append(Atom(p, [rng.choice(_CONSTS) for _ in range(p.arity)]))
    return tuple(facts)


def random_ontology(rng: random.Random, **kw) -> Ontology:
    rules = random_ruleset(rng, **kw)
    ontology = Ontology(rules, random_facts(rng, rules))
    assert not validate(ontology)
    return ontology


def random_query(rng: random.Random, rules: RuleSet) -> BCQ:
    preds = [p for p in rules.predicates() if p is not EQ]
    body = []
    for _ in range(rng.randint(1, 2)):
        p = rng.choice(preds)
        body.append(Atom(p, [rng.choice(_VARS) for _ in range(p.arity)]))
    variables = {v: None for a in body for v in a.variables()}
    return BCQ(tuple(variables), body)


def random_term(rng: random.Random, symbols, max_depth: int):
    """A random ground term over the given function symbols; used by the
    structural oracles."""
    if max_depth <= 1 or rng.random() < 0.3:
        return rng.choice(_CONSTS)
    fn = rng.choice(symbols)
    return_type = [random_term(rng, symbols, max_depth - 1) for _ in range(fn.arity)]
    from eqchase import Functional

    return Functional(fn, return_type)
