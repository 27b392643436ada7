"""Equality elimination.

Two transforms turn a rule set with equality into plain TGD sets over the
reserved predicate `eq`: the standard axiomatisation (explicit
reflexivity, symmetry, transitivity and per-position replacement rules)
and singularisation (repeated body occurrences of a variable split into
fresh variables linked by `eq` atoms, one rule set per choice of kept
occurrence).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from .model import (
    EQ,
    TGD,
    Atom,
    BCQ,
    Predicate,
    Rule,
    RuleSet,
    Variable,
    _vars_in_order,
)

#: Provenance labels.
STANDARD = "standard"
SINGULARISATION = "singularisation"


@dataclass(frozen=True)
class AxiomatisedRuleSet:
    """An equality-free rule set over `eq`, tagged with the transform that
    produced it.  For singularisations, `choices` records the kept
    occurrence index per repeated body variable, one entry per source
    rule."""

    rules: RuleSet
    kind: str
    choices: Optional[tuple[tuple[tuple[str, int], ...], ...]] = None


def _equivalence(predicates: Sequence[Predicate]) -> list[TGD]:
    """Reflexivity instances per predicate, then symmetry and
    transitivity."""
    x, y, z = Variable("X"), Variable("Y"), Variable("Z")
    rules = []
    for p in predicates:
        xs = [Variable(f"X{i + 1}") for i in range(p.arity)]
        rules.append(TGD([Atom(p, xs)], (), [Atom(EQ, (v, v)) for v in xs]))
    rules.append(TGD([Atom(EQ, (x, y))], (), [Atom(EQ, (y, x))]))
    rules.append(TGD([Atom(EQ, (x, y)), Atom(EQ, (y, z))], (), [Atom(EQ, (x, z))]))
    return rules


def _replacement(predicates: Sequence[Predicate]) -> list[TGD]:
    """One replacement rule per predicate argument position."""
    rules = []
    for p in predicates:
        xs = [Variable(f"X{i + 1}") for i in range(p.arity)]
        for i in range(p.arity):
            head_args = list(xs)
            head_args[i] = Variable("Y")
            body = [Atom(p, xs), Atom(EQ, (xs[i], head_args[i]))]
            rules.append(TGD(body, (), [Atom(p, head_args)]))
    return rules


def standard_axiomatisation(rules: RuleSet) -> AxiomatisedRuleSet:
    """Source TGDs kept verbatim, each EGD's head rewritten to eq(x, y),
    plus reflexivity per predicate, symmetry, transitivity, and one
    replacement rule per predicate argument position."""
    translated: list[Rule] = []
    for r in rules:
        if type(r) is TGD:
            translated.append(r)
        else:
            translated.append(TGD(r.body, (), [Atom(EQ, (r.x, r.y))]))
    predicates = rules.predicates()
    return AxiomatisedRuleSet(
        RuleSet(translated + _equivalence(predicates) + _replacement(predicates)), STANDARD
    )


# ---------------------------------------------------------------------------
# Singularisation


def _var_positions(body: Sequence[Atom]) -> dict[str, list[tuple[int, int]]]:
    """Variable name -> positions (atom index, argument index), scanning
    the body left to right."""
    occ: dict[str, list[tuple[int, int]]] = {}
    for i, atom in enumerate(body):
        for j, t in enumerate(atom.args):
            if type(t) is Variable:
                occ.setdefault(t.name, []).append((i, j))
    return occ


def _fresh_name(base: str, index: int, taken: set[str]) -> str:
    name = f"{base}__{index}"
    while name in taken:
        name += "_"
    return name


def singularise_conjunction(
    body: Sequence[Atom], choice: Mapping[str, int]
) -> tuple[Atom, ...]:
    """Split repeated variable occurrences apart.

    For each variable with n occurrences the choice picks the kept one
    (1-based; occurrences are numbered left to right over the atom list,
    then by argument position; variables not in the mapping keep their
    first occurrence).  Every other occurrence i becomes a fresh variable
    x__i, and an eq(x, x__i) atom is appended per fresh variable.
    """
    body = tuple(body)
    occ = _var_positions(body)
    taken = set(occ)
    renames: dict[tuple[int, int], Variable] = {}
    links: list[Atom] = []
    for name, positions in occ.items():
        n = len(positions)
        k = choice.get(name, 1)
        if not 1 <= k <= n:
            raise ValueError(
                f"occurrence choice {k} for variable {name!r} out of range 1..{n}"
            )
        if n == 1:
            continue
        for i, pos in enumerate(positions, start=1):
            if i == k:
                continue
            fresh = Variable(_fresh_name(name, i, taken))
            taken.add(fresh.name)
            renames[pos] = fresh
            links.append(Atom(EQ, (Variable(name), fresh)))
    if not renames:
        return body
    new_body = []
    for i, atom in enumerate(body):
        args = [renames.get((i, j), t) for j, t in enumerate(atom.args)]
        new_body.append(Atom(atom.predicate, args))
    return tuple(new_body) + tuple(links)


def _choices(body: Sequence[Atom]) -> Iterator[dict[str, int]]:
    """Every choice of kept occurrences for the body's repeated variables,
    lazily, one dict per combination in first-occurrence order of the
    variables; the first choice keeps every first occurrence."""
    repeated = [(name, len(positions)) for name, positions in _var_positions(body).items()
                if len(positions) > 1]
    for ks in itertools.product(*(range(1, n + 1) for _, n in repeated)):
        yield {name: k for (name, _), k in zip(repeated, ks)}


def _singularise_rule(rule: Rule, choice: Mapping[str, int]) -> TGD:
    body = singularise_conjunction(rule.body, choice)
    if type(rule) is TGD:
        return TGD(body, rule.existentials, rule.head)
    return TGD(body, (), [Atom(EQ, (rule.x, rule.y))])


def singularisations(rules: RuleSet) -> Iterator[AxiomatisedRuleSet]:
    """Enumerate every singularised rule set, lazily.

    The number of sets is the product over rules of the per-rule choice
    counts; callers cap the enumeration with itertools.islice.
    """
    equivalence = _equivalence(rules.predicates())
    for combo in itertools.product(*(_choices(r.body) for r in rules)):
        yield AxiomatisedRuleSet(
            RuleSet([_singularise_rule(r, choice) for r, choice in zip(rules, combo)]
                    + equivalence),
            SINGULARISATION,
            choices=tuple(tuple(sorted(choice.items())) for choice in combo),
        )


def canonical_singularisation(rules: RuleSet) -> AxiomatisedRuleSet:
    """The singularisation keeping the first occurrence of every
    variable; fixed so results are reproducible."""
    return next(iter(singularisations(rules)))


def singularise_query(query: BCQ) -> Iterator[BCQ]:
    """Every singularisation of the query body, with the fresh variables
    added to the existential list."""
    for choice in _choices(query.body):
        body = singularise_conjunction(query.body, choice)
        yield BCQ(_vars_in_order(body), body)


def canonical_query_singularisation(query: BCQ) -> BCQ:
    return next(singularise_query(query))
