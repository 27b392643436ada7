"""Acyclicity checks for rule sets with equality.

The check saturates a monotone closure starting from the critical
instance (every predicate applied to the distinguished constant `*`):
each TGD body match adds the instantiated skolemised head, and each EGD
body match adds, for the whole current set, the image of every atom under
replacement of the deeper matched term by the shallower one (both images
when the depths tie).  Nothing is ever removed.  The computation stops
the moment an atom containing a cyclic term appears; a rule set passes
when the fixpoint completes without one.

Over equality-free inputs the same machinery is the classic
model-faithful check, with `eq` treated as an ordinary predicate.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Union

from .model import (
    STAR,
    Atom,
    AtomSet,
    Rule,
    RuleSet,
    Term,
)
from .chase import ChaseLimits, _CompiledRule, _skeleton, match_conjunction
from .axiomatisation import (
    AxiomatisedRuleSet,
    canonical_singularisation,
    singularisations,
    standard_axiomatisation,
)

COMPLETED = "completed"
CYCLIC = "cyclic"
LIMIT = "limit-exceeded"


def critical_instance(rules: RuleSet) -> list[Atom]:
    """One fact per predicate of the rule set, every argument `*`.
    Equality is not a predicate, so it has no fact."""
    return [Atom(p, (STAR,) * p.arity) for p in rules.predicates()]


@dataclass
class SaturationOutcome:
    status: str  # completed | cyclic | limit-exceeded
    atoms: AtomSet
    witness_atom: Optional[Atom] = None
    witness_term: Optional[Term] = None
    limit: Optional[str] = None
    steps: int = 0
    derivations: Optional[dict] = None


class _Stop(Exception):
    """Stops a saturation; its argument is the reason, a limit or `CYCLIC`."""


def _compile(rule: Rule) -> _CompiledRule:
    """The saturation's compiled form of a rule: its anchored plans in
    body order, head kernel and EGD positions."""
    cr = _CompiledRule(rule)
    cr.compile_anchored()
    return cr


def _compile_all(*rule_sets: RuleSet) -> dict[Rule, _CompiledRule]:
    """Each distinct rule of the sets compiled once: the first of each
    skeleton (`_skeleton`) in full, the others bound to its form.  The
    table of skeletons lives for this call only."""
    compiled: dict[Rule, _CompiledRule] = {}
    forms: dict[tuple, _CompiledRule] = {}
    for rs in rule_sets:
        for rule in rs:
            if rule not in compiled:
                key = _skeleton(rule)
                like = forms.get(key)
                if like is None:
                    compiled[rule] = forms[key] = _compile(rule)
                else:
                    compiled[rule] = like.bind(rule)
    return compiled


class _Saturation:
    """Worklist saturation: every atom is processed once, matching each
    rule anchored at that atom with the rest of the body drawn from the
    current set.  So a body match is found once for each of its atoms
    processed after the others were added, and a repeat adds nothing:
    what a match adds depends on the match alone.  Replacement maps from
    EGD matches stay active: a new map sweeps the atoms that hold its
    replaced term, and every later atom passes through the active maps of
    its terms.

    Atoms are processed first in, first out.  Rules run in the chase
    engine's `_CompiledRule` form (see `_compile`), with anchored plans
    that join the processed atom first and the rest of the body in body
    order, all in one kernel run that returns the join's matches
    collected; they fire in order once it has returned, so no join sees
    the set change.  Plans of one body shape share one cached `_kernel`.
    `compiled` maps rules to forms made by `_compile_all`, here without
    it: one per distinct rule, shared by its repeats.  `readers`, filled
    in rule order by `_CompiledRule.file_plans` as the chase engine's
    is, pairs each plan with the index of the rule occurrence it serves,
    which derivation records carry.  `maps` holds each replacement (frm,
    to), and `by_term` lists under frm each as (number in order made,
    frm, to, index and key of the EGD match that made it first); an atom
    passes through its terms' maps in number order, which is the order
    of all maps, and a new map sweeps `AtomSet.holding(frm)`.  A TGD
    match builds only the head atoms `held` lacks, by the rule's `build`.
    Each caller of `_add` tests that the set does not hold the atom yet
    (`_process` again, as a head may repeat an atom), so a derivation
    record is made once per atom; a TGD's holds the body instance matched.

    The plans skip idle matches (see `_CompiledRule`): an EGD match
    equating a term with itself adds no replacement map, and a closed TGD
    match whose head is one of its own body atoms adds a held atom.  So
    the atoms, their order, the derivation records and the witness are
    the same as when every match is fired."""

    def __init__(self, rules: RuleSet, limits: ChaseLimits,
                 compiled: Optional[Mapping[Rule, _CompiledRule]] = None):
        self.limits = limits
        self.max_atoms = math.inf if limits.max_atoms is None else limits.max_atoms
        self.max_depth = math.inf if limits.max_term_depth is None else limits.max_term_depth
        self.atoms = AtomSet()
        self.held = self.atoms._atoms  # the set's dict, one for its life
        self.queue: deque[Atom] = deque()
        self.derivations: dict[Atom, tuple] = {}
        self.maps: set[tuple[Term, Term]] = set()
        self.by_term: dict[Term, list[tuple]] = {}
        if compiled is None:
            compiled = _compile_all(rules)
        self.readers: dict = {}
        for idx, rule in enumerate(rules):
            compiled[rule].file_plans(self.readers, idx)
        self.witness: Optional[tuple[Atom, Term]] = None
        self.ci = critical_instance(rules)

    def _add(self, atom: Atom, deriv: tuple) -> None:
        """Add the atom, which the set does not hold.  The caps are tested
        before an atom without a cyclic term is added, so only the witness
        passes them; `max_atoms` is tested before `max_term_depth`."""
        deep, max_depth = False, self.max_depth
        for t in atom.args:  # leaves `t` the first cyclic argument, if any
            if t.cyclic:
                break
            if t.depth > max_depth:
                deep = True
        else:
            if len(self.held) >= self.max_atoms:
                raise _Stop("max_atoms")
            if deep:
                raise _Stop("max_term_depth")
        self.atoms.add(atom)
        self.derivations[atom] = deriv
        self.queue.append(atom)
        if t.cyclic:
            self.witness = (atom, t)
            raise _Stop(CYCLIC)

    def _fire_egd(self, cr: _CompiledRule, idx: int, key: tuple) -> None:
        tx, ty = key[cr.x], key[cr.y]
        pairs = []
        if tx.depth <= ty.depth:
            pairs.append((ty, tx))
        if ty.depth <= tx.depth:
            pairs.append((tx, ty))
        for frm, to in pairs:
            if (frm, to) in self.maps:
                continue
            self.maps.add((frm, to))
            self.by_term.setdefault(frm, []).append((len(self.maps), frm, to, idx, key))
            for existing in self.atoms.holding(frm):
                self._rewrite(existing, frm, to, idx, key)

    def _rewrite(self, atom: Atom, frm: Term, to: Term, idx: int, key: tuple) -> None:
        """Build and add the image of the atom, which holds frm, under
        the replacement of frm by to, unless the set holds it."""
        args = tuple([to if t is frm else t for t in atom.args])
        if (atom.predicate, args) not in self.held:
            self._add(Atom(atom.predicate, args), ("egd", idx, key, atom, frm, to))

    def _process(self, atom: Atom) -> None:
        by_term = self.by_term
        if by_term:
            hits = [m for t in set(atom.args) for m in by_term.get(t, ())]
            hits.sort()  # by number: the numbers differ
            for _, frm, to, idx, key in hits:
                self._rewrite(atom, frm, to, idx, key)
        aset = self.atoms
        for cr, idx, plan in self.readers.get(atom.predicate, ()):
            found = match_conjunction(plan, aset, (), atom)
            if cr.kind == "egd":
                for key, _ in found:
                    self._fire_egd(cr, idx, key)
                continue
            held, build, args = self.held, cr.build, cr.build_args
            for key, body in found:
                for head in build(args, key, held):
                    if head not in held:  # a head may repeat an atom
                        self._add(head, ("tgd", idx, key, body))

    def run(self) -> SaturationOutcome:
        deadline = None
        if self.limits.wall_clock_ms is not None:
            deadline = time.monotonic() + self.limits.wall_clock_ms / 1000.0
        try:
            for fact in self.ci:
                if fact not in self.held:
                    self._add(fact, ("ci",))
            while self.queue:
                if deadline is not None and time.monotonic() > deadline:
                    raise _Stop("wall_clock_ms")
                self._process(self.queue.popleft())
        except _Stop as stop:
            status, limit = (CYCLIC, None) if self.witness else (LIMIT, stop.args[0])
        else:
            status, limit = COMPLETED, None
        # The atoms derived beyond the critical instance, none while a
        # limit stops the saturation part-way through adding it.
        steps = max(0, len(self.atoms) - len(self.ci))
        atom, term = self.witness or (None, None)
        return SaturationOutcome(
            status, self.atoms, atom, term,
            limit=limit, steps=steps, derivations=self.derivations,
        )


def emfa_set(rules: RuleSet, limits: ChaseLimits = ChaseLimits(), *,
             compiled: Optional[Mapping[Rule, _CompiledRule]] = None) -> SaturationOutcome:
    """Saturate the closure from the critical instance, halting early on
    the first cyclic term.  Without limits the computation still halts:
    atoms free of cyclic terms over a finite signature are finitely many.
    `compiled` holds compiled forms of the rules made beforehand (see
    `check_pipeline`); by default each distinct rule is compiled once
    for this run.  Either way a derivation record carries the index of
    the rule occurrence whose join fired."""
    return _Saturation(rules, limits, compiled).run()


@dataclass
class CheckReport:
    notion: str
    verdict: str  # acyclic | cyclic | limit-exceeded
    set_size: int
    elapsed_ms: float
    steps: int
    witness_atom: Optional[Atom] = None
    witness_term: Optional[Term] = None  # an argument of witness_atom
    limit: Optional[str] = None

    def witness_text(self) -> tuple[str, str]:
        """The witness atom and its cyclic term as text.  The term is an
        argument of the atom, so each argument is rendered once and the
        term's text is read at its position."""
        atom = self.witness_atom
        args = [str(a) for a in atom.args]
        text = f"{atom.predicate.name}({','.join(args)})"
        return text, args[atom.args.index(self.witness_term)]

    def to_json(self, timing: bool = True) -> dict:
        out: dict = {"notion": self.notion, "verdict": self.verdict}
        if self.witness_atom is not None:
            atom, term = self.witness_text()
            out["witness"] = {"atom": atom, "term": term}
        out["set_size"] = self.set_size
        if timing:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        out["steps"] = self.steps
        if self.limit is not None:
            out["limit"] = self.limit
        return out


def _report(notion: str, outcome: SaturationOutcome, elapsed_ms: float) -> CheckReport:
    return CheckReport(
        notion=notion,
        verdict="acyclic" if outcome.status == COMPLETED else outcome.status,
        set_size=len(outcome.atoms),
        elapsed_ms=elapsed_ms,
        steps=outcome.steps,
        witness_atom=outcome.witness_atom,
        witness_term=outcome.witness_term,
        limit=outcome.limit,
    )


def is_emfa(
    rules: RuleSet, limits: ChaseLimits = ChaseLimits(), *, notion: str = "emfa",
    compiled: Optional[Mapping[Rule, _CompiledRule]] = None,
) -> CheckReport:
    """The check on `rules`, its saturation timed; `compiled` is as for
    `emfa_set`, and without it the rules are compiled before the timer
    starts."""
    if compiled is None:
        compiled = _compile_all(rules)
    t0 = time.perf_counter()
    outcome = emfa_set(rules, limits, compiled=compiled)
    return _report(notion, outcome, (time.perf_counter() - t0) * 1000.0)


def is_mfa(
    rules: Union[RuleSet, AxiomatisedRuleSet],
    limits: ChaseLimits = ChaseLimits(),
    notion: str = "mfa",
) -> CheckReport:
    """The equality-free special case; rejects rule sets with equality."""
    if isinstance(rules, AxiomatisedRuleSet):
        rules = rules.rules
    if rules.egds():
        raise ValueError("this check is defined for equality-free rule sets only")
    return is_emfa(rules, limits, notion=notion)


def check_pipeline(
    rules: RuleSet,
    limits: ChaseLimits = ChaseLimits(),
    sing_cap: int = 0,
) -> list[CheckReport]:
    """Run the direct check, the check over the standard axiomatisation,
    and the check over the canonical singularisation; optionally over up
    to sing_cap enumerated singularisations as well.

    The axiomatisations keep many rules verbatim, so every distinct rule
    is compiled once, before any check is timed, and all the checks of
    this call share that form; each report's `elapsed_ms` times its own
    saturation alone.  The axiomatised sets hold no EGDs by construction,
    so they go to `is_emfa` without `is_mfa`'s guard.  The first
    enumerated singularisation is the canonical one, whose report is
    given again under `mfa-sing-all`."""
    st = standard_axiomatisation(rules)
    sing = canonical_singularisation(rules)
    more = list(itertools.islice(singularisations(rules), 1, sing_cap)) if sing_cap > 1 else []
    compiled = _compile_all(rules, st.rules, sing.rules, *(axr.rules for axr in more))
    reports = [is_emfa(rules, limits, compiled=compiled)]
    reports.append(is_emfa(st.rules, limits, notion="mfa-st", compiled=compiled))
    reports.append(is_emfa(sing.rules, limits, notion="mfa-sing", compiled=compiled))
    if sing_cap:
        reports.append(replace(reports[2], notion="mfa-sing-all"))
        reports += [is_emfa(axr.rules, limits, notion="mfa-sing-all", compiled=compiled)
                    for axr in more]
    return reports
