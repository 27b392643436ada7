"""The non-oblivious "renaming" chase.

TGDs fire only when no extension of the match already embeds the head;
EGDs merge the two matched terms by renaming the deeper one to the
shallower one across the whole atom set (argument-level).  A run applies,
at every step, the first applicable (rule, substitution) pair in rule
order and match order, which is the order `match_conjunction`
enumerates over the rule body: lexicographic in the ranks of the matched
atoms.  The engine finds that pair incrementally, from per-rule queues
of matches ordered by rank tuple, and selects the same sequence as a
naive full rescan with `find_applicable`.  A match is queued again
whenever a merge gives it a new rank tuple, even one already applied or
found blocked: the applicability test rejects it when it is popped, so
the engine keeps no record of consumed matches.  Every pair that stays
applicable is eventually applied, and the final set of a finished run
satisfies every rule.

The compiled joins of the engine and of the acyclicity checks skip idle
matches, those whose firing can change nothing: an EGD match that
equates a term with itself, and a match of a closed TGD with one head
atom whose head is the match's instance of one of its body atoms, so
already held (see `_CompiledRule`).  An idle match is never applicable,
and a merge renames both sides of what made it idle, so it stays idle;
skipping it leaves every selected pair, atom and rank as it was.

Boolean conjunctive queries are answered by homomorphism search into the
finished chase; a witness found in a limit-truncated state is still sound
because later growth preserves embeddings and merges only rename them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from .model import (
    TGD,
    Atom,
    AtomSet,
    BCQ,
    Functional,
    Ontology,
    Rule,
    RuleSet,
    Substitution,
    Variable,
    apply_syntactic,
    skolem_symbols,
    skolemise,
    validate,
    validate_query,
)


class InvalidInputError(ValueError):
    """Raised when an operation is handed an ontology or query that fails
    validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


@dataclass(frozen=True)
class ChaseLimits:
    """Resource caps making every run total.  None means unbounded."""

    max_steps: Optional[int] = None
    max_atoms: Optional[int] = None
    max_term_depth: Optional[int] = None
    wall_clock_ms: Optional[int] = None


@dataclass
class ChaseTrace:
    steps: int = 0
    tgd_steps: int = 0
    egd_steps: int = 0


@dataclass
class Terminated:
    result: AtomSet
    steps: int
    trace: ChaseTrace


@dataclass
class LimitExceeded:
    partial: AtomSet
    limit: str
    steps: int
    trace: ChaseTrace


ChaseOutcome = Union[Terminated, LimitExceeded]


# ---------------------------------------------------------------------------
# Conjunction matching


def _step(atom: Atom, bound: set, slot: Mapping) -> tuple:
    """How to match the atom once the variables in `bound` are bound:
    (source argument, its slot, checks, repeats, binds).  The first bound
    argument picks the candidates, and any other bound argument is a
    check (argument, slot).  A variable's first occurrence in the atom
    binds it (argument, slot), and a repeat is checked against that
    occurrence (argument, argument).  Adds the atom's variables to
    `bound`."""
    src = var = None
    checks, repeats, binds = [], [], []
    first: dict = {}
    for j, v in enumerate(atom.args):
        if v in bound:
            if src is None:
                src, var = j, slot[v]
            else:
                checks.append((j, slot[v]))
        elif v in first:
            repeats.append((first[v], j))
        else:
            first[v] = j
            binds.append((j, slot[v]))
    bound.update(first)
    return src, var, tuple(checks), tuple(repeats), tuple(binds)


class _Plan:
    """A join over a body, compiled once, that binds the variables to
    slots (`slot` maps each variable to its index in the slot list).

    Each body atom joined is one step: its predicate, its body position
    and its `_step`.  Without `size` the atoms are joined in body order;
    with it (a function from a predicate to its bucket size) in greedy
    connected order: next an atom that holds a bound variable, then the
    one with the smaller bucket.  An anchored plan, one with no variable
    bound beforehand, joins the atom at body position `pos` first: that
    step scans the anchor atom it is run with (see `match_conjunction`).
    The steps without a predicate are the plan's shape, which picks its
    `kernel` together with `idle` and whether it is anchored; `preds` are
    the steps' predicates.  Running the plan records the atom matched at
    each body position in `matched`, so it runs one enumeration at a time.

    `idle`, given only to a plan with no variable bound beforehand,
    holds its rule's idle conjunctions (see `_CompiledRule`), each a
    tuple of slot pairs: a match that binds both slots of every pair of
    one of them to the same term is dropped before it is yielded.  The
    kernel tests each conjunction at the first step that binds all its
    slots, inline after that step's checks: a slot the step binds is
    read from the candidate's arguments, any other from a local hoisted
    at loop entry; a conjunction without pairs drops every match.  The
    tests are placed once per kernel shape, when the kernel is
    generated, so building a plan does no work for them.
    """

    __slots__ = ("matched", "slots", "preds", "kernel")

    def __init__(self, body: Sequence[Atom], slot: Mapping, bound=(), size=None, pos=None,
                 idle=()):
        bound = set(bound)
        anchored = pos is not None
        todo = list(range(len(body)))
        order, shape = [], []
        while todo:
            if anchored and not order:
                i = pos
            elif size is None:
                i = todo[0]
            else:
                i = min(todo, key=lambda k: (
                    bound.isdisjoint(body[k].args), size(body[k].predicate), k))
            todo.remove(i)
            order.append(body[i].predicate)
            shape.append((i,) + _step(body[i], bound, slot))
        self.preds = tuple(order)
        self.kernel = _kernel(tuple(shape), idle, anchored)
        self.matched: list = [None] * len(body)
        self.slots: list = [None] * len(slot)


# Steps per kernel: CPython nests at most 20 blocks in one function.
_SEGMENT = 16


def _exec(source: str, name: str, namespace: dict):
    """The function `name` that `source` defines, with `namespace` as its
    globals; kept out of them, so function and globals form no cycle."""
    defined: dict = {}
    exec(source, namespace, defined)
    return defined[name]


@lru_cache(maxsize=1024)
def _kernel(shape: tuple, idle: tuple = (), anchored: bool = False, start: int = 0):
    """The generator function that runs steps `start`.. of a plan of
    this shape with these idle conjunctions (see `_Plan`), at most
    `_SEGMENT` steps, then the next segment's kernel; see
    `match_conjunction`.  The first step of an anchored plan reads the
    anchor `A` alone."""
    end = min(start + _SEGMENT, len(shape))
    lines = ["def kernel(P, aset, slots, m, A):"]
    at: dict = {}  # conjunction -> the first step that binds all its slots
    bound: set = set()
    for i, step in enumerate(shape):
        bound.update(s for _, s in step[5])
        for c in idle:
            if c not in at and bound.issuperset(s for p in c for s in p):
                at[c] = i
    for i in range(start, end):
        pos, src, var, checks, repeats, binds = shape[i]
        pad = " " * (i - start + 1)
        if anchored and i == 0:
            cands = "(A,)"
        elif src is None:
            cands = f"aset.bucket(P[{i}])"
        elif src == 0:
            cands = f"aset.arg0_bucket(P[{i}], slots[{var}])"
        else:
            cands = f"aset.arg_bucket(P[{i}], {src}, slots[{var}])"
        here = [c for c in at if at[c] == i]
        value = {s: f"x[{j}]" for j, s in binds}
        hoisted = [s for _, s in checks] + [s for c in here for p in c for s in p if s not in value]
        value.update((s, f"t{i}_{s}") for s in hoisted)
        lines += [f"{pad}t{i}_{s} = slots[{s}]" for s in dict.fromkeys(hoisted)]
        lines.append(f"{pad}for a{i} in {cands}:")
        tests = [f"x[{j}] is not t{i}_{s}" for j, s in checks]
        tests += [f"x[{k}] is not x[{j}]" for j, k in repeats]
        tests += [" and ".join(f"{value[a]} is {value[b]}" for a, b in c) or "True" for c in here]
        if tests or binds:
            lines.append(f"{pad} x = a{i}.args")
        if tests:
            lines.append(f"{pad} if {' or '.join(tests)}: continue")
        lines += [f"{pad} slots[{s}] = x[{j}]" for j, s in binds]
        lines.append(f"{pad} m[{pos}] = a{i}")
    pad = " " * (end - start + 1)
    if end < len(shape):
        lines.append(f"{pad}yield from rest(P, aset, slots, m, A)")
        return _exec("\n".join(lines), "kernel", {"rest": _kernel(shape, idle, False, end)})
    lines.append(f"{pad}yield slots")
    return _exec("\n".join(lines), "kernel", {})


@lru_cache(maxsize=1024)
def _head_kernel(shape: tuple):
    """A function of (predicates and Skolem symbols, key) that builds the
    head atoms of this shape as one list display.  `shape` gives each
    head atom's arguments: an index into the key, or -1 - k for the k-th
    Skolem symbol, applied once to the whole key."""
    n = len(shape)
    symbols = sorted({-1 - a for args in shape for a in args if a < 0})
    lines = ["def build(C, key):"]
    lines += [f" f{k} = Functional(C[{n + k}], key)" for k in symbols]
    terms = [" ".join(f"key[{a}]," if a >= 0 else f"f{-1 - a}," for a in args) for args in shape]
    lines.append(f" return [{', '.join(f'Atom(C[{i}], ({t}))' for i, t in enumerate(terms))}]")
    return _exec("\n".join(lines), "build", {"Atom": Atom, "Functional": Functional})


def match_conjunction(
    body: Union[_Plan, Sequence[Atom]],
    aset: AtomSet,
    init: Union[list, Mapping[Variable, object], None] = None,
    anchor: Optional[Atom] = None,
) -> Iterator:
    """Enumerate every binding of the body variables that embeds the
    conjunction into the atom set, in deterministic order; a compiled
    plan skips the idle bindings of its rule.

    Given a compiled `_Plan`, runs it over the slot list `init` and yields
    that list, live, at every match that is not idle (see `_Plan`); an
    anchored plan is given the atom its first step matches as `anchor`.
    Given atoms, compiles a plan in body order with the variables of
    `init` bound, and no idle test, and yields a new dict per binding,
    `init` included.

    A plan runs as its kernel, generated code with one nested `for` loop
    per step, inline `is not` tests and inline slot stores.  Kernels are
    cached by shape, the steps without their predicates, which are an
    argument; so the source holds integers only, never an input name.
    A shape of over `_SEGMENT` steps is split into segments, each one
    kernel whose innermost loop delegates to the next one's.

    Order invariant: candidates come in rank order at each step, so a
    plan in body order yields its bindings in lexicographic order of the
    tuple of the matched atoms' ranks (`AtomSet.rank`); the chase engine
    relies on this only through the rank tuples it queues.

    Each step reads the anchor alone (the anchored step of an anchored
    plan) or one of the set's live index lists (`bucket`, `arg0_bucket`,
    `arg_bucket`), so the set must not change while an enumeration runs:
    a caller that adds atoms for the matches collects them first, as
    `_Saturation` does.  A run leaves no reference cycle for the cyclic GC.
    """
    if type(body) is _Plan:
        plan, slots = body, init
    else:
        init = init or {}
        variables = list(dict.fromkeys([*init, *(v for atom in body for v in atom.args)]))
        slot = {v: i for i, v in enumerate(variables)}
        plan = _Plan(body, slot, init)
        slots = plan.slots
        for v, t in init.items():
            slots[slot[v]] = t
    run = plan.kernel(plan.preds, aset, slots, plan.matched, anchor)
    if plan is body:
        return run
    return (dict(zip(variables, found)) for found in run)


def homomorphism(body: Sequence[Atom], aset: AtomSet) -> Optional[Substitution]:
    """A total mapping of the body's variables into the atom set, or None:
    the first match of a plan in the engine's greedy connected order
    (see `_Plan`)."""
    slot = {v: i for i, v in enumerate(dict.fromkeys(v for atom in body for v in atom.args))}
    plan = _Plan(body, slot, size=aset.bucket_size)
    for slots in match_conjunction(plan, aset, plan.slots):
        return dict(zip(slot, slots))
    return None


# ---------------------------------------------------------------------------
# Applicability and application


def _check_domain(rule: Rule, sigma: Mapping) -> None:
    need = set(rule.universals)
    have = set(sigma)
    if have != need:
        missing = sorted(v.name for v in need - have)
        extra = sorted(v.name for v in have - need)
        raise ValueError(
            f"substitution domain mismatch (missing {missing}, extra {extra})"
        )
    if type(rule) is TGD and any(w in sigma for w in rule.existentials):
        raise ValueError("substitution must be undefined on existential variables")


def _body_holds(rule: Rule, sigma: Mapping, aset: AtomSet) -> bool:
    for atom in rule.body:
        if Atom(atom.predicate, [sigma[v] for v in atom.args]) not in aset:
            return False
    return True


def _head_embedded(head: Sequence[Atom], sigma: Mapping, aset: AtomSet) -> bool:
    init = {}
    for atom in head:
        for v in atom.variables():
            if v in sigma:
                init[v] = sigma[v]
    for _ in match_conjunction(head, aset, init=init):
        return True
    return False


def _violated(rule: Rule, sigma: Mapping, aset: AtomSet) -> bool:
    """Whether a body match is not satisfied: no extension of it embeds a
    TGD head, or an EGD equates two distinct terms."""
    if type(rule) is TGD:
        return not _head_embedded(rule.head, sigma, aset)
    return sigma[rule.x] is not sigma[rule.y]


def is_applicable(rule: Rule, sigma: Substitution, aset: AtomSet) -> bool:
    """The four applicability conditions: exact substitution domain, body
    embedded, no extension of the match embeds a TGD head, and an EGD
    equates two distinct terms."""
    _check_domain(rule, sigma)
    return _body_holds(rule, sigma, aset) and _violated(rule, sigma, aset)


def apply(rule: Rule, sigma: Substitution, aset: AtomSet) -> AtomSet:
    """Apply an applicable pair, returning the successor atom set.

    TGDs add the instantiated skolemised head; EGDs rename the deeper of
    the two equated terms to the shallower one across the whole set.
    """
    if not is_applicable(rule, sigma, aset):
        raise ValueError("pair is not applicable to the atom set")
    out = aset.copy()
    if type(rule) is TGD:
        for atom in skolemise(rule).head:
            out.add(apply_syntactic(atom, sigma))
    else:
        tx, ty = sigma[rule.x], sigma[rule.y]
        if tx.order_key < ty.order_key:
            out.rewrite_in_place({ty: tx})
        else:
            out.rewrite_in_place({tx: ty})
    return out


def find_applicable(rules: RuleSet, aset: AtomSet) -> Iterator[tuple[Rule, Substitution]]:
    """Enumerate every applicable (rule, substitution) pair exactly once,
    in rule order then match order."""
    for rule in rules:
        for binding in match_conjunction(rule.body, aset):
            if _violated(rule, binding, aset):
                yield rule, binding


def satisfies(aset: AtomSet, rule: Rule) -> bool:
    """True iff no substitution makes the rule applicable."""
    return next(find_applicable((rule,), aset), None) is None


# ---------------------------------------------------------------------------
# The engine


class _CompiledRule:
    """A rule with its skolemised head, its join plans and its queue; the
    acyclicity saturation uses the same form without the queue.

    A match is identified by its key, the tuple of the terms it binds to
    `universals`, which are the slots of the rule's plans (`slot` maps
    each to its index).  The engine builds every plan (`compile`); the
    saturation reads only the anchored ones and builds only those
    (`compile_anchored`).  An anchored plan matches its anchor atom in its
    kernel's first step, so a run on an atom that does not fit the anchor
    position yields nothing.
    A TGD builds its skolemised head by `build`, the head kernel of its
    shape, from `build_args`: the head's predicates, then the Skolem
    symbol of each existential (`skolem_symbols`), whose term is that
    symbol applied to the whole key.

    `idle` holds the conjunctions the anchored and `whole` plans skip
    (see `_Plan`).  An EGD has one, {(x, y)}: a match that equates a term
    with itself.  A closed TGD with one head atom has one per body atom
    with the head's predicate, the (head argument, body argument) pairs
    that differ: a match satisfying it instantiates the head as that
    body atom, so the head is held.  So `plans` and `whole` yield only
    matches that can change the set; the head plan yields every head
    embedding.

    The queue is `heap`, entries (rank tuple, push number, key), and
    `queued` maps every key ever pushed to the rank tuple of its last
    push; a heap entry is live only while its rank tuple is that one.
    Both are None until the engine starts the rule at its first use
    (`ChaseEngine._start`); the saturation never starts one.  A popped
    match that was applied or found blocked keeps its `queued` entry and
    nothing else: if a merge re-ranks it, it is pushed again and rejected
    again when popped.
    """

    __slots__ = ("rule", "kind", "universals", "slot", "idle", "whole", "plans", "head",
                 "closed", "build", "build_args", "x", "y", "heap", "queued")

    def __init__(self, rule: Rule):
        self.rule = rule
        self.universals = rule.universals
        self.slot = where = {v: i for i, v in enumerate(self.universals)}
        if type(rule) is TGD:
            self.kind = "tgd"
            # Without existentials a TGD head is fully instantiated by the
            # match, and it is embedded exactly when its atoms are present.
            self.closed = not rule.existentials
            at = where | {w: -1 - k for k, w in enumerate(rule.existentials)}
            self.build = _head_kernel(tuple(tuple(at[v] for v in a.args) for a in rule.head))
            self.build_args = (*(a.predicate for a in rule.head), *skolem_symbols(rule))
            head = rule.head[0]
            self.idle = tuple([
                tuple([(where[u], where[v]) for u, v in zip(head.args, b.args) if u is not v])
                for b in rule.body if b.predicate is head.predicate
            ]) if self.closed and len(rule.head) == 1 else ()
        else:
            self.kind = "egd"
            self.x = where[rule.x]
            self.y = where[rule.y]
            self.idle = (((self.x, self.y),),)
        self.heap: Optional[list] = None
        self.queued: Optional[dict] = None

    def compile_anchored(self, size: Optional[Callable] = None) -> None:
        """Build `plans`, which maps each body predicate to the join
        plans over the key's slots anchored at each body position holding
        it, in body order.  `size` is as for `_Plan`."""
        self.plans: dict = {}
        for pos, atom in enumerate(self.rule.body):
            plan = _Plan(self.rule.body, self.slot, size=size, pos=pos, idle=self.idle)
            self.plans.setdefault(atom.predicate, []).append(plan)

    def compile(self, size: Callable) -> None:
        """Build every plan the engine reads: the anchored `plans`,
        `whole` for the body, and, for a TGD that is not `closed`, `head`,
        the head test: a plan over the head with the key's slots bound and
        one more slot for each existential."""
        self.compile_anchored(size)
        self.whole = _Plan(self.rule.body, self.slot, size=size, idle=self.idle)
        if self.kind == "tgd" and not self.closed:
            extended = {v: i for i, v in enumerate((*self.universals, *self.rule.existentials))}
            self.head = _Plan(self.rule.head, extended, self.universals, size)

    def instantiate(self, key: tuple) -> list[Atom]:
        """The skolemised head atoms of the match with this key."""
        return self.build(self.build_args, key)


class ChaseEngine:
    """One chase run over one ontology.

    Each step applies the first applicable pair in (rule order, match
    order), the pair a naive rescan with `find_applicable` would pick.
    Match order is lexicographic in the ranks of the matched atoms, so
    each rule keeps its unconsumed matches in a queue ordered by rank
    tuple (see `_CompiledRule`), and a step pops candidates rule by rule
    until one passes the applicability test.  Since the queues, not the
    matcher, order the matches, a rule's plans join in greedy connected
    order, compiled at its first use with the bucket sizes of then.

    Both kinds of step queue matches the same way (`_queue`): each
    started rule anchors each body position on each atom the step added
    or re-ranked and pushes each match whose rank tuple is not its
    queued one.  A TGD step adds atoms at the end of the rank order, so
    every match that uses one is new, found semi-naively.  An EGD step
    renames one term and so removes the atoms that hold it and gives
    their images, or atoms they collide with, new ranks.  Rules are
    constant-free, so a queued match over atoms the merge left alone
    keeps its key and rank tuple, and one over a removed atom holds the
    merged-away term: such keys are dropped when popped, by a check
    against `gone`, the merged-away terms.  A re-ranked TGD match that
    was consumed is popped again and rejected again: an applied match's
    head is present, and a blocked one stays blocked under the renaming
    (it maps a head embedding to a head embedding).

    The plans queue no idle match (see the module docstring), so a live
    EGD entry, whose key holds no merged-away term, equates two distinct
    terms and is applied as popped.  A limit stops the run after a
    candidate was selected; `_stop` pushes it back, so a run resumed
    with other limits selects it first, as one uncapped run would.

    `run` is one loop: it pops each rule's heap and tests a closed TGD's
    head by membership in the set's dict.
    A closed head holds only terms of the state, no deeper than
    max(1, cap): facts are function-free, and every other term passed the
    depth test.  So a closed TGD is depth-tested only for a cap below 1.
    """

    def __init__(
        self,
        ontology: Ontology,
        limits: ChaseLimits = ChaseLimits(),
        seed: int = 0,
        on_step: Optional[Callable[[int, Rule, Substitution, AtomSet], None]] = None,
    ):
        violations = validate(ontology)
        if violations:
            raise InvalidInputError(violations)
        self.limits = limits
        self.on_step = on_step
        self.state = AtomSet(ontology.facts)
        self.trace = ChaseTrace()
        self.compiled = [_CompiledRule(r) for r in ontology.rules]
        if seed:
            import random

            random.Random(seed).shuffle(self.compiled)
        self.gone: set = set()
        self._pushes = count()

    def _start(self, cr: _CompiledRule) -> None:
        """Compile the rule's plans for the current state, make its queue
        and queue every match of the rule in it."""
        aset = self.state
        cr.compile(aset.bucket_size)
        plan = cr.whole
        rank = aset.rank
        queued, heap = cr.queued, cr.heap = {}, []
        for slots in match_conjunction(plan, aset, plan.slots):
            key = tuple(slots)
            ranks = queued[key] = tuple(map(rank, plan.matched))
            heap.append((ranks, next(self._pushes), key))
        heapify(heap)

    def _queue(self, atoms: Sequence[Atom]) -> None:
        """Push each started rule's matches that use one of the atoms,
        found by anchoring each body position on each atom, unless the
        match is queued with the rank tuple it has now.  An added atom's
        rank is new, so every match over it is pushed once."""
        aset, pushes = self.state, self._pushes
        rank = aset.rank
        for cr in self.compiled:
            if cr.heap is None:
                continue
            plans, heap, queued = cr.plans, cr.heap, cr.queued
            for atom in atoms:
                for plan in plans.get(atom.predicate, ()):
                    for slots in match_conjunction(plan, aset, plan.slots, atom):
                        key = tuple(slots)
                        ranks = tuple(map(rank, plan.matched))
                        if queued.get(key) != ranks:
                            queued[key] = ranks
                            heappush(heap, (ranks, next(pushes), key))

    def _stop(self, heap: list, entry: tuple, limit: str) -> LimitExceeded:
        """Stop on `limit` with the selected candidate `entry` pushed back
        on its rule's heap, live under its rank tuple."""
        heappush(heap, entry)
        return LimitExceeded(self.state, limit, self.trace.steps, self.trace)

    def run(self) -> ChaseOutcome:
        limits = self.limits
        max_steps, max_atoms, cap = limits.max_steps, limits.max_atoms, limits.max_term_depth
        deadline = None
        if limits.wall_clock_ms is not None:
            deadline = time.monotonic() + limits.wall_clock_ms / 1000.0
        aset, trace, compiled, gone = self.state, self.trace, self.compiled, self.gone
        while True:
            if deadline is not None and time.monotonic() > deadline:
                return LimitExceeded(aset, "wall_clock_ms", trace.steps, trace)
            # Read each step: an `on_step` that iterates the set after a
            # merge replaces its dict.
            held = aset._atoms
            # Pop rule by rule until a candidate passes the test.
            for cr in compiled:
                if cr.heap is None:
                    self._start(cr)
                heap, queued = cr.heap, cr.queued
                while heap:
                    entry = heappop(heap)
                    ranks, _, key = entry
                    # Entries go stale only at merges, so before the first
                    # one every entry is live.
                    if gone and (queued[key] is not ranks or not gone.isdisjoint(key)):
                        continue
                    if cr.kind == "egd":
                        break
                    if cr.closed:
                        head = cr.instantiate(key)
                        if not all(map(held.__contains__, head)):
                            break
                    else:
                        plan = cr.head
                        plan.slots[:len(key)] = key
                        if next(match_conjunction(plan, aset, plan.slots), None) is None:
                            head = cr.instantiate(key)
                            break
                else:
                    continue  # no applicable match: the next rule
                break  # applicable: `cr` and `key`, and `head` for a TGD
            else:
                return Terminated(aset, trace.steps, trace)
            if max_steps is not None and trace.steps >= max_steps:
                return self._stop(heap, entry, "max_steps")
            if cr.kind == "tgd":
                fresh = [a for a in dict.fromkeys(head) if a not in held]
                if (cap is not None and (cap < 1 or not cr.closed)
                        and max(t.depth for a in head for t in a.args) > cap):
                    return self._stop(heap, entry, "max_term_depth")
                if max_atoms is not None and len(held) + len(fresh) > max_atoms:
                    return self._stop(heap, entry, "max_atoms")
                for a in fresh:
                    aset.add(a)
                self._queue(fresh)
                trace.tgd_steps += 1
            else:
                # Rename the later term in the order to the earlier one
                # and queue the matches over the atoms this re-ranked.
                tx, ty = key[cr.x], key[cr.y]
                frm, to = (ty, tx) if tx.order_key < ty.order_key else (tx, ty)
                gone.add(frm)
                self._queue(aset.rewrite_in_place({frm: to}))
                trace.egd_steps += 1
            trace.steps += 1
            if self.on_step is not None:
                self.on_step(trace.steps, cr.rule, dict(zip(cr.universals, key)), aset)


def chase(
    ontology: Ontology,
    limits: ChaseLimits = ChaseLimits(),
    seed: int = 0,
    on_step: Optional[Callable[[int, Rule, Substitution, AtomSet], None]] = None,
) -> ChaseOutcome:
    """Run the chase to saturation or to a resource limit."""
    return ChaseEngine(ontology, limits, seed=seed, on_step=on_step).run()


# ---------------------------------------------------------------------------
# Entailment


@dataclass(frozen=True)
class Entailed:
    witness: dict


@dataclass(frozen=True)
class NotEntailed:
    pass


@dataclass(frozen=True)
class Unknown:
    limit: str


EntailmentVerdict = Union[Entailed, NotEntailed, Unknown]


def entails(
    ontology: Ontology,
    query: BCQ,
    limits: ChaseLimits = ChaseLimits(),
    seed: int = 0,
) -> EntailmentVerdict:
    """Decide query entailment by homomorphism into a chase.

    On a finished chase the answer is definite.  When a limit was hit,
    a witness found in the partial state is still reported as entailed
    (growth preserves embeddings and merges rename them along); absence
    of a witness is reported as unknown.
    """
    violations = validate_query(query, ontology.rules)
    if violations:
        raise InvalidInputError(violations)
    outcome = chase(ontology, limits, seed=seed)
    if isinstance(outcome, Terminated):
        w = homomorphism(query.body, outcome.result)
        return Entailed(w) if w is not None else NotEntailed()
    w = homomorphism(query.body, outcome.partial)
    if w is not None:
        return Entailed(w)
    return Unknown(outcome.limit)
