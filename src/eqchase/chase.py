"""The non-oblivious "renaming" chase.

TGDs fire only when no extension of the match already embeds the head;
EGDs merge the two matched terms by renaming the deeper one to the
shallower one across the whole atom set (argument-level).  A run applies,
at every step, the first applicable (rule, substitution) pair in rule
order and match order, which is the order `match_conjunction`
enumerates over the rule body: lexicographic in the ranks of the matched
atoms.  The engine finds that pair incrementally, from one queue of
matches ordered by rule index and rank tuple, and selects the same
sequence as a naive full rescan with `find_applicable`.  A match is
queued again whenever a merge gives it a new rank tuple, even one
already applied or found blocked: the applicability test rejects it
when it is popped, so the engine keeps no record of consumed matches.
Every pair that stays applicable is eventually applied, and the final
set of a finished run satisfies every rule.

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
    Term,
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


def _step(args: tuple, bound: set) -> tuple:
    """How to match an atom whose arguments are these slots once the
    slots in `bound` are bound: (source argument, its slot, checks,
    repeats, binds).  The first bound argument picks the candidates, and
    any other bound argument is a check (argument, slot).  A slot's first
    occurrence in the atom binds it (argument, slot), and a repeat is
    checked against that occurrence (argument, argument).  Adds the
    atom's slots to `bound`."""
    src = var = None
    checks, repeats, binds = [], [], []
    first: dict = {}
    for j, s in enumerate(args):
        if s in bound:
            if src is None:
                src, var = j, s
            else:
                checks.append((j, s))
        elif s in first:
            repeats.append((first[s], j))
        else:
            first[s] = j
            binds.append((j, s))
    bound.update(first)
    return src, var, tuple(checks), tuple(repeats), tuple(binds)


def _join(pattern: tuple, bound: int = 0, size=None, pos=None) -> tuple:
    """The join order, a tuple of body positions, over a body of this
    slot pattern (see `_plan`) with its first `bound` slots bound.
    Without `size` the atoms are joined in body order; with it (a
    function from a body position to its bucket size) in greedy
    connected order: next an atom that holds a bound slot, then the one
    with the smaller bucket.  The atom at `pos`, if given, comes first."""
    order = [] if pos is None else [pos]
    todo = [k for k in range(len(pattern)) if k != pos]
    if size is None:
        return (*order, *todo)
    bound = set(range(bound)).union(*[pattern[k] for k in order])
    while todo:
        i = min(todo, key=lambda k: (bound.isdisjoint(pattern[k]), size(k), k))
        todo.remove(i)
        order.append(i)
        bound.update(pattern[i])
    return tuple(order)


class _Plan:
    """A join over a body, compiled once, that binds the body's variables
    to slots; made by `_plan`, or by `_CompiledRule.bind` from the
    anchored plans of a rule of the same skeleton.

    `kernel` runs the join, with the steps' predicates `preds` as an
    argument, and returns its matches as one list (see `_kernel`).  An
    anchored plan, one with no variable bound beforehand that joins the
    atom at one body position first, matches that step against the
    anchor atom it is run with.  A first-match plan returns at its first
    match.

    A plan with no variable bound beforehand may skip its rule's idle
    conjunctions (see `_CompiledRule`), each a tuple of slot pairs: a
    match that binds both slots of every pair of one of them to the same
    term is dropped.  The kernel tests each conjunction at the first step
    that binds all its slots, inline after that step's checks; a
    conjunction without pairs drops every match.  The tests are placed
    when the kernel is generated, so building a plan does no work for
    them.
    """

    __slots__ = ("preds", "kernel")

    def __init__(self, preds: tuple, kernel: Callable):
        self.preds = preds
        self.kernel = kernel


def _plan(body: Sequence[Atom], slot: Mapping, bound=(), size=None, pos=None,
          idle=(), first=False) -> _Plan:
    """The plan over the body with `slot` mapping each variable to its
    slot and the variables of `bound`, which take the first slots, bound
    beforehand, joined as `_join` orders it: `size` maps a predicate to
    its bucket size; `pos` anchors the plan at that body position; `idle`
    is as for `_Plan`; `first` makes it a first-match plan.  Its kernel
    is `_kernel`'s for the body's slot pattern, each atom's arguments as
    slots, and that order."""
    pattern = tuple([tuple([slot[v] for v in atom.args]) for atom in body])
    weight = None if size is None else (lambda k: size(body[k].predicate))
    order = _join(pattern, len(bound), weight, pos)
    kernel = _kernel(pattern, order, idle, pos is not None, first, len(bound))
    return _Plan(tuple([body[i].predicate for i in order]), kernel)


# Steps per kernel: CPython nests at most 20 blocks in one function.
_SEGMENT = 16


def _exec(source: str, name: str, namespace: dict):
    """The function `name` that `source` defines, with `namespace` as its
    globals; kept out of them, so function and globals form no cycle."""
    defined: dict = {}
    exec(source, namespace, defined)
    return defined[name]


@lru_cache(maxsize=1024)
def _kernel(pattern: tuple, order: tuple, idle: tuple = (), anchored: bool = False,
            first: bool = False, bound: int = 0, start: int = 0):
    """The function `kernel(P, aset, init, A, out)` that runs steps
    `start`.. of the join over a body of this slot pattern in this order
    (see `_plan`), one `_step` per atom, with these idle conjunctions (see
    `_Plan`), at most `_SEGMENT` steps, then the next segment's kernel.
    It is generated code with one nested `for` loop per step and inline
    `is not` tests; each slot is a local `s{slot}` and each matched atom
    the loop variable of its step.  The `bound` slots bound beforehand, the
    first ones, are unpacked from the tuple `init` at entry.  An anchored
    plan tests the anchor `A` before any loop and returns on a mismatch.
    Each match is appended to `out` as the pair (key, matched atoms), the
    tuple of every slot and the tuple of the atom matched at each body
    position, and `out` is returned, at the first match if `first` is set.
    A later segment gets the slots bound so far as `init` and the atoms
    matched so far, in join order, as `A`.  Kernels are cached by slot
    pattern and join order, so a hit plans nothing; the predicates are the
    argument `P`: the source holds integers only, never an input name."""
    seen = set(range(bound))
    shape = [(i, *_step(pattern[i], seen)) for i in order]
    end = min(start + _SEGMENT, len(shape))
    at: dict = {}  # conjunction -> the first step that binds all its slots
    binder: dict = {}  # slot -> the step that binds it
    for i, step in enumerate(shape):
        binder.update((s, i) for _, s in step[5])
        for c in idle:
            if c not in at and all(s in binder for p in c for s in p):
                at[c] = i

    def known(i):  # the slots bound before step i, in slot order
        return [*range(bound), *sorted(s for s in binder if binder[s] < i)]

    def tup(names):
        return "(" + "".join(f"{n}, " for n in names) + ")"

    atom = [f"a{i}" for i in range(len(shape))]
    lines = ["def kernel(P, aset, init, A, out):"]
    if known(start):
        lines.append(f" {tup(f's{s}' for s in known(start))} = init")
    if start:
        lines.append(f" {tup(atom[:start])} = A")
    elif anchored:
        atom[0] = "A"
    pad = " "
    for i in range(start, end):
        pos, src, var, checks, repeats, binds = shape[i]
        if atom[i] == "A":
            skip = "return out"
        else:
            if src is None:
                cands = f"aset.bucket(P[{i}])"
            elif src == 0:
                cands = f"aset.arg0_bucket(P[{i}], s{var})"
            else:
                cands = f"aset.arg_bucket(P[{i}], {src}, s{var})"
            lines.append(f"{pad}for a{i} in {cands}:")
            skip, pad = "continue", pad + " "
        value = {s: f"x[{j}]" for j, s in binds}
        tests = [f"x[{j}] is not s{s}" for j, s in checks]
        tests += [f"x[{k}] is not x[{j}]" for j, k in repeats]
        tests += [" and ".join(f"{value.get(a, f's{a}')} is {value.get(b, f's{b}')}"
                               for a, b in c) or "True" for c in idle if at[c] == i]
        if tests or binds:
            lines.append(f"{pad}x = {atom[i]}.args")
        if tests:
            lines.append(f"{pad}if {' or '.join(tests)}: {skip}")
        lines += [f"{pad}s{s} = x[{j}]" for j, s in binds]
    namespace: dict = {}
    slots = tup(f"s{s}" for s in known(end))
    if end < len(shape):
        namespace["rest"] = _kernel(pattern, order, idle, False, first, bound, end)
        lines.append(f"{pad}rest(P, aset, {slots}, {tup(atom[:end])}, out)")
        if first:
            lines.append(f"{pad}if out: return out")
    else:
        matched = tup(atom[i] for i in sorted(range(end), key=lambda i: shape[i][0]))
        lines.append(f"{pad}out.append(({slots}, {matched}))")
        if first:
            lines.append(f"{pad}return out")
    lines.append(" return out")
    return _exec("\n".join(lines), "kernel", namespace)


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
    init: Union[tuple, Mapping[Variable, object]] = (),
    anchor: Optional[Atom] = None,
) -> list:
    """Every binding of the body variables that embeds the conjunction
    into the atom set, as a list in deterministic order; a compiled plan
    skips the idle bindings of its rule.

    Given a compiled `_Plan`, runs it with its first slots bound to the
    tuple `init`, and an anchored plan with the atom its first step
    matches as `anchor`, and returns its kernel's list of (key, matched
    atoms) pairs (see `_kernel`); a first-match plan's list holds at
    most one.  Given atoms, whose terms must be variables (else
    ValueError), compiles a plan in body order with the variables of the
    mapping `init` bound, and no idle test, and returns a new dict per
    binding, `init` included.

    Order invariant: candidates come in rank order at each step, so a
    plan in body order finds its bindings in lexicographic order of the
    tuple of the matched atoms' ranks (`AtomSet.rank`); the chase engine
    relies on this only through the rank tuples it queues.

    Each step reads the anchor alone or one of the set's live index
    lists (`bucket`, `arg0_bucket`, `arg_bucket`), and every match is
    collected before the call returns, so a caller may change the set
    while it reads the list.  A run leaves no reference cycle for the
    cyclic GC.
    """
    if type(body) is _Plan:
        return body.kernel(body.preds, aset, init, anchor, [])
    _require_variables(body)
    init = dict(init)
    variables = list(dict.fromkeys([*init, *(v for atom in body for v in atom.args)]))
    plan = _plan(body, {v: i for i, v in enumerate(variables)}, init)
    found = plan.kernel(plan.preds, aset, tuple(init.values()), None, [])
    return [dict(zip(variables, key)) for key, _ in found]


def _require_variables(body: Sequence[Atom]) -> None:
    for t in (t for atom in body for t in atom.args if type(t) is not Variable):
        raise ValueError(f"the body term {t} is not a variable")


def homomorphism(body: Sequence[Atom], aset: AtomSet) -> Optional[Substitution]:
    """A total mapping of the body's variables into the atom set, or None:
    the first match of a plan in the engine's greedy connected order
    (see `_join`).  A body term that is not a variable is a ValueError."""
    _require_variables(body)
    slot = {v: i for i, v in enumerate(dict.fromkeys(v for atom in body for v in atom.args))}
    plan = _plan(body, slot, size=aset.bucket_size, first=True)
    for key, _ in match_conjunction(plan, aset):
        return dict(zip(slot, key))
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


def _violated(rule: Rule, sigma: Mapping, aset: AtomSet) -> bool:
    """Whether a body match is not satisfied: no extension of it embeds a
    TGD head, or an EGD equates two distinct terms."""
    if type(rule) is TGD:
        init = {v: sigma[v] for atom in rule.head for v in atom.variables() if v in sigma}
        return not match_conjunction(rule.head, aset, init)
    return sigma[rule.x] is not sigma[rule.y]


def is_applicable(rule: Rule, sigma: Substitution, aset: AtomSet) -> bool:
    """The four applicability conditions: exact substitution domain, body
    embedded, no extension of the match embeds a TGD head, and an EGD
    equates two distinct terms."""
    _check_domain(rule, sigma)
    held = all(Atom(a.predicate, [sigma[v] for v in a.args]) in aset for a in rule.body)
    return held and _violated(rule, sigma, aset)


def _merge(tx: Term, ty: Term) -> tuple[Term, Term]:
    """The renaming (frm, to) of two equated terms: later in the term order to earlier."""
    return (ty, tx) if tx.order_key < ty.order_key else (tx, ty)


def apply(rule: Rule, sigma: Substitution, aset: AtomSet) -> AtomSet:
    """Apply an applicable pair, returning the successor atom set.

    TGDs add the instantiated skolemised head; EGDs rename one of the two
    equated terms to the other (`_merge`) across the whole set.
    """
    if not is_applicable(rule, sigma, aset):
        raise ValueError("pair is not applicable to the atom set")
    out = aset.copy()
    if type(rule) is TGD:
        for atom in skolemise(rule).head:
            out.add(apply_syntactic(atom, sigma))
    else:
        out.rewrite_in_place(*_merge(sigma[rule.x], sigma[rule.y]))
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
    """A rule with its skolemised head and its join plans: the one form
    the chase engine and the acyclicity saturation run, with no run state.

    A match is identified by its key, the tuple of the terms it binds to
    `universals`, which are the slots of the rule's plans (`slot` maps
    each to its index).  The engine builds every plan (`compile`); the
    saturation builds only the anchored ones (`compile_anchored`), each
    joining the rest of the body in body order, or shares all but its
    predicates with a form of its skeleton (`bind`).  Every plan's kernel
    comes from the one cache `_kernel`.  Both look up the plans that read
    an atom in a `readers` map that `file_plans` fills.
    An anchored plan tests its anchor atom before its kernel's first
    loop, so a run on an atom that does not fit the anchor position
    returns no match.
    A TGD builds its skolemised head by `build`, the head kernel of its
    shape, from `build_args`: the head's predicates, then the Skolem
    symbol of each existential (`skolem_symbols`), whose term is that
    symbol applied to the whole key.

    `idle` holds the conjunctions the anchored and `whole` plans skip
    (see `_Plan`).  An EGD has one, {(x, y)}: a match that equates a term
    with itself.  A closed TGD with one head atom has one per body atom
    with the head's predicate, the (head argument, body argument) pairs
    that differ: a match satisfying it instantiates the head as that
    body atom, so the head is held.  So `plans` and `whole` find only
    matches that can change the set; the head plan skips no head
    embedding.
    """

    __slots__ = ("rule", "kind", "universals", "slot", "idle", "whole", "plans", "head",
                 "closed", "build", "build_args", "x", "y")

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

    def compile_anchored(self, size: Optional[Callable] = None) -> None:
        """Build `plans`, the join plans over the key's slots anchored at
        each body position, in body order, one `_plan` each: `size` is as
        for `_plan`; without it the rest of the body joins in body order."""
        body, slot = self.rule.body, self.slot
        self.plans = [_plan(body, slot, size=size, pos=pos, idle=self.idle)
                      for pos in range(len(body))]

    def bind(self, rule: Rule) -> "_CompiledRule":
        """`rule`, of this form's skeleton (`_skeleton`), compiled as this
        form is by `compile_anchored()`.  Only its predicates are its own,
        laid out for each plan as the anchor's, then the body's in order:
        the rest is shared, its Skolem symbols too, which `skolem_symbols`
        derives from the existentials and universals the skeleton fixes."""
        cr = object.__new__(type(self))
        cr.rule, cr.kind, cr.universals, cr.slot = rule, self.kind, self.universals, self.slot
        cr.idle = self.idle
        if self.kind == "tgd":
            cr.closed, cr.build = self.closed, self.build
            head = rule.head
            cr.build_args = (*(a.predicate for a in head), *self.build_args[len(head):])
        else:
            cr.x, cr.y = self.x, self.y
        preds = [atom.predicate for atom in rule.body]
        cr.plans = [_Plan((preds[i], *preds[:i], *preds[i + 1:]), plan.kernel)
                    for i, plan in enumerate(self.plans)]
        return cr

    def file_plans(self, readers: dict, idx: int) -> None:
        """Append each anchored plan, in body order, to `readers` as
        (self, idx, plan) under its anchor's predicate; `idx` is the
        index of the rule occurrence the plans serve."""
        for atom, plan in zip(self.rule.body, self.plans):
            readers.setdefault(atom.predicate, []).append((self, idx, plan))

    def compile(self, size: Callable) -> None:
        """Build every plan the engine reads: the anchored `plans`,
        `whole` for the body, and, for a TGD that is not `closed`, `head`,
        the head test: a first-match plan over the head with the key's
        slots bound and one more slot for each existential."""
        self.compile_anchored(size)
        self.whole = _plan(self.rule.body, self.slot, size=size, idle=self.idle)
        if self.kind == "tgd" and not self.closed:
            extended = {v: i for i, v in enumerate((*self.universals, *self.rule.existentials))}
            self.head = _plan(self.rule.head, extended, self.universals, size, first=True)


def _skeleton(rule: Rule) -> tuple:
    """All a rule's compiled form depends on but its predicates: its
    atoms' arguments, its existentials or equated variables, and which
    body atoms have the predicate of a one-atom head (`idle`).  A TGD's
    key has four parts and an EGD's three, so they never meet."""
    body = tuple([atom.args for atom in rule.body])
    if type(rule) is TGD:
        head = rule.head
        p = head[0].predicate if len(head) == 1 else None
        return (body, tuple([atom.args for atom in head]), rule.existentials,
                tuple([atom.predicate is p for atom in rule.body]))
    return body, rule.x, rule.y


class ChaseEngine:
    """One chase run over one ontology.

    Each step applies the first applicable pair in (rule order, match
    order), the pair a naive rescan with `find_applicable` would pick.
    Match order is lexicographic in the ranks of the matched atoms, so
    the unconsumed matches wait in one heap of entries (rule index, rank
    tuple, push number, key), and a step pops candidates until one passes
    the applicability test.  `queued` holds a dict per started rule, by
    rule index, from every key ever pushed to the rank tuple of its last
    push; an entry is live only while its rank tuple is that one.

    Rules start in rule order (`_start`), each when the heap runs empty,
    so when no earlier rule has a candidate; once every rule has started,
    an empty heap ends the run.  Since the heap, not the matcher, orders
    the matches, a rule's plans join in greedy connected order, compiled
    at its start with the bucket sizes of then.

    Both kinds of step queue matches the same way (`_queue`): the plans
    filed in `readers` under each atom's predicate are anchored on each
    atom the step added or re-ranked, and each match whose rank tuple is
    not its queued one is pushed.  A TGD step adds atoms at the end of
    the rank order, so every match that uses one is new, found
    semi-naively.  An EGD step renames one term and so removes the atoms
    that hold it and gives their images, or atoms they collide with, new
    ranks.  Rules are constant-free, so a queued match over atoms the
    merge left alone keeps its key and rank tuple, and one over a removed
    atom holds the merged-away term: such keys are dropped when popped,
    by a check against `gone`, the merged-away terms.  A consumed TGD
    match keeps its `queued` entry alone; re-ranked, it is popped again
    and rejected again: an applied match's head is present, and a blocked
    one stays blocked under the renaming (it maps a head embedding to a
    head embedding).

    The plans queue no idle match (see the module docstring), so a live
    EGD entry, whose key holds no merged-away term, equates two distinct
    terms and is applied as popped.  A limit stops the run after a
    candidate was selected; `_stop` pushes it back, so a run resumed
    with other limits selects it first, as one uncapped run would.

    `run` tests a closed TGD's head by membership in the set's one dict.
    A closed head holds only terms of the state, no deeper than max(1,
    cap): facts are function-free, and every other term passed the depth
    test.  So a closed TGD is depth-tested only for a cap below 1.
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
        self.heap: list = []
        self.queued: list[dict] = []
        self.readers: dict = {}
        self._pushes = count()

    def _start(self) -> None:
        """Start the next rule while the heap is empty: compile its plans
        for the current state, file its anchored plans in `readers` and
        queue every match of the rule in the state."""
        aset, idx = self.state, len(self.queued)
        cr = self.compiled[idx]
        cr.compile(aset.bucket_size)
        cr.file_plans(self.readers, idx)
        rank, heap, queued = aset.rank, self.heap, {}
        self.queued.append(queued)
        for key, matched in match_conjunction(cr.whole, aset):
            ranks = queued[key] = tuple(map(rank, matched))
            heap.append((idx, ranks, next(self._pushes), key))
        heapify(heap)

    def _queue(self, atoms: Sequence[Atom]) -> None:
        """Push the started rules' matches that use one of the atoms, found
        by the plans that read each atom's predicate, unless the match is
        queued with the rank tuple it has now.  An added atom's rank is
        new, so every match over it is pushed once."""
        aset, heap, queued, pushes = self.state, self.heap, self.queued, self._pushes
        rank = aset.rank
        for atom in atoms:
            for _, idx, plan in self.readers.get(atom.predicate, ()):
                keys = queued[idx]
                for key, matched in match_conjunction(plan, aset, (), atom):
                    ranks = tuple(map(rank, matched))
                    if keys.get(key) != ranks:
                        keys[key] = ranks
                        heappush(heap, (idx, ranks, next(pushes), key))

    def _stop(self, entry: tuple, limit: str) -> LimitExceeded:
        """Stop on `limit` with the selected candidate `entry` pushed back
        on the heap, live under its rank tuple."""
        heappush(self.heap, entry)
        return LimitExceeded(self.state, limit, self.trace.steps, self.trace)

    def run(self) -> ChaseOutcome:
        limits = self.limits
        max_steps, max_atoms, cap = limits.max_steps, limits.max_atoms, limits.max_term_depth
        deadline = None
        if limits.wall_clock_ms is not None:
            deadline = time.monotonic() + limits.wall_clock_ms / 1000.0
        aset, trace, compiled, gone = self.state, self.trace, self.compiled, self.gone
        heap, queued, held = self.heap, self.queued, aset._atoms
        while True:
            if deadline is not None and time.monotonic() > deadline:
                return LimitExceeded(aset, "wall_clock_ms", trace.steps, trace)
            # Pop until a candidate passes the test: `cr` and `key`, and
            # `head` for a TGD.
            while True:
                while not heap:
                    if len(queued) == len(compiled):
                        return Terminated(aset, trace.steps, trace)
                    self._start()
                entry = heappop(heap)
                idx, ranks, _, key = entry
                # Entries go stale only at merges, so before the first one
                # every entry is live.
                if gone and (queued[idx][key] is not ranks or not gone.isdisjoint(key)):
                    continue
                cr = compiled[idx]
                if cr.kind == "egd":
                    break
                if cr.closed:
                    head = cr.build(cr.build_args, key)
                    if not all(map(held.__contains__, head)):
                        break
                elif next(iter(match_conjunction(cr.head, aset, key)), None) is None:
                    head = cr.build(cr.build_args, key)
                    break
            if max_steps is not None and trace.steps >= max_steps:
                return self._stop(entry, "max_steps")
            if cr.kind == "tgd":
                fresh = [a for a in dict.fromkeys(head) if a not in held]
                if (cap is not None and (cap < 1 or not cr.closed)
                        and max(t.depth for a in head for t in a.args) > cap):
                    return self._stop(entry, "max_term_depth")
                if max_atoms is not None and len(held) + len(fresh) > max_atoms:
                    return self._stop(entry, "max_atoms")
                for a in fresh:
                    aset.add(a)
                self._queue(fresh)
                trace.tgd_steps += 1
            else:
                # Rename one term to the other and queue the matches over
                # the atoms this re-ranked.
                frm, to = _merge(key[cr.x], key[cr.y])
                gone.add(frm)
                self._queue(aset.rewrite_in_place(frm, to))
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
    """No witness in a chase that `limit` stopped after `steps` steps."""

    limit: str
    steps: int


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
    return Unknown(outcome.limit, outcome.steps)
