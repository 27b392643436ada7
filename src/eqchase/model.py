"""Core vocabulary: terms, atoms, rules, ontologies, queries.

Symbols and terms (`Predicate`, `SkolemSymbol`, `Constant`, `Variable`,
`Functional`) are interned: constructing one with the fields of a live
one returns that object, so equality between them is identity and their
hash is the object's.  `Constant` and `Variable` share one base, `_Name`,
and keep an intern table each.  Atoms, rules and the other values still
compare structurally.  Everything is immutable; the intern tables are
weak and unlocked, so terms are best built from one thread at a time.
The module also provides the primitive operations the rest of the engine
is built on: the total term order used to direct merges, cyclic-term
detection, the two distinct substitution semantics (argument-level term
rewriting vs. syntactic variable substitution), and skolemisation of
existential heads.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from weakref import WeakValueDictionary
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

# Equality proper (written `x = y` in rule heads) never appears as a data
# atom; the binary predicate `eq` is the ordinary stand-in the equality
# axiomatisations use.  Its name is reserved: `eq` has arity 2 only.
RESERVED_EQ_NAME = "eq"


class Predicate:
    """A predicate symbol with a fixed arity."""

    __slots__ = ("name", "arity", "__weakref__")
    _interned: WeakValueDictionary = WeakValueDictionary()

    def __new__(cls, name: str, arity: int):
        self = cls._interned.get((name, arity))
        if self is None:
            if arity < 1:
                raise ValueError(f"predicate {name!r} must have arity >= 1")
            if name == RESERVED_EQ_NAME and arity != 2:
                raise ValueError(f"{RESERVED_EQ_NAME!r} is the reserved equality predicate and must be binary")
            self = cls._interned[name, arity] = object.__new__(cls)
            self.name = name
            self.arity = arity
        return self

    def __reduce__(self):
        return Predicate, (self.name, self.arity)

    def __repr__(self) -> str:
        return f"Predicate({self.name!r}/{self.arity})"


#: The reserved predicate used by axiomatisations in place of equality.
EQ = Predicate(RESERVED_EQ_NAME, 2)

_EMPTY_SYMS: frozenset = frozenset()


class SkolemSymbol:
    """A function symbol introduced for one existential variable.

    Identity is (name, arity).  Because existential variable names never
    repeat across the rules of one rule set, naming the symbol after its
    variable keeps it unique within the set and stable across the
    equality-elimination transforms (which copy rules verbatim or leave
    their heads untouched).
    """

    __slots__ = ("name", "arity", "__weakref__")
    _interned: WeakValueDictionary = WeakValueDictionary()

    def __new__(cls, name: str, arity: int):
        self = cls._interned.get((name, arity))
        if self is None:
            self = cls._interned[name, arity] = object.__new__(cls)
            self.name = name
            self.arity = arity
        return self

    def __reduce__(self):
        return SkolemSymbol, (self.name, self.arity)

    def __repr__(self) -> str:
        return f"SkolemSymbol({self.name!r}/{self.arity})"


class _Name:
    """A constant or a variable: a term that is only its name.  Each
    subclass keeps its own intern table, so `Constant(n)` and
    `Variable(n)` are distinct objects."""

    __slots__ = ("name", "__weakref__")

    depth = 1
    cyclic = False
    fn_symbols = _EMPTY_SYMS

    def __new__(cls, name: str):
        self = cls._interned.get(name)
        if self is None:
            self = cls._interned[name] = object.__new__(cls)
            self.name = name
        return self

    def __reduce__(self):
        return type(self), (self.name,)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"

    @property
    def order_key(self):
        return (1, self._kind, self.name)


class Constant(_Name):
    __slots__ = ()
    _interned: WeakValueDictionary = WeakValueDictionary()
    _kind = 0


class Variable(_Name):
    __slots__ = ()
    _interned: WeakValueDictionary = WeakValueDictionary()
    _kind = 1


class Functional:
    """A term built from a Skolem symbol.  Depth, the set of function
    symbols inside, and cyclicity are precomputed bottom-up so the hot
    paths can read them in O(1).

    The depth of a term is 1 for constants and variables, else one more
    than the deepest argument.  A term is cyclic iff some functional
    subterm's symbol occurs again strictly inside one of that subterm's
    arguments, at any nesting depth."""

    __slots__ = ("fn", "args", "depth", "cyclic", "fn_symbols", "_key", "__weakref__")
    _interned: WeakValueDictionary = WeakValueDictionary()

    def __new__(cls, fn: SkolemSymbol, args: Sequence["Term"]):
        args = tuple(args)
        self = cls._interned.get((fn, args))
        if self is not None:
            return self
        if len(args) != fn.arity:
            raise ValueError(f"{fn.name} expects {fn.arity} arguments, got {len(args)}")
        self = object.__new__(cls)
        self.fn = fn
        self.args = args
        self.depth = 1 + max(a.depth for a in args)
        # Symbols are tracked by name: within one rule set a name denotes
        # exactly one symbol, so this coincides with symbol identity.
        self.fn_symbols = frozenset((fn.name,)).union(*(a.fn_symbols for a in args))
        self.cyclic = any(a.cyclic for a in args) or any(
            fn.name in a.fn_symbols for a in args
        )
        self._key = None
        cls._interned[fn, args] = self
        return self

    def __reduce__(self):
        """Each distinct functional subterm once, after its arguments, a
        functional argument by its position: a flat list, so that
        pickling a deep term does not recurse.  Terms pickled in one
        stream share no nodes, so pickling many nested terms takes
        quadratic space: 400 atoms over one chain of nested terms take
        about 670 KB, where sharing each subterm would take about 21 KB."""
        index: dict[Functional, int] = {}
        stack = [self]
        while stack:
            t = stack.pop()
            todo = [a for a in t.args if type(a) is Functional and a not in index]
            if todo:
                stack += (t, *todo)
            elif t not in index:
                index[t] = len(index)
        return _functional, ([(t.fn, tuple(index.get(a, a) for a in t.args)) for t in index],)

    def __str__(self) -> str:
        return self._render(False)

    def __repr__(self) -> str:
        return self._render(True)

    def _render(self, full: bool) -> str:
        """`str`, or with `full` the constructor form of `repr`, written
        over a stack of (arguments, next index), not by recursion: a chase
        can build terms deeper than the interpreter's recursion limit."""
        parts, stack = [], []
        args, i = (self,), 0
        while True:
            if i < len(args):
                a = args[i]
                if i:
                    parts.append(", " if full else ",")
                i += 1
                if type(a) is Functional:
                    stack.append((args, i))
                    parts.append(f"Functional({a.fn.name!r}, (" if full else a.fn.name + "(")
                    args, i = a.args, 0
                else:
                    parts.append(repr(a) if full else a.name)
            elif stack:
                parts.append((",))" if len(args) == 1 else "))") if full else ")")
                args, i = stack.pop()
            else:
                return "".join(parts)

    @property
    def order_key(self):
        """Sort key realising the total term order, shared by every term
        kind.

        Depth is the primary component, so merging always renames deeper
        terms into shallower ones; ties break lexicographically on term
        kind, root symbol and then recursively on arguments.
        """
        if self._key is None:
            # Bottom-up over a stack, not recursion: a key is built once
            # the keys of its arguments are cached.
            stack = [self]
            while stack:
                t = stack.pop()
                todo = [a for a in t.args if type(a) is Functional and a._key is None]
                if todo:
                    stack += (t, *todo)
                elif t._key is None:
                    t._key = (t.depth, 2, t.fn.name) + tuple(a.order_key for a in t.args)
        return self._key


def _functional(nodes: list[tuple]) -> Functional:
    """The last term of a list `Functional.__reduce__` wrote."""
    built: list[Functional] = []
    for fn, args in nodes:
        built.append(Functional(fn, [built[a] if type(a) is int else a for a in args]))
    return built[-1]


Term = Union[Constant, Variable, Functional]

#: The distinguished constant every critical-instance fact is built from.
STAR = Constant("*")


class Atom:
    __slots__ = ("predicate", "args", "_hash")

    def __init__(self, predicate: Predicate, args: Sequence[Term]):
        args = tuple(args)
        if len(args) != predicate.arity:
            raise ValueError(
                f"{predicate.name} expects {predicate.arity} arguments, got {len(args)}"
            )
        self.predicate = predicate
        self.args = args
        self._hash = hash((predicate, args))

    def __eq__(self, other: object) -> bool:
        return self is other or (
            type(other) is Atom
            and other._hash == self._hash
            and other.predicate is self.predicate
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.predicate.name}({','.join(str(a) for a in self.args)})"

    def __repr__(self) -> str:
        return f"Atom({self})"

    @property
    def is_ground(self) -> bool:
        return next(self.variables(), None) is None

    @property
    def sort_key(self):
        return (self.predicate.name,) + tuple(a.order_key for a in self.args)

    def variables(self) -> Iterator[Variable]:
        # A stack of argument iterators, not recursion.
        stack = [iter(self.args)]
        while stack:
            for a in stack[-1]:
                if type(a) is Variable:
                    yield a
                elif type(a) is Functional:
                    stack.append(iter(a.args))
                    break
            else:
                stack.pop()


Substitution = dict  # Variable -> ground Term


def _map_atom(atom: Atom, m: Mapping[Term, Term]) -> Atom:
    """Argument-level term rewriting of one atom: an argument is replaced
    exactly when the whole argument is a key of `m`; occurrences nested
    inside functional terms are left untouched."""
    if not m:
        return atom
    changed = False
    new_args = []
    for a in atom.args:
        b = m.get(a, a)
        if b is not a:
            changed = True
        new_args.append(b)
    return Atom(atom.predicate, new_args) if changed else atom


def apply_syntactic(atom: Atom, subst: Mapping[Variable, Term]) -> Atom:
    """Syntactic variable substitution: descends into the arguments of
    functional terms, unlike argument-level rewriting.  This is the
    semantics used to instantiate skolemised heads.

    Raises ValueError on a variable the substitution does not bind.
    """
    return Atom(atom.predicate, [_substitute(a, subst, True) for a in atom.args])


def _substitute(t: Term, subst: Mapping[Variable, Term], strict: bool) -> Term:
    """`t` with each variable replaced by its image under `subst`, also
    inside functional terms.  A variable `subst` does not bind stays, or
    with `strict` raises ValueError.  Bottom-up over a stack, not by
    recursion: a chase can build terms deeper than the recursion limit."""
    image: dict[Term, Term] = {}
    stack = [t]
    while stack:
        u = stack.pop()
        if type(u) is Variable:
            if strict and u not in subst:
                raise ValueError(f"unbound variable {u.name!r} during substitution")
            image[u] = subst.get(u, u)
        elif type(u) is Functional:
            todo = [a for a in u.args if a not in image]
            if todo:
                stack += (u, *todo)
            else:
                image[u] = Functional(u.fn, [image[a] for a in u.args])
        else:
            image[u] = u
    return image[t]


# ---------------------------------------------------------------------------
# Rules


class TGD:
    """body -> exists w1..wk . head"""

    __slots__ = ("body", "existentials", "head", "_hash", "_universals")

    def __init__(
        self,
        body: Sequence[Atom],
        existentials: Sequence[Variable],
        head: Sequence[Atom],
    ):
        self.body = tuple(body)
        self.existentials = tuple(existentials)
        self.head = tuple(head)
        self._hash = hash(("tgd", self.body, self.existentials, self.head))
        self._universals = None

    def __eq__(self, other: object) -> bool:
        return self is other or (
            type(other) is TGD
            and other.body == self.body
            and other.existentials == self.existentials
            and other.head == self.head
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        ex = ""
        if self.existentials:
            ex = "exists " + ", ".join(v.name for v in self.existentials) + " . "
        return (
            ", ".join(str(a) for a in self.body)
            + " -> "
            + ex
            + ", ".join(str(a) for a in self.head)
        )

    @property
    def universals(self) -> tuple[Variable, ...]:
        """Body variables in first-occurrence order."""
        if self._universals is None:
            self._universals = _first_occurrence_vars(self.body)
        return self._universals


class EGD:
    """body -> x = y, with x and y body variables."""

    __slots__ = ("body", "x", "y", "_hash", "_universals")

    def __init__(self, body: Sequence[Atom], x: Variable, y: Variable):
        self.body = tuple(body)
        self.x = x
        self.y = y
        self._hash = hash(("egd", self.body, x, y))
        self._universals = None

    def __eq__(self, other: object) -> bool:
        return self is other or (
            type(other) is EGD
            and other.body == self.body
            and other.x is self.x
            and other.y is self.y
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            ", ".join(str(a) for a in self.body)
            + f" -> {self.x.name} = {self.y.name}"
        )

    @property
    def universals(self) -> tuple[Variable, ...]:
        if self._universals is None:
            self._universals = _first_occurrence_vars(self.body)
        return self._universals


Rule = Union[TGD, EGD]


def _first_occurrence_vars(atoms: Sequence[Atom]) -> tuple[Variable, ...]:
    seen: dict[Variable, None] = {}
    for atom in atoms:
        for v in atom.variables():
            seen.setdefault(v, None)
    return tuple(seen)


def _variable_names(rules: Sequence[Rule]) -> set[str]:
    """The names of the rules' variables, existentials included."""
    names = {v.name for r in rules if type(r) is TGD for v in r.existentials}
    for r in rules:
        for atom in (*r.body, *r.head) if type(r) is TGD else r.body:
            names.update(v.name for v in atom.variables())
    return names


class RuleSet:
    """An ordered collection of rules.

    Construction renames existential variables apart, so no existential
    name occurs in more than one rule.  Renamed variables keep their stem
    and gain a `__k` suffix; freshness is checked against every variable
    of the rule set, so user variables that happen to contain `__` can
    never be captured.
    """

    __slots__ = ("rules", "_predicates")

    def __init__(self, rules: Iterable[Rule]):
        rules = list(rules)
        # Built at the first clash, which most sets never have.
        all_names: Optional[set[str]] = None
        seen: set[str] = set()
        out: list[Rule] = []
        for r in rules:
            if type(r) is TGD and any(v.name in seen for v in r.existentials):
                if all_names is None:
                    all_names = _variable_names(rules)
                ren: dict[Variable, Term] = {}
                for v in r.existentials:
                    if v.name in seen:
                        k = 2
                        while f"{v.name}__{k}" in all_names:
                            k += 1
                        fresh = f"{v.name}__{k}"
                        all_names.add(fresh)
                        ren[v] = Variable(fresh)
                new_ex = tuple(ren.get(v, v) for v in r.existentials)
                new_head = tuple(apply_syntactic_partial(a, ren) for a in r.head)
                r = TGD(r.body, new_ex, new_head)
            if type(r) is TGD:
                seen.update(v.name for v in r.existentials)
            out.append(r)
        self.rules = tuple(out)
        self._predicates = None

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __getitem__(self, i: int) -> Rule:
        return self.rules[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RuleSet) and other.rules == self.rules

    def __hash__(self) -> int:
        return hash(self.rules)

    def predicates(self) -> tuple[Predicate, ...]:
        """Predicates occurring in rule atoms, in first-occurrence order.
        Equality never appears here; the reserved `eq` predicate does when
        a rule set mentions it."""
        if self._predicates is None:
            seen: dict[Predicate, None] = {}
            for r in self.rules:
                for atom in r.body:
                    seen.setdefault(atom.predicate, None)
                if type(r) is TGD:
                    for atom in r.head:
                        seen.setdefault(atom.predicate, None)
            self._predicates = tuple(seen)
        return self._predicates

    def tgds(self) -> list[TGD]:
        return [r for r in self.rules if type(r) is TGD]

    def egds(self) -> list[EGD]:
        return [r for r in self.rules if type(r) is EGD]


def apply_syntactic_partial(atom: Atom, subst: Mapping[Variable, Term]) -> Atom:
    """Like apply_syntactic but leaves unbound variables in place."""
    return Atom(atom.predicate, [_substitute(a, subst, False) for a in atom.args])


@dataclass(frozen=True)
class Ontology:
    rules: RuleSet
    facts: tuple[Atom, ...]

    def __init__(self, rules: RuleSet, facts: Iterable[Atom]):
        deduped: dict[Atom, None] = {}
        for f in facts:
            deduped.setdefault(f, None)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "facts", tuple(deduped))


@dataclass(frozen=True)
class BCQ:
    """A Boolean conjunctive query: an existentially closed conjunction."""

    variables: tuple[Variable, ...]
    body: tuple[Atom, ...]

    def __init__(self, variables: Iterable[Variable], body: Iterable[Atom]):
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "body", tuple(body))

    def __str__(self) -> str:
        ex = ""
        if self.variables:
            ex = "exists " + ", ".join(v.name for v in self.variables) + " . "
        return "? " + ex + ", ".join(str(a) for a in self.body)


# ---------------------------------------------------------------------------
# Skolemisation


@dataclass(frozen=True)
class SkolemisedTGD:
    """The head of a TGD whose existentials have been replaced by
    functional terms over the rule's universal variables, and the Skolem
    symbols of those terms."""

    head: tuple[Atom, ...]
    symbols: tuple[SkolemSymbol, ...]


def skolem_symbols(rule: TGD) -> tuple[SkolemSymbol, ...]:
    """The Skolem symbol of each existential variable w of the rule, in
    order: f_w, of the arity of the rule's universal variables."""
    n = len(rule.universals)
    return tuple(SkolemSymbol(f"f_{w.name}", n) for w in rule.existentials)


def skolemise(rule: TGD) -> SkolemisedTGD:
    """Replace each existential variable w by f_w(x1..xn) over the rule's
    universal variables in first-occurrence order.

    Skolemising an already-skolemised rule is a type error by design:
    SkolemisedTGD is not accepted here.
    """
    if type(rule) is not TGD:
        raise TypeError(f"can only skolemise a TGD, got {type(rule).__name__}")
    univ = rule.universals
    symbols = skolem_symbols(rule)
    mapping = {w: Functional(sym, univ) for w, sym in zip(rule.existentials, symbols)}
    head = tuple(apply_syntactic_partial(a, mapping) for a in rule.head)
    return SkolemisedTGD(head, symbols)


# ---------------------------------------------------------------------------
# Atom sets


class AtomSet:
    """The working state of a saturation: a set of atoms with a
    per-predicate index, a first-argument index and a lazy index on the
    other argument positions.

    Every atom carries a rank, an integer that orders the set: iteration
    order is rank order, and so is the order of every `bucket`,
    `arg0_bucket` and `arg_bucket` list.  A lookup returns the index's
    own list, so do not mutate it, and read it again after any change:
    a change may replace a list rather than update it.  `add` gives a
    new atom a rank above every other.  `rewrite_in_place` gives each
    image the least rank among its preimages and the atom it may equal
    already, so an image reuses a rank.  A rewrite touches only the atoms
    that hold a rewritten term; it finds them through an index from each
    term to the atoms holding it as an argument, which the first rewrite
    builds, so a set that is never rewritten does not pay for it.  An
    image takes its preimage's slot in every argument list whose key it
    keeps.  The predicate buckets, the long lists, are not updated by a
    rewrite: each predicate it touched goes stale, and its bucket is
    re-sorted from the set on its next read.  The first-argument index
    stays eager.  The index behind `arg_bucket`, from (predicate,
    position, term) to the atoms holding the term at that position, is
    built for one (predicate, position) on its first lookup and kept up
    to date from then on; positions never looked up cost nothing.
    Mutation is confined to those two methods, which keeps every run
    deterministic.
    """

    __slots__ = ("_atoms", "_buckets", "_arg0", "_pos", "_next_rank", "_occ", "_in_order", "_stale")

    def __init__(self, atoms: Iterable[Atom] = ()):
        self._atoms: dict[Atom, int] = {}
        self._buckets: dict[Predicate, list[Atom]] = {}
        self._arg0: dict[tuple[Predicate, Term], list[Atom]] = {}
        # predicate -> position -> term -> atoms, for the positions looked up.
        self._pos: dict[Predicate, dict[int, dict[Term, list[Atom]]]] = {}
        self._next_rank = 0
        # term -> the atoms holding it as an argument; None until a rewrite.
        self._occ: Optional[dict[Term, set[Atom]]] = None
        # Whether `_atoms` iterates in rank order; a rewrite can break it.
        self._in_order = True
        # The predicates whose bucket a rewrite left out of date.
        self._stale: set[Predicate] = set()
        for a in atoms:
            self.add(a)

    def add(self, atom: Atom) -> bool:
        if atom in self._atoms:
            return False
        self._atoms[atom] = self._next_rank
        self._next_rank += 1
        p = atom.predicate
        if p not in self._stale:
            self._buckets.setdefault(p, []).append(atom)
        self._arg0.setdefault((p, atom.args[0]), []).append(atom)
        positions = self._pos.get(p) if self._pos else None
        if positions:
            for i, index in positions.items():
                index.setdefault(atom.args[i], []).append(atom)
        if self._occ is not None:
            self._index(atom)
        return True

    @property
    def rank(self) -> Callable[[Atom], int]:
        """The function from an atom to its position in the set's order
        (KeyError if absent), valid until the set changes."""
        return self._atoms.__getitem__

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._atoms

    def __iter__(self) -> Iterator[Atom]:
        if not self._in_order:
            self._atoms = dict(sorted(self._atoms.items(), key=itemgetter(1)))
            self._in_order = True
        return iter(self._atoms)

    def __len__(self) -> int:
        return len(self._atoms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AtomSet):
            return self._atoms.keys() == other._atoms.keys()
        if isinstance(other, (set, frozenset)):
            return set(self._atoms) == other
        return NotImplemented

    def __repr__(self) -> str:
        return "{" + ", ".join(str(a) for a in self.sorted_atoms()) + "}"

    def bucket(self, predicate: Predicate) -> Sequence[Atom]:
        """Atoms of the predicate."""
        return self._bucket(predicate)

    def arg0_bucket(self, predicate: Predicate, first: Term) -> Sequence[Atom]:
        """Atoms of the predicate whose first argument is `first`."""
        return self._arg0.get((predicate, first), ())

    def arg_bucket(self, predicate: Predicate, pos: int, term: Term) -> Sequence[Atom]:
        """Atoms of the predicate that hold `term` at argument `pos`."""
        positions = self._pos.setdefault(predicate, {})
        index = positions.get(pos)
        if index is None:
            index = positions[pos] = {}
            for atom in self._bucket(predicate):
                index.setdefault(atom.args[pos], []).append(atom)
        return index.get(term, ())

    def bucket_size(self, predicate: Predicate) -> int:
        return len(self._bucket(predicate))

    def _bucket(self, predicate: Predicate) -> Sequence[Atom]:
        """The predicate's bucket, first re-sorted from the set if stale."""
        if predicate in self._stale:
            self._stale.discard(predicate)
            ranks = self._atoms
            self._buckets[predicate] = sorted([a for a in ranks if a.predicate is predicate],
                                              key=ranks.__getitem__)
        return self._buckets.get(predicate, ())

    def rewrite_in_place(self, m: Mapping[Term, Term]) -> list[Atom]:
        """Argument-level rewriting of the set, with the result of a sweep
        over the whole set in rank order where the first image wins and
        keeps the rank of that preimage.

        No value of `m` may also be a key of `m` (ValueError); a pair
        `t: t` is ignored.  So an image holds no key and equals no
        preimage, and the atoms holding a key are relinked in one pass in
        rank order: a new image takes its preimage's rank and slot, an
        image equal to a higher-ranked atom moves that atom down to the
        preimage's rank and slot, and any other image is dropped.
        Returns, in rank order, the atoms whose rank is new or changed.
        """
        m = {t: u for t, u in m.items() if t is not u}
        if any(u in m for u in m.values()):
            raise ValueError("rewrite_in_place: a value of the map is also one of its keys")
        ranks = self._atoms
        occ = self._occ
        if occ is None:
            occ = self._occ = {}
            for atom in ranks:
                self._index(atom)
        hit: set[Atom] = set()
        for t in m:
            hit.update(occ.pop(t, ()))
        changed = []
        for r, a in sorted([(ranks[a], a) for a in hit]):
            img = _map_atom(a, m)
            old = ranks.get(img)
            if old is not None and old < r:
                img = None
            self._relink(a, r, img, old)
            del ranks[a]
            for t in a.args:
                held = occ.get(t)
                if held is not None:
                    held.discard(a)
            if img is not None:
                ranks[img] = r
                if old is None:
                    self._index(img)
                changed.append(img)
        self._stale.update(a.predicate for a in hit)
        if changed:
            self._in_order = False
        return changed

    def _index(self, atom: Atom) -> None:
        for t in atom.args:
            self._occ.setdefault(t, set()).add(atom)

    def _relink(self, atom: Atom, r: int, image: Optional[Atom], old: Optional[int]) -> None:
        """Put `image` in the slot of `atom`, of rank `r`, in every argument
        list, taking it out of its own slot at rank `old` if the set holds
        it already; with no image, unlink `atom`.  Ranks change after this."""
        rank = self._atoms.__getitem__
        p = atom.predicate
        lists = [(self._arg0, (p, atom.args[0]), image and (p, image.args[0]))]
        positions = self._pos.get(p)
        if positions:
            lists += [(index, atom.args[i], image and image.args[i]) for i, index in positions.items()]
        for index, k, k2 in lists:
            atoms = index[k]
            j = bisect_left(atoms, r, key=rank)
            if k2 == k:
                if old is not None:
                    del atoms[bisect_left(atoms, old, j + 1, key=rank)]
                atoms[j] = image
                continue
            del atoms[j]
            if not atoms:
                del index[k]
            if image is not None:
                atoms = index.setdefault(k2, [])
                if old is not None:
                    del atoms[bisect_left(atoms, old, key=rank)]
                atoms.insert(bisect_left(atoms, r, key=rank), image)

    def copy(self) -> "AtomSet":
        return AtomSet(self)

    def sorted_atoms(self) -> list[Atom]:
        return sorted(self, key=lambda a: a.sort_key)

    def terms(self) -> Iterator[Term]:
        """Distinct argument terms in first-occurrence order."""
        seen: dict[Term, None] = {}
        for atom in self:
            for t in atom.args:
                if t not in seen:
                    seen[t] = None
                    yield t

    def max_term_depth(self) -> int:
        best = 0
        for atom in self._atoms:
            for t in atom.args:
                if t.depth > best:
                    best = t.depth
        return best


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.where}: {self.message}"


def _check_rule(r: Rule, where: str, arities: dict[str, int]) -> list[Violation]:
    out = []
    if not r.body:
        out.append(Violation(where, "rule body must be non-empty"))
    atoms = list(r.body) + (list(r.head) if type(r) is TGD else [])
    for atom in atoms:
        p = atom.predicate
        known = arities.setdefault(p.name, p.arity)
        if known != p.arity:
            out.append(Violation(where, f"predicate {p.name!r} used with arities {known} and {p.arity}"))
        for t in atom.args:
            if type(t) is Constant:
                out.append(Violation(where, f"rules must be constant-free (found {t})"))
            elif type(t) is Functional:
                out.append(Violation(where, f"rules must be function-free (found {t})"))
    if type(r) is TGD:
        if not r.head:
            out.append(Violation(where, "rule head must be non-empty"))
        body_vars = set(r.universals)
        ex = set(r.existentials)
        if len(ex) != len(r.existentials):
            out.append(Violation(where, "duplicate existential variable"))
        if ex & body_vars:
            clash = sorted(v.name for v in ex & body_vars)
            out.append(Violation(where, f"existential variables also occur in the body: {clash}"))
        for atom in r.head:
            for v in atom.variables():
                if v not in ex and v not in body_vars:
                    out.append(Violation(where, f"head variable {v.name!r} does not occur in the body"))
    else:
        body_vars = set(r.universals)
        for v in (r.x, r.y):
            if v not in body_vars:
                out.append(Violation(where, f"equated variable {v.name!r} does not occur in the body"))
    return out


def validate_ruleset(rules: RuleSet) -> list[Violation]:
    out: list[Violation] = []
    if not rules.rules:
        out.append(Violation("rules", "rule set must be non-empty"))
    arities: dict[str, int] = {}
    for i, r in enumerate(rules):
        out.extend(_check_rule(r, f"rule {i + 1}", arities))
    return out


def validate(ontology: Ontology) -> list[Violation]:
    """Check every well-formedness assumption; returns violations with
    their locations rather than raising."""
    out = validate_ruleset(ontology.rules)
    known: dict[str, int] = {}
    for p in ontology.rules.predicates():
        known.setdefault(p.name, p.arity)
    for j, fact in enumerate(ontology.facts):
        where = f"fact {j + 1} ({fact})"
        p = fact.predicate
        if p is EQ:
            out.append(Violation(where, f"facts must not use the reserved predicate {RESERVED_EQ_NAME!r}"))
            continue
        if p.name not in known:
            out.append(Violation(where, f"predicate {p.name!r} does not occur in the rule set"))
        elif known[p.name] != p.arity:
            out.append(Violation(where, f"predicate {p.name!r} used with arities {known[p.name]} and {p.arity}"))
        if not fact.is_ground:
            out.append(Violation(where, "facts must be ground"))
        for t in fact.args:
            if type(t) is Functional:
                out.append(Violation(where, "facts must be function-free"))
    return out


def validate_query(q: BCQ, rules: RuleSet = RuleSet(())) -> list[Violation]:
    """The query's violations; its predicates keep their arities in `rules`."""
    out: list[Violation] = []
    if not q.body:
        out.append(Violation("query", "query body must be non-empty"))
    declared = set(q.variables)
    arities = {p.name: p.arity for p in reversed(rules.predicates())}
    for atom in q.body:
        p = atom.predicate
        known = arities.setdefault(p.name, p.arity)
        if known != p.arity:
            out.append(Violation("query", f"predicate {p.name!r} used with arities {known} and {p.arity}"))
        for t in atom.args:
            if type(t) is Constant:
                out.append(Violation("query", f"queries must not contain constants (found {t})"))
            elif type(t) is Functional:
                out.append(Violation("query", f"queries must be function-free (found {t})"))
            elif t not in declared:
                out.append(Violation("query", f"variable {t.name!r} is not quantified"))
    return out
