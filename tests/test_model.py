import copy
import gc
import itertools
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqchase import (
    EQ,
    EGD,
    STAR,
    TGD,
    Atom,
    AtomSet,
    Constant,
    Functional,
    Ontology,
    Predicate,
    RuleSet,
    SkolemSymbol,
    SkolemisedTGD,
    Variable,
    apply_syntactic,
    chase,
    parse,
    skolemise,
    validate,
    validate_ruleset,
)
from eqchase.model import apply_syntactic_partial
from corpus import random_ruleset, random_term
from helpers import apply_term_map
from rulesets import ontology, rules

a, b = Constant("a"), Constant("b")
X, Y, Z, W = Variable("X"), Variable("Y"), Variable("Z"), Variable("W")
f = SkolemSymbol("f", 1)
g = SkolemSymbol("g", 1)
g2 = SkolemSymbol("g", 2)
P1 = Predicate("P", 1)
R2 = Predicate("R", 2)


def test_depth_base_cases():
    assert a.depth == 1
    assert X.depth == 1


def test_depth_functional():
    assert Functional(f, [a]).depth == 2
    # max of argument depths plus one
    assert Functional(g2, [a, Functional(f, [b])]).depth == 3


def _universe_depth3():
    """All terms of depth <= 3 over two constants and two unary symbols."""
    level1 = [a, b]
    level2 = [Functional(s, [t]) for s in (f, g) for t in level1]
    level3 = [Functional(s, [t]) for s in (f, g) for t in level2]
    return level1 + level2 + level3


def test_term_order_is_strict_and_total():
    universe = _universe_depth3()
    for t, u in itertools.product(universe, universe):
        lt, gt = t.order_key < u.order_key, u.order_key < t.order_key
        assert not (lt and gt)
        assert (lt or gt) == (t != u)
        if t.depth < u.depth:
            assert lt


def test_term_order_transitive():
    universe = _universe_depth3()
    for t, u, v in itertools.product(universe, repeat=3):
        if t.order_key <= u.order_key and u.order_key <= v.order_key:
            assert t.order_key <= v.order_key


def test_term_order_examples():
    assert a.order_key < Functional(f, [a]).order_key
    assert a.order_key == Constant("a").order_key
    assert a.order_key != b.order_key
    assert (a.order_key < b.order_key) != (b.order_key < a.order_key)


def _cyclic_oracle(t) -> bool:
    """Brute-force scan: does any root-to-node path repeat a symbol name?"""
    def paths(term, prefix):
        if type(term) is not Functional:
            return False
        if term.fn.name in prefix:
            return True
        return any(paths(u, prefix + [term.fn.name]) for u in term.args)

    return paths(t, [])


def test_is_cyclic_examples():
    assert Functional(f, [Functional(f, [STAR])]).cyclic
    assert not Functional(f, [Functional(g, [STAR])]).cyclic
    t = Functional(g2, [Functional(f, [a]), Functional(f, [Functional(g, [a])])])
    assert _cyclic_oracle(t)
    assert t.cyclic


def test_is_cyclic_matches_oracle_on_random_terms():
    rng = random.Random(7)
    syms = [f, g, g2, SkolemSymbol("h", 1)]
    for _ in range(500):
        t = random_term(rng, syms, max_depth=5)
        assert t.cyclic == _cyclic_oracle(t)


def test_is_cyclic_monotone_under_embedding():
    rng = random.Random(8)
    syms = [f, g, g2]
    for _ in range(200):
        t = random_term(rng, syms, max_depth=4)
        if t.cyclic:
            assert Functional(g2, [t, a]).cyclic
            assert Functional(SkolemSymbol("fresh", 1), [t]).cyclic


def test_apply_term_map_argument_level_only():
    t = a
    u = b
    atom = Atom(R2, [t, Functional(f, [t])])
    assert apply_term_map(atom, {t: u}) == Atom(R2, [u, Functional(f, [t])])


def test_apply_term_map_identity_and_set_dedup():
    assert apply_term_map(Atom(P1, [a]), {}) == Atom(P1, [a])
    s = AtomSet([Atom(R2, [a, b]), Atom(R2, [b, a])])
    assert apply_term_map(s, {b: a}) == {Atom(R2, [a, a])}


def test_apply_term_map_never_touches_nested_subterms():
    rng = random.Random(9)
    syms = [f, g, g2]
    for _ in range(300):
        t = random_term(rng, syms, max_depth=3)
        v = Functional(g, [t])  # t strictly inside v
        atom = Atom(P1, [v])
        assert apply_term_map(atom, {t: b}) == atom


def test_apply_syntactic_descends_into_skolem_terms():
    head = Atom(R2, [X, Functional(SkolemSymbol("f_W", 1), [X])])
    assert apply_syntactic(head, {X: a}) == Atom(R2, [a, Functional(SkolemSymbol("f_W", 1), [a])])
    inner = Functional(SkolemSymbol("f_V", 1), [a])
    out = apply_syntactic(Atom(P1, [Functional(SkolemSymbol("f_W", 1), [X])]), {X: inner})
    assert out == Atom(P1, [Functional(SkolemSymbol("f_W", 1), [inner])])


def test_apply_syntactic_on_rule7_head():
    (rule7, _) = rules("thm2")
    sk = skolemise(rule7)
    ground = [apply_syntactic(atom, {X: a}) for atom in sk.head]
    fw = SkolemSymbol("f_W", 1)
    assert ground == [Atom(Predicate("R", 2), [a, Functional(fw, [a])]),
                      Atom(Predicate("B", 1), [Functional(fw, [a])])]


def test_apply_syntactic_unbound_variable():
    with pytest.raises(ValueError):
        apply_syntactic(Atom(P1, [X]), {})


def test_skolemise_shapes():
    (rule7, _) = rules("thm2")
    sk = skolemise(rule7)
    assert sk.symbols[0].name == "f_W"
    assert sk.symbols[0].arity == 1
    # a TGD without existentials keeps its head
    plain = TGD([Atom(P1, [X])], (), [Atom(R2, [X, X])])
    assert skolemise(plain).head == plain.head
    # arity tracks the universal variable list
    wide = TGD([Atom(R2, [X, Y])], (W,), [Atom(R2, [X, W])])
    assert skolemise(wide).symbols[0].arity == 2


def test_skolemise_distinct_symbols_for_distinct_existentials():
    r1 = TGD([Atom(P1, [X])], (Variable("V"),), [Atom(R2, [X, Variable("V")])])
    r2 = TGD([Atom(P1, [X])], (W,), [Atom(R2, [X, W])])
    sk = [skolemise(r) for r in RuleSet([r1, r2])]
    syms = {s for r in sk for s in r.symbols}
    assert len(syms) == 2


def test_skolemise_rejects_already_skolemised():
    (rule7, _) = rules("thm2")
    sk = skolemise(rule7)
    assert isinstance(sk, SkolemisedTGD)
    with pytest.raises(TypeError):
        skolemise(sk)


def test_ruleset_renames_shared_existentials_apart():
    r1 = TGD([Atom(P1, [X])], (W,), [Atom(R2, [X, W])])
    r2 = TGD([Atom(R2, [X, Y])], (W,), [Atom(P1, [W])])
    rs = RuleSet([r1, r2])
    names = [v.name for r in rs for v in r.existentials]
    assert names[0] == "W" and names[1] != "W"
    assert not validate_ruleset(rs)
    # deterministic
    assert [v.name for r in RuleSet([r1, r2]) for v in r.existentials] == names


def test_validate_theorem2_ontology_clean():
    assert validate(ontology("thm2", "A(a) .\nR(a,a) .")) == []


def test_validate_flags_equality_in_facts():
    o = Ontology(rules("thm2"), (Atom(EQ, [a, a]),))
    assert any("reserved" in v.message for v in validate(o))


def test_a_python_built_eq_is_the_parsed_eq():
    """`Predicate("eq", 2)` is `EQ`: a rule set built with it validates
    clean and chases to the atoms of its parsed text."""
    eq = Predicate("eq", 2)
    assert eq is EQ
    A, B, C = Predicate("A", 1), Predicate("B", 1), Predicate("C", 1)
    built = Ontology(RuleSet([
        TGD([Atom(A, [X])], (W,), [Atom(eq, [X, W]), Atom(B, [W])]),
        TGD([Atom(eq, [X, Y]), Atom(B, [Y])], (), [Atom(C, [X])]),
    ]), (Atom(A, [a]),))
    program = parse("A(X) -> exists W . eq(X,W), B(W) .\n"
                    "eq(X,Y), B(Y) -> C(X) .\n"
                    "A(a) .\n")
    parsed = Ontology(program.rules, program.facts)
    assert validate(built) == [] == validate(parsed)
    atoms = chase(built).result.sorted_atoms()
    assert atoms == chase(parsed).result.sorted_atoms()
    assert [str(x) for x in atoms] == ["A(a)", "B(f_W(a))", "C(a)", "eq(a,f_W(a))"]


def test_validate_flags_constants_in_rules():
    bad = TGD([Atom(P1, [Constant("c")])], (), [Atom(P1, [Constant("c")])])
    out = validate_ruleset(RuleSet([bad]))
    assert any("constant-free" in v.message for v in out)


def test_validate_flags_unsafe_rules():
    dangling_head = TGD([Atom(P1, [X])], (), [Atom(R2, [X, Y])])
    out = validate_ruleset(RuleSet([dangling_head]))
    assert any("does not occur in the body" in v.message for v in out)
    loose_egd = EGD([Atom(P1, [X])], X, Y)
    out = validate_ruleset(RuleSet([loose_egd]))
    assert any("does not occur in the body" in v.message for v in out)


def test_validate_flags_unknown_fact_predicate_and_arity():
    o = Ontology(rules("thm2"), (Atom(Predicate("Unknown", 1), [a]),))
    assert any("does not occur" in v.message for v in validate(o))
    o = Ontology(rules("thm2"), (Atom(Predicate("A", 2), [a, b]),))
    assert any("arities" in v.message for v in validate(o))


def test_validate_ruleset_accepts_existentials_renamed_apart():
    r1 = TGD([Atom(P1, [X])], (W,), [Atom(R2, [X, W])])
    r2 = TGD([Atom(P1, [X])], (W,), [Atom(R2, [W, X])])
    rs = RuleSet([r1, r2])
    assert [v.name for r in rs for v in r.existentials] == ["W", "W__2"]
    assert validate_ruleset(rs) == []


def test_facts_are_checked_against_the_first_arity_the_rules_use():
    p1, p2 = Predicate("P", 1), Predicate("P", 2)
    rs = RuleSet([TGD([Atom(p1, [X])], (), [Atom(R2, [X, X])]),
                  TGD([Atom(p2, [X, Y])], (), [Atom(R2, [X, Y])])])
    clash = [str(v) for v in validate_ruleset(rs)]
    assert clash == ["rule 2: predicate 'P' used with arities 1 and 2"]
    assert [str(v) for v in validate(Ontology(rs, (Atom(p1, [a]),)))] == clash
    assert [str(v) for v in validate(Ontology(rs, (Atom(p2, [a, b]),)))] == clash + [
        "fact 1 (P(a,b)): predicate 'P' used with arities 1 and 2"]


def test_validate_flags_empty_ruleset():
    assert any("non-empty" in v.message for v in validate_ruleset(RuleSet([])))


def test_atomset_ordering_and_terms():
    s = AtomSet([Atom(R2, [b, a]), Atom(P1, [a])])
    assert list(s.terms()) == [b, a]
    assert s.sorted_atoms() == [Atom(P1, [a]), Atom(R2, [b, a])]
    s.rewrite_in_place({b: a})
    assert s == {Atom(R2, [a, a]), Atom(P1, [a])}


class _SweepReference:
    """The rewrite as a sweep over the whole set in rank order, where the
    first image wins and keeps the rank of its preimage."""

    def __init__(self):
        self.ranks = {}
        self.next_rank = 0

    def add(self, atom):
        if atom in self.ranks:
            return False
        self.ranks[atom] = self.next_rank
        self.next_rank += 1
        return True

    def rewrite(self, m):
        out = {}
        for atom, r in sorted(self.ranks.items(), key=lambda item: item[1]):
            out.setdefault(Atom(atom.predicate, [m.get(t, t) for t in atom.args]), r)
        changed = [img for img, r in out.items() if self.ranks.get(img) != r]
        self.ranks = out
        return changed

    def order(self):
        return sorted(self.ranks, key=self.ranks.__getitem__)


c, d = Constant("c"), Constant("d")
_TERMS = [a, b, c, d, Functional(f, [a])]
S3 = Predicate("S", 3)
_PREDS = [P1, R2, S3]
_POSITIONS = [(p, i) for p in _PREDS for i in range(p.arity)]


@st.composite
def _map(draw):
    """A map of one or two pairs whose values are not keys."""
    keys = draw(st.lists(st.sampled_from(_TERMS), min_size=1, max_size=2, unique=True))
    values = st.sampled_from([t for t in _TERMS if t not in keys])
    return {t: draw(values) for t in keys}


_op = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(_PREDS), st.lists(st.sampled_from(_TERMS), min_size=3, max_size=3)),
    st.tuples(st.just("rewrite"), st.sampled_from(_TERMS), st.sampled_from(_TERMS)).map(
        lambda op: ("rewrite", {op[1]: op[2]})),
    st.tuples(st.just("rewrite"), _map()),
    st.tuples(st.just("read"), st.sampled_from(_PREDS)),
)


def _run_ops(ops, built=()):
    """Run the ops on an `AtomSet` and on the sweep reference, checking
    after each op the order, the ranks and every index lookup but the
    bucket, which is read at a "read" op and at the end.  The position
    indexes of `built` are built before any op; the others are first
    read after the first rewrite."""
    s, ref = AtomSet(), _SweepReference()
    for p, i in built:
        s.arg_bucket(p, i, a)
    rewritten = False

    def check_buckets(preds, order):
        for p in preds:
            expected = [atom for atom in order if atom.predicate == p]
            assert list(s.bucket(p)) == expected
            assert s.bucket_size(p) == len(expected)

    for op in ops:
        if op[0] == "add":
            atom = Atom(op[1], op[2][: op[1].arity])
            assert s.add(atom) == ref.add(atom)
        elif op[0] == "rewrite":
            assert s.rewrite_in_place(op[1]) == ref.rewrite(op[1])
            rewritten = True
        order = ref.order()
        if op[0] == "read":
            check_buckets([op[1]], order)
        assert list(s) == order
        assert [s.rank(atom) for atom in order] == [ref.ranks[atom] for atom in order]
        at = {}
        for atom in order:
            for i, t in enumerate(atom.args):
                at.setdefault((atom.predicate, i, t), []).append(atom)
        for p, i in _POSITIONS:
            if rewritten or (p, i) in built:
                for t in _TERMS:
                    assert list(s.arg_bucket(p, i, t)) == at.get((p, i, t), [])
        for p in _PREDS:
            for t in _TERMS:
                assert list(s.arg0_bucket(p, t)) == at.get((p, 0, t), [])
    check_buckets(_PREDS, ref.order())
    return s


@settings(max_examples=300, deadline=None)
@given(st.lists(_op, max_size=24), st.sets(st.sampled_from(_POSITIONS)))
# R(a,b) with b -> a: the image's arguments become equal.
@example([("add", R2, [a, b, a]), ("rewrite", {b: a})], set())
# The image collides with an existing atom of higher rank, which moves down.
@example([("add", R2, [b, c, a]), ("add", R2, [a, c, a]), ("rewrite", {b: a})], {(R2, 1)})
# The image collides with an existing atom of lower rank and is dropped.
@example([("add", R2, [a, c, a]), ("add", R2, [b, c, a]), ("rewrite", {b: a})], {(R2, 0)})
# A rewritten first argument, then adds that must land after the images.
@example([("add", R2, [c, a, a]), ("add", P1, [d, a, a]), ("add", R2, [d, b, a]),
          ("rewrite", {d: c}), ("add", R2, [c, c, a]), ("rewrite", {c: a})], set())
# A bucket is read, its predicate is rewritten twice, an atom is added to
# the stale bucket, and the bucket is read again.
@example([("add", R2, [a, b, a]), ("add", R2, [c, d, a]), ("add", R2, [b, d, a]), ("read", R2),
          ("rewrite", {a: c, b: d}), ("rewrite", {d: a}), ("add", R2, [b, b, a]), ("read", R2)],
         {(R2, 0), (R2, 1)})
# A stale predicate is first read by the lazy build of a position index.
@example([("add", S3, [a, b, c]), ("add", S3, [c, b, a]), ("add", S3, [b, b, b]),
          ("rewrite", {c: a})], {(R2, 1)})
def test_incremental_rewrite_matches_the_whole_set_sweep(ops, built):
    _run_ops(ops, built)


def test_rewrite_rejects_a_map_whose_value_is_a_key():
    s = AtomSet([Atom(R2, [a, b]), Atom(R2, [b, c])])
    with pytest.raises(ValueError, match="also one of its keys"):
        s.rewrite_in_place({a: b, b: c})
    assert list(s) == [Atom(R2, [a, b]), Atom(R2, [b, c])]
    # A pair t: t is ignored.
    assert s.rewrite_in_place({a: a, c: a}) == [Atom(R2, [b, a])]


def test_rewrite_reports_new_and_reranked_atoms():
    s = _run_ops([("add", R2, [a, c, a]), ("add", R2, [b, c, a]), ("add", P1, [b, a, a]),
                  ("add", R2, [a, b, a]), ("add", R2, [c, a, a])])
    # R(b,c) collides with the older R(a,c) and is dropped; P(b) becomes
    # P(a) at rank 2; R(a,b) becomes R(a,a) at rank 3.
    assert s.rewrite_in_place({b: a}) == [Atom(P1, [a]), Atom(R2, [a, a])]
    assert [s.rank(x) for x in s] == [0, 2, 3, 4]



def test_ruleset_renames_past_a_user_name_of_the_fresh_form():
    w2, s2 = Variable("W__2"), Predicate("S", 2)
    r1 = TGD([Atom(P1, [X])], (W,), [Atom(R2, [X, W])])
    r2 = TGD([Atom(Predicate("B", 1), [w2])], (W,), [Atom(s2, [w2, W])])
    rs = RuleSet([r1, r2])
    assert [v.name for r in rs for v in r.existentials] == ["W", "W__3"]
    assert rs[1].head == (Atom(s2, [w2, Variable("W__3")]),)


def _renamed_apart_eagerly(rules):
    """The renaming of `RuleSet`, with the set of names built up front."""
    names = {v.name for r in rules if type(r) is TGD for v in r.existentials}
    for r in rules:
        for atom in (*r.body, *(r.head if type(r) is TGD else ())):
            names.update(v.name for v in atom.variables())
    seen, out = set(), []
    for r in rules:
        if type(r) is TGD:
            ren = {}
            for v in r.existentials:
                if v.name in seen:
                    k = 2
                    while f"{v.name}__{k}" in names:
                        k += 1
                    names.add(f"{v.name}__{k}")
                    ren[v] = Variable(f"{v.name}__{k}")
            if ren:
                r = TGD(r.body, [ren.get(v, v) for v in r.existentials],
                        [apply_syntactic_partial(a, ren) for a in r.head])
            seen.update(v.name for v in r.existentials)
        out.append(r)
    return tuple(out)


def test_ruleset_renaming_matches_an_eager_name_walk():
    # Each random set names its existentials W1, W2, ..., so joining two
    # of them repeats names.
    rng = random.Random(12)
    clashes = 0
    for _ in range(300):
        rules = [*random_ruleset(rng), *random_ruleset(rng)]
        rs = RuleSet(rules)
        assert rs.rules == _renamed_apart_eagerly(rules)
        clashes += rs.rules != tuple(rules)
    assert clashes > 50


def test_str_renders_a_term_deeper_than_the_recursion_limit():
    t = a
    for _ in range(5000):
        t = Functional(g2, (t, b))
    assert t.depth == 5001
    assert str(t) == "g(" * 5000 + "a" + ",b)" * 5000
    assert str(Atom(R2, [t, Functional(f, [X])])) == f"R({t},f(X))"


def _deep(symbol, leaf, depth):
    t = leaf
    for _ in range(depth - 1):
        t = Functional(symbol, (t, b))
    return t


def test_order_key_of_a_term_deeper_than_the_recursion_limit():
    # A symbol of its own, so no subterm's key is cached beforehand.
    t = _deep(SkolemSymbol("deep_key", 2), a, 5001)
    key = t.order_key
    assert key[:3] == (5001, 2, "deep_key") and key[4] == b.order_key
    for _ in range(5000):
        key = key[3]
    assert key == a.order_key


def test_repr_and_variables_of_a_term_deeper_than_the_recursion_limit():
    t = _deep(SkolemSymbol("deep_walk", 2), X, 5001)
    want = "Variable('X')"
    for _ in range(5000):
        want = f"Functional('deep_walk', ({want}, Constant('b')))"
    assert repr(t) == want
    assert list(Atom(R2, [t, Functional(f, [Y])]).variables()) == [X, Y]


def test_substitution_into_a_term_deeper_than_the_recursion_limit():
    t = _deep(SkolemSymbol("f_Y", 2), X, 5001)
    ground = apply_syntactic(Atom(R2, [t, Y]), {X: a, Y: b})
    assert ground.args[1] is b and ground.args[0].depth == 5001
    assert next(ground.variables(), None) is None and str(ground.args[0]).count("a") == 1
    partial = apply_syntactic_partial(Atom(R2, [t, Y]), {Y: a})
    assert partial.args == (t, a)
    assert apply_syntactic_partial(Atom(R2, [t, Y]), {X: a, Y: b}) == ground
    with pytest.raises(ValueError, match="unbound variable 'X'"):
        apply_syntactic(Atom(R2, [t, Y]), {Y: a})


def _reference_substitute(t, subst):
    if type(t) is Variable:
        return subst.get(t, t)
    if type(t) is Functional:
        return Functional(t.fn, [_reference_substitute(u, subst) for u in t.args])
    return t


def test_substitution_matches_a_recursive_reference():
    rng = random.Random(14)
    symbols = [SkolemSymbol("sub_f", 1), SkolemSymbol("sub_g", 2)]

    def term(depth):
        if depth <= 1 or rng.random() < 0.3:
            return rng.choice([a, b, X, Y, Z])
        fn = rng.choice(symbols)
        return Functional(fn, [term(depth - 1) for _ in range(fn.arity)])

    for _ in range(300):
        t = term(6)
        subst = dict(rng.sample([(X, a), (Y, Functional(f, [b])), (Z, W)], rng.randint(0, 3)))
        want = _reference_substitute(t, subst)
        assert apply_syntactic_partial(Atom(P1, [t]), subst).args == (want,)
        if not (set(Atom(P1, [t]).variables()) - set(subst)):
            assert apply_syntactic(Atom(P1, [t]), subst).args == (want,)


def test_pickle_and_copies_of_a_term_deeper_than_the_recursion_limit():
    t = _deep(SkolemSymbol("f_Y", 2), a, 5001)
    for back in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
        assert back is t
    # Loaded after the term is gone, it is built again, equal in shape.
    text, data = str(t), pickle.dumps(t)
    del t, back
    gc.collect()
    t = pickle.loads(data)
    assert t.depth == 5001 and str(t) == text
    # A subterm that occurs many times is written once.
    shared = a
    for _ in range(40):
        shared = Functional(g2, (shared, shared))
    assert len(pickle.dumps(shared)) < 2000
    assert pickle.loads(pickle.dumps(shared)) is shared


def _reference_key(t):
    if type(t) is Functional:
        return (t.depth, 2, t.fn.name) + tuple(_reference_key(a) for a in t.args)
    return t.order_key


def test_order_key_matches_a_recursive_reference():
    rng = random.Random(13)
    symbols = [SkolemSymbol("ref_f", 1), SkolemSymbol("ref_g", 2), SkolemSymbol("ref_h", 3)]
    for _ in range(300):
        t = random_term(rng, symbols, 7)
        assert t.order_key == _reference_key(t)
