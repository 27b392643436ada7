import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqchase import (
    EGD,
    TGD,
    Atom,
    AtomSet,
    BCQ,
    ChaseLimits,
    Constant,
    Entailed,
    Functional,
    InvalidInputError,
    LimitExceeded,
    NotEntailed,
    Ontology,
    Predicate,
    RuleSet,
    SkolemSymbol,
    Terminated,
    Unknown,
    Variable,
    apply,
    chase,
    entails,
    find_applicable,
    homomorphism,
    is_applicable,
    match_conjunction,
    parse,
    satisfies,
    standard_axiomatisation,
)
from corpus import random_facts, random_ontology, random_ruleset
from perfbench_loader import load_workloads
from rulesets import facts, ontology, query, rules

a, b = Constant("a"), Constant("b")
X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
A1, B1, R2 = Predicate("A", 1), Predicate("B", 1), Predicate("R", 2)
FW = SkolemSymbol("f_W", 1)
fw_a = Functional(FW, [a])

RULE7, RULE8 = rules("thm2")


def test_is_applicable_egd_trivial_equality():
    aset = AtomSet([Atom(R2, [a, a])])
    assert not is_applicable(RULE8, {X: a, Y: a, Z: a}, aset)


def test_is_applicable_tgd_open_head():
    assert is_applicable(RULE7, {X: a}, AtomSet([Atom(A1, [a])]))


def test_is_applicable_tgd_blocked_head():
    aset = AtomSet([Atom(A1, [a]), Atom(R2, [a, b]), Atom(B1, [b])])
    assert not is_applicable(RULE7, {X: a}, aset)


def test_is_applicable_domain_mismatch():
    with pytest.raises(ValueError):
        is_applicable(RULE7, {}, AtomSet([Atom(A1, [a])]))
    with pytest.raises(ValueError):
        is_applicable(RULE7, {X: a, Variable("W"): a}, AtomSet([Atom(A1, [a])]))


def test_apply_tgd_adds_skolemised_head():
    out = apply(RULE7, {X: a}, AtomSet([Atom(A1, [a])]))
    assert out == {Atom(A1, [a]), Atom(R2, [a, fw_a]), Atom(B1, [fw_a])}


def test_apply_egd_merges_deeper_into_shallower():
    rule = EGD([Atom(R2, [X, Y])], X, Y)
    aset = AtomSet([Atom(R2, [a, fw_a]), Atom(B1, [fw_a])])
    out = apply(rule, {X: a, Y: fw_a}, aset)
    assert out == {Atom(R2, [a, a]), Atom(B1, [a])}


def test_apply_egd_equal_depth_deterministic():
    rule = EGD([Atom(R2, [X, Y])], X, Y)
    aset = AtomSet([Atom(R2, [a, b])])
    out = apply(rule, {X: a, Y: b}, aset)
    # the tie-break must eliminate exactly one of the two constants
    assert out in ({Atom(R2, [a, a])}, {Atom(R2, [b, b])})
    again = apply(rule, {X: a, Y: b}, AtomSet([Atom(R2, [a, b])]))
    assert out == again


def test_apply_requires_applicability():
    with pytest.raises(ValueError):
        apply(RULE8, {X: a, Y: a, Z: a}, AtomSet([Atom(R2, [a, a])]))


def test_find_applicable_enumeration():
    rs = rules("thm2")
    only7 = RuleSet([RULE7])
    only8 = RuleSet([RULE8])
    assert len(list(find_applicable(only7, AtomSet([Atom(A1, [a])])))) == 1
    assert list(find_applicable(only8, AtomSet([Atom(A1, [a])]))) == []
    pairs = list(find_applicable(rs, AtomSet([Atom(A1, [a]), Atom(R2, [a, a])])))
    assert [(r, s[X]) for r, s in pairs] == [(RULE7, a)]


def test_chase_example_terminates_with_expected_set():
    out = chase(ontology("thm2", "A(a) ."))
    assert isinstance(out, Terminated)
    assert out.result == {Atom(A1, [a]), Atom(R2, [a, fw_a]), Atom(B1, [fw_a])}


def test_chase_theorem4_all_terms_depth_one():
    out = chase(ontology("thm4", "B(a) .\nC(a) ."))
    assert isinstance(out, Terminated)
    assert out.result.max_term_depth() == 1


def test_chase_standard_axiomatisation_diverges():
    st = standard_axiomatisation(rules("thm2"))
    o = Ontology(st.rules, facts("A(a) .\nR(a,a) ."))
    for cap in (4, 6, 8):
        out = chase(o, ChaseLimits(max_term_depth=cap, max_steps=500_000))
        assert isinstance(out, LimitExceeded)
        assert out.limit == "max_term_depth"
        assert out.partial.max_term_depth() == cap


def test_chase_rejects_invalid_ontology():
    from eqchase import InvalidInputError

    bad = Ontology(rules("thm2"), (Atom(Predicate("Nope", 1), [a]),))
    with pytest.raises(InvalidInputError):
        chase(bad)


def test_satisfies_examples():
    sat = AtomSet([Atom(A1, [a]), Atom(R2, [a, b]), Atom(B1, [b])])
    assert satisfies(sat, RULE7)
    assert not satisfies(AtomSet([Atom(A1, [a])]), RULE7)
    assert satisfies(AtomSet(), RULE7)
    assert satisfies(AtomSet(), RULE8)


def test_egd_application_eliminates_term_everywhere():
    rule = EGD([Atom(R2, [X, Y])], X, Y)
    aset = AtomSet(
        [Atom(R2, [a, fw_a]), Atom(B1, [fw_a]), Atom(R2, [fw_a, b])]
    )
    out = apply(rule, {X: a, Y: fw_a}, aset)
    assert all(fw_a not in atom.args for atom in out)


def _hom_oracle(body, aset):
    """Exhaustive assignment enumeration over the set's terms."""
    variables = list({v: None for atom in body for v in atom.variables()})
    terms = list(aset.terms())
    for combo in itertools.product(terms, repeat=len(variables)):
        sigma = dict(zip(variables, combo))
        if all(
            Atom(atom.predicate, [sigma[v] for v in atom.args]) in aset
            for atom in body
        ):
            return True
    return False


def test_homomorphism_single_atom_identity():
    aset = AtomSet([Atom(R2, [a, b])])
    w = homomorphism((Atom(R2, [X, Y]),), aset)
    assert w == {X: a, Y: b}


def test_homomorphism_none_on_disjoint_predicates():
    assert homomorphism((Atom(B1, [X]),), AtomSet([Atom(A1, [a])])) is None


def test_homomorphism_matches_exhaustive_oracle():
    rng = random.Random(21)
    preds = [A1, B1, R2]
    terms = [a, b, fw_a, Functional(FW, [b])]
    for _ in range(300):
        aset = AtomSet(
            Atom(p, [rng.choice(terms) for _ in range(p.arity)])
            for p in rng.choices(preds, k=rng.randint(1, 6))
        )
        body = [
            Atom(p, [rng.choice([X, Y, Z]) for _ in range(p.arity)])
            for p in rng.choices(preds, k=rng.randint(1, 3))
        ]
        found = homomorphism(body, aset)
        assert (found is not None) == _hom_oracle(body, aset)
        if found is not None:
            for atom in body:
                assert Atom(atom.predicate, [found[v] for v in atom.args]) in aset


def test_entails_positive_and_negative():
    o = ontology("thm2", "A(a) .")
    assert isinstance(
        entails(o, query("? exists X, Y . R(X,Y), B(Y) .")), Entailed
    )
    assert isinstance(entails(o, query("? exists X . B(X), A(X) .")), NotEntailed)


def test_entails_fact_shape_trivially():
    o = ontology("thm2", "A(a) .\nR(a,a) .")
    assert isinstance(entails(o, query("? exists X, Y . R(X,Y) .")), Entailed)


def test_entails_under_limits():
    st = standard_axiomatisation(rules("thm2"))
    o = Ontology(st.rules, facts("A(a) .\nR(a,a) ."))
    limits = ChaseLimits(max_term_depth=5, max_steps=100_000)
    # the partial state already contains a witness for this query
    assert isinstance(entails(o, query("? exists X, Y . R(X,Y), B(Y) ."), limits), Entailed)
    # no D-atoms ever appear, but the run was truncated, so: unknown
    o2 = Ontology(
        RuleSet(list(st.rules) + list(rules("thm2")[0:0])
                + [TGD([Atom(Predicate("D", 1), [X])], (), [Atom(A1, [X])])]),
        facts("A(a) .\nR(a,a) ."),
    )
    v = entails(o2, query("? exists X . D(X) ."), limits)
    assert isinstance(v, Unknown) and v.limit == "max_term_depth"


def test_terminated_chase_satisfies_every_rule():
    rng = random.Random(5)
    checked = 0
    for _ in range(60):
        o = random_ontology(rng)
        out = chase(o, ChaseLimits(max_steps=3000, max_term_depth=6, max_atoms=4000))
        if isinstance(out, Terminated):
            checked += 1
            for rule in o.rules:
                assert satisfies(out.result, rule)
    assert checked >= 20


def test_fairness_on_terminating_paper_sets():
    for name, ftext in [
        ("thm2", "A(a) .\nR(a,a) ."),
        ("thm2", "A(a) .\nA(b) .\nR(a,b) ."),
        ("thm4", "B(a) .\nC(a) .\nR(a,b) .\nB(b) ."),
        ("ex3", "A(a) ."),
        ("ex4", "A(a) .\nB(b) ."),
    ]:
        out = chase(ontology(name, ftext))
        assert isinstance(out, Terminated)
        assert list(find_applicable(rules(name), out.result)) == []


def test_max_atoms_counts_a_repeated_head_atom_once():
    # Both head atoms instantiate to S(a,b): one new atom, two in all.
    program = parse("A(X,Y,Z) -> S(X,Y), S(X,Z) .\nA(a,b,b) .\n")
    out = chase(Ontology(program.rules, program.facts), ChaseLimits(max_atoms=2))
    assert isinstance(out, Terminated)
    assert len(out.result) == 2


def test_chase_determinism_same_seed():
    o = ontology("thm2", "A(a) .\nA(b) .\nR(a,b) .\nR(b,a) .")
    runs = [chase(o, seed=3) for _ in range(2)]
    assert [sorted(str(x) for x in r.result) for r in runs][0] == [
        sorted(str(x) for x in r.result) for r in runs
    ][1]
    assert runs[0].steps == runs[1].steps


def test_chase_on_step_observes_each_state():
    states = []
    o = ontology("thm2", "A(a) .\nR(a,a) .")
    chase(o, on_step=lambda i, rule, sigma, aset: states.append(frozenset(aset)))
    assert len(states) >= 2
    assert states[-1] == frozenset(chase(o).result)


# ---------------------------------------------------------------------------
# The engine against the naive reference semantics


def _render(rule, sigma):
    return f"{rule!r} | " + ", ".join(f"{v.name}={sigma[v]}" for v in rule.universals)


def _oracle_steps(o, limits, seed):
    """The naive run: at every step the first pair `find_applicable` yields
    over the rules in the engine's (seed-shuffled) order, applied with
    `apply`.  Stops where the engine's step and depth caps stop it."""
    order = list(o.rules)
    if seed:
        random.Random(seed).shuffle(order)
    state = AtomSet(o.facts)
    steps = []
    while limits.max_steps is None or len(steps) < limits.max_steps:
        pair = next(find_applicable(order, state), None)
        if pair is None:
            break
        rule, sigma = pair
        after = apply(rule, sigma, state)
        if after.max_term_depth() > limits.max_term_depth:
            break
        steps.append(_render(rule, sigma))
        state = after
    return steps


def _engine_steps(o, limits, seed):
    steps = []
    chase(o, limits, seed=seed,
          on_step=lambda i, rule, sigma, aset: steps.append(_render(rule, sigma)))
    return steps


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


def test_engine_selects_the_naive_step_sequence():
    cases = 0
    for o, seed, limits in _differential_cases():
        assert _engine_steps(o, limits, seed) == _oracle_steps(o, limits, seed)
        cases += 1
    assert cases == 3 * 120 + 15 + 9 + 4 + 3


@pytest.mark.parametrize("stop", [
    {"max_steps": 1}, {"max_steps": 5}, {"max_steps": 17},
    {"max_term_depth": 1}, {"max_atoms": 40},
], ids=lambda stop: "-".join(map(str, *stop.items())))
def test_a_run_resumed_after_a_limit_selects_the_uncapped_sequence(stop):
    # A limit stops the run after it has selected a candidate; the
    # candidate stays queued, so raising the limit and running the same
    # engine again applies what one uncapped run applies, in its order.
    from eqchase.chase import ChaseEngine

    def recorder(steps):
        return lambda i, rule, sigma, aset: steps.append((i, _render(rule, sigma)))

    wl = load_workloads()
    full = ChaseLimits(max_term_depth=10)
    for n, v in itertools.product(wl.EGD_SIZES[::2], range(wl.EGD_VARIANTS)):
        program = parse(wl.egd_instance(n, v))
        o = Ontology(program.rules, program.facts)
        seen, uncapped = [], []
        engine = ChaseEngine(o, ChaseLimits(**{"max_term_depth": 10, **stop}),
                             on_step=recorder(seen))
        first = engine.run()
        assert isinstance(first, LimitExceeded) and first.limit == next(iter(stop))
        engine.limits = full
        resumed = engine.run()
        whole = chase(o, full, on_step=recorder(uncapped))
        assert isinstance(resumed, Terminated) and isinstance(whole, Terminated)
        assert seen == uncapped
        assert list(resumed.result) == list(whole.result)
        assert all(satisfies(resumed.result, rule) for rule in o.rules)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_blocked_tgd_matches_stay_blocked_across_merges(n):
    """A TGD match whose head is embedded before an EGD step is, renamed
    through the merge, still not applicable after it: argument-level
    renaming carries the head embedding along."""
    rng = random.Random(n)
    rs = random_ruleset(rng, egd_share=0.5)
    o = Ontology(rs, random_facts(rng, rs, max_facts=8))
    state = AtomSet(o.facts)
    for _ in range(30):
        pair = next(find_applicable(o.rules, state), None)
        if pair is None:
            return
        rule, sigma = pair
        after = apply(rule, sigma, state)
        if after.max_term_depth() > 4:
            return
        if type(rule) is EGD:
            tx, ty = sigma[rule.x], sigma[rule.y]
            frm, to = (ty, tx) if tx.order_key < ty.order_key else (tx, ty)
            for tgd in o.rules.tgds():
                for binding in match_conjunction(tgd.body, state):
                    if not is_applicable(tgd, dict(binding), state):
                        renamed = {v: to if t == frm else t for v, t in binding.items()}
                        assert not is_applicable(tgd, renamed, after)
        state = after


def test_engine_applies_matches_in_rank_order_whatever_the_join_order():
    # The rule's first fill joins B first, its bucket being the smaller,
    # and so finds the match on A(a2) before the one on A(a1); the queue
    # still applies them in rank-tuple order, as the naive rescan does.
    program = parse(
        "A(X), B(X,Y) -> C(X) .\n"
        "A(a1) .\nA(a2) .\nA(a3) .\nB(a2,b) .\nB(a1,b) .\n"
    )
    o = Ontology(program.rules, program.facts)
    limits = ChaseLimits(max_steps=10, max_term_depth=4)
    steps = _engine_steps(o, limits, 0)
    assert steps == _oracle_steps(o, limits, 0)
    assert [step.split(" | ")[1] for step in steps] == ["X=a1, Y=b", "X=a2, Y=b"]


def test_engine_joins_in_greedy_connected_order(monkeypatch):
    # E(X0,X1), ..., E(X4,X5), F(X5) -> G(X0) over the complete graph on
    # 12 nodes plus F(zz).  In body order the rule's first fill walks every
    # 5-edge path, about 2.5 million; started from F's one atom, it finds
    # no edge into zz.  Count the atoms the index lookups hand the matcher.
    handed = []
    for name in ("bucket", "arg0_bucket", "arg_bucket"):
        def counted(self, *args, method=getattr(AtomSet, name)):
            atoms = method(self, *args)
            handed.append(len(atoms))
            return atoms
        monkeypatch.setattr(AtomSet, name, counted)
    E, F, G = Predicate("E", 2), Predicate("F", 1), Predicate("G", 1)
    xs = [Variable(f"X{i}") for i in range(6)]
    body = [Atom(E, xs[i : i + 2]) for i in range(5)] + [Atom(F, xs[5:])]
    nodes = [Constant(f"n{i}") for i in range(12)]
    edges = [Atom(E, (u, v)) for u in nodes for v in nodes if u is not v]
    o = Ontology(RuleSet([TGD(body, (), [Atom(G, xs[:1])])]), edges + [Atom(F, (Constant("zz"),))])
    outcome = chase(o)
    assert isinstance(outcome, Terminated) and outcome.steps == 0
    assert sum(handed) < 1000


def test_query_joins_in_greedy_connected_order(monkeypatch):
    # A(X), B(Z), R(X,Y), S(Y,Z) over 60 facts of each predicate, no
    # S(c_i, d_i) ending in a b_j, so the query is not entailed.  Joined
    # by bucket size alone, A and B are taken first, and their cross
    # product is searched: 10,860 atoms handed.  In connected order each
    # A atom extends along R and S alone: 180.
    handed = []
    for name in ("bucket", "arg0_bucket", "arg_bucket"):
        def counted(self, *args, method=getattr(AtomSet, name)):
            atoms = method(self, *args)
            handed.append(len(atoms))
            return atoms
        monkeypatch.setattr(AtomSet, name, counted)
    S2 = Predicate("S", 2)
    n = 60
    facts = [f for i in range(n) for f in (
        Atom(A1, [Constant(f"a{i}")]), Atom(B1, [Constant(f"b{i}")]),
        Atom(R2, [Constant(f"a{i}"), Constant(f"c{i}")]),
        Atom(S2, [Constant(f"c{i}"), Constant(f"d{i}")]))]
    body = [Atom(A1, [X]), Atom(B1, [Z]), Atom(R2, [X, Y]), Atom(S2, [Y, Z])]
    assert homomorphism(body, AtomSet(facts)) is None
    assert sum(handed) < 600


def test_entails_keeps_the_rule_arity_of_a_query_predicate():
    program = parse("A(X) -> exists Y . R(X,Y) .\nA(a) .\n")
    q = BCQ([X], [Atom(Predicate("R", 1), [X])])
    with pytest.raises(InvalidInputError) as info:
        entails(Ontology(program.rules, program.facts), q)
    assert [str(v) for v in info.value.violations] == [
        "query: predicate 'R' used with arities 2 and 1"]


def test_closed_tgd_head_instantiated_once_per_candidate(monkeypatch):
    # One chase-datalog job: both rules are closed TGDs and nothing
    # merges, so every key is queued once and popped once.  The head
    # test's atoms are the ones a firing adds, so each candidate's head
    # is built once.
    from eqchase.chase import ChaseEngine, _CompiledRule

    job = min(load_workloads().make_jobs("chase-datalog", 101), key=lambda j: len(j.text))
    program = parse(job.text)
    calls = []

    def counted(self, key, method=_CompiledRule.instantiate):
        calls.append((self.rule, key))
        return method(self, key)

    monkeypatch.setattr(_CompiledRule, "instantiate", counted)
    engine = ChaseEngine(Ontology(program.rules, program.facts))
    outcome = engine.run()
    assert isinstance(outcome, Terminated) and outcome.trace.egd_steps == 0
    assert all(cr.closed for cr in engine.compiled)
    assert len(calls) == len(set(calls)) == sum(len(cr.queued) for cr in engine.compiled)
    assert outcome.trace.tgd_steps < len(calls)


def test_compiled_skolem_symbols_are_those_of_skolemise():
    # The whole head the compiled form builds from a key is the
    # skolemised head under the key's substitution, Skolem symbols
    # included, since symbols compare by identity.
    from eqchase.chase import _CompiledRule
    from eqchase.model import apply_syntactic, skolemise

    rng, keys = random.Random(8), random.Random(9)
    seen = 0
    for _ in range(200):
        for rule in random_ruleset(rng, max_rules=6):
            if type(rule) is not TGD or not rule.existentials:
                continue
            cr = _CompiledRule(rule)
            head = skolemise(rule).head
            for _ in range(3):
                key = tuple(Constant(f"c{keys.randrange(3)}") for _ in rule.universals)
                sigma = dict(zip(rule.universals, key))
                assert cr.instantiate(key) == [apply_syntactic(atom, sigma) for atom in head]
                seen += 1
    assert seen > 100


E2, Q2 = Predicate("E", 2), Predicate("Q", 2)


def _chain(n):
    """Variables X0..Xn and the body E(X0,X1), ..., E(Xn-1,Xn)."""
    xs = [Variable(f"X{i}") for i in range(n + 1)]
    return xs, [Atom(E2, xs[i : i + 2]) for i in range(n)]


def _path_and_ring():
    """E along the path n0 -> ... -> n26 and around the ring c0 -> ... -> c4
    -> c0: a 25-edge walk starts at n0, n1 or any ci."""
    path = [Constant(f"n{i}") for i in range(27)]
    ring = [Constant(f"c{i}") for i in range(5)]
    return [Atom(E2, e) for e in zip(path, path[1:])] + [
        Atom(E2, (u, ring[(i + 1) % 5])) for i, u in enumerate(ring)
    ]


def _long_ontology():
    # The 25-atom body is longer than one compiled join may nest loops.
    xs, body = _chain(25)
    W = Variable("W")
    rules_ = RuleSet([
        TGD(body, (W,), [Atom(Q2, (xs[0], W)), Atom(Q2, (W, xs[25]))]),
        EGD([Atom(Q2, (X, Y)), Atom(Q2, (Y, Z))], X, Z),
    ])
    return Ontology(rules_, _path_and_ring())


def test_long_rule_body_chases_as_the_oracle():
    o = _long_ontology()
    limits = ChaseLimits(max_steps=100, max_term_depth=3)
    steps = _engine_steps(o, limits, 0)
    assert steps == _oracle_steps(o, limits, 0)
    outcome = chase(o, limits)
    assert isinstance(outcome, Terminated)
    # Pinned before the joins were compiled.
    assert (outcome.steps, outcome.trace.egd_steps, len(outcome.result)) == (34, 3, 90)


def test_long_query_body_agrees_with_the_enumeration():
    xs, body = _chain(25)
    aset = AtomSet(_path_and_ring())
    walks = [tuple(b[x] for x in (xs[0], xs[25])) for b in match_conjunction(body, aset)]
    assert walks == [(Constant("n0"), Constant("n25")), (Constant("n1"), Constant("n26"))] + [
        (Constant(f"c{i}"), Constant(f"c{i}")) for i in range(5)
    ]
    w = homomorphism(body, aset)
    assert w is not None and all(Atom(E2, [w[v] for v in a.args]) in aset for a in body)
    # No 26-edge closed walk: the ring has 5 nodes and the path none.
    assert homomorphism(body + [Atom(E2, (xs[25], xs[0]))], aset) is None
    o = _long_ontology()
    assert isinstance(entails(o, BCQ(xs, body)), Entailed)
    closed = BCQ([*xs, X], body + [Atom(Q2, (xs[0], X)), Atom(Q2, (X, xs[25]))])
    assert isinstance(entails(o, closed), Entailed)
