import random

import pytest

from eqchase import (
    EQ,
    TGD,
    Atom,
    AtomSet,
    BCQ,
    ChaseLimits,
    Constant,
    Functional,
    Ontology,
    Predicate,
    RuleSet,
    SkolemSymbol,
    Terminated,
    Variable,
    apply,
    canonical_query_singularisation,
    canonical_singularisation,
    chase,
    entails,
    singularisations,
    singularise_conjunction,
    singularise_query,
    standard_axiomatisation,
    validate_ruleset,
)
from helpers import EqIncompleteError, bracket, ep_completion, is_ep_complete, pi
from rulesets import facts, query, rules

a, b = Constant("a"), Constant("b")
X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
A1, B1, P1, R2 = Predicate("A", 1), Predicate("B", 1), Predicate("P", 1), Predicate("R", 2)
fw_a = Functional(SkolemSymbol("f_W", 1), [a])

RULE7, RULE8 = rules("thm2")


def test_standard_axiomatisation_of_thm2_shape():
    st = standard_axiomatisation(rules("thm2"))
    rs = list(st.rules)
    assert len(rs) == 11
    assert RULE7 in rs
    translated = TGD(RULE8.body, (), [Atom(EQ, (Y, Z))])
    assert translated in rs
    reflexivity = [r for r in rs if r.head and all(at.predicate == EQ and at.args[0] == at.args[1] for at in r.head) and r.body[0].predicate != EQ]
    assert len(reflexivity) == 3  # one per ordinary predicate
    replacement = [r for r in rs if len(r.body) == 2 and r.body[1].predicate == EQ and r.head[0].predicate != EQ]
    assert len(replacement) == 4  # one per argument position
    assert validate_ruleset(st.rules) == []


def test_standard_axiomatisation_without_egds():
    pure = RuleSet([TGD([Atom(P1, [X])], (), [Atom(R2, [X, X])])])
    st = standard_axiomatisation(pure)
    assert pure[0] in list(st.rules)
    assert all(
        r == pure[0] or any(at.predicate == EQ for at in tuple(r.body) + tuple(r.head))
        for r in st.rules
    )


def test_singularise_conjunction_splits_repeats():
    body = (Atom(R2, [X, Y]), Atom(R2, [X, Z]))
    out = singularise_conjunction(body, {"X": 1})
    X2 = Variable("X__2")
    assert out == (Atom(R2, [X, Y]), Atom(R2, [X2, Z]), Atom(EQ, (X, X2)))
    kept_second = singularise_conjunction(body, {"X": 2})
    X1 = Variable("X__1")
    assert kept_second == (Atom(R2, [X1, Y]), Atom(R2, [X, Z]), Atom(EQ, (X, X1)))


def test_singularise_conjunction_no_repeats_unchanged():
    body = (Atom(R2, [X, Y]),)
    assert singularise_conjunction(body, {}) == body
    assert singularise_conjunction((Atom(P1, [X]),), {"X": 1}) == (Atom(P1, [X]),)


def test_singularise_conjunction_choice_out_of_range():
    with pytest.raises(ValueError):
        singularise_conjunction((Atom(R2, [X, X]),), {"X": 3})


def test_singularisation_counts():
    assert len(list(singularisations(rules("thm4")))) == 4
    assert len(list(singularisations(rules("ex4")))) == 2
    norepeat = RuleSet([TGD([Atom(R2, [X, Y])], (), [Atom(P1, [X])])])
    assert [axr.choices for axr in singularisations(norepeat)] == [((),)]


def test_singularisations_are_wellformed():
    for axr in singularisations(rules("thm4")):
        assert validate_ruleset(axr.rules) == []
        assert axr.kind == "singularisation"


def test_example4_singularisations_equivalent():
    sings = list(singularisations(rules("ex4")))
    assert len(sings) == 2
    fact_set = facts("A(a) .\nR(a,b) .\nB(b) .")
    queries = [
        query("? exists X, Y . R(X,Y) ."),
        query("? exists X . C(X) ."),
        query("? exists X . A(X), B(X) ."),
    ]
    limits = ChaseLimits(max_steps=20_000, max_term_depth=8)
    for q in queries:
        verdicts = {
            type(entails(Ontology(axr.rules, fact_set), q, limits)).__name__
            for axr in sings
        }
        assert len(verdicts) == 1


def test_canonical_singularisation_keeps_first_occurrences():
    axr = canonical_singularisation(rules("thm4"))
    assert axr.choices[0] == (("X", 1),)
    s9 = axr.rules[0]
    # first occurrence of X is kept, the second becomes X__2
    assert s9.body[0] == Atom(B1, [X])
    assert s9.body[1] == Atom(Predicate("C", 1), [Variable("X__2")])


def test_singularise_query():
    q = BCQ((X,), (Atom(R2, [X, X]),))
    outs = list(singularise_query(q))
    assert len(outs) == 2
    canonical = canonical_query_singularisation(q)
    assert canonical.body == (Atom(R2, [X, Variable("X__2")]), Atom(EQ, (X, Variable("X__2"))))
    assert set(canonical.variables) == {X, Variable("X__2")}
    no_repeat = BCQ((X, Y), (Atom(R2, [X, Y]),))
    assert list(singularise_query(no_repeat)) == [no_repeat]
    three = BCQ((X, Y), (Atom(R2, [X, X]), Atom(R2, [X, Y])))
    assert len(list(singularise_query(three))) == 3


def test_is_ep_complete_examples():
    assert is_ep_complete(AtomSet([Atom(P1, [a]), Atom(EQ, (a, a))]))
    assert not is_ep_complete(AtomSet([Atom(P1, [a])]))
    asym = AtomSet([Atom(EQ, (a, b)), Atom(EQ, (a, a)), Atom(EQ, (b, b))])
    assert not is_ep_complete(asym)


def test_pi_collapses_class_to_least_term():
    aset = ep_completion(AtomSet([Atom(R2, [a, fw_a]), Atom(EQ, (a, fw_a))]))
    mapping = pi(aset)
    assert mapping[a] == a and mapping[fw_a] == a


def test_pi_identity_on_reflexive_only():
    aset = AtomSet([Atom(P1, [a]), Atom(P1, [b]), Atom(EQ, (a, a)), Atom(EQ, (b, b))])
    assert pi(aset) == {a: a, b: b}


def test_pi_requires_ep_completeness():
    with pytest.raises(EqIncompleteError):
        pi(AtomSet([Atom(P1, [a])]))


def test_pi_idempotent_on_range():
    aset = ep_completion(
        AtomSet([Atom(R2, [a, fw_a]), Atom(EQ, (a, fw_a)), Atom(EQ, (b, b)), Atom(P1, [b])])
    )
    mapping = pi(aset)
    for t in mapping.values():
        assert mapping[t] == t


def test_bracket_examples():
    assert bracket(AtomSet([Atom(P1, [a]), Atom(EQ, (a, a))])) == {Atom(P1, [a])}
    aset = ep_completion(AtomSet([Atom(R2, [a, fw_a]), Atom(EQ, (a, fw_a))]))
    assert bracket(aset) == {Atom(R2, [a, a])}


def test_bracket_mirrors_plain_chase_for_first_three_steps():
    """Desk-scale induction: each plain-chase step equals the bracket of a
    matching eq-complete step of the axiomatised chase."""
    rs = rules("thm2")
    A0 = AtomSet(facts("A(a) .\nR(a,a) ."))
    A1 = apply(RULE7, {X: a}, A0)
    merge = {X: a, Y: a, Z: fw_a}
    A2 = apply(RULE8, merge, A1)
    assert A2 == {Atom(Predicate("A", 1), [a]), Atom(R2, [a, a]), Atom(B1, [a])}

    def refl_close(aset):
        out = aset.copy()
        for t in list(out.terms()):
            out.add(Atom(EQ, (t, t)))
        return out

    B0 = refl_close(A0)
    assert is_ep_complete(B0) and bracket(B0) == A0

    st_rule7 = RULE7  # kept verbatim by the standard axiomatisation
    B1_set = refl_close(apply(st_rule7, {X: a}, B0))
    assert is_ep_complete(B1_set) and bracket(B1_set) == A1

    egd_as_tgd = TGD(RULE8.body, (), [Atom(EQ, (Y, Z))])
    assert egd_as_tgd in list(standard_axiomatisation(rs).rules)
    B2_set = ep_completion(apply(egd_as_tgd, merge, B1_set))
    assert is_ep_complete(B2_set) and bracket(B2_set) == A2


def _random_ep_complete(rng: random.Random) -> AtomSet:
    terms = [a, b, fw_a, Functional(SkolemSymbol("f_V", 1), [b]),
             Functional(SkolemSymbol("f_V", 1), [a])]
    aset = AtomSet()
    for _ in range(rng.randint(1, 5)):
        p = rng.choice([P1, R2])
        aset.add(Atom(p, [rng.choice(terms) for _ in range(p.arity)]))
    for _ in range(rng.randint(0, 4)):
        aset.add(Atom(EQ, (rng.choice(terms), rng.choice(terms))))
    return ep_completion(aset)


def test_pi_class_respect_and_idempotence_properties():
    rng = random.Random(42)
    for _ in range(200):
        aset = _random_ep_complete(rng)
        assert is_ep_complete(aset)
        mapping = pi(aset)
        for atom in aset.bucket(EQ):
            t, u = atom.args
            assert mapping[t] == mapping[u]
        for t in mapping.values():
            assert mapping[t] == t
        for t, image in mapping.items():
            assert Atom(EQ, (t, image)) in aset
            for u in mapping:
                if u != image and Atom(EQ, (t, u)) in aset:
                    assert image.order_key < u.order_key


def test_termination_transfer_thm1_thm3_on_paper_sets():
    """Where the axiomatised chase finishes, the plain chase must too."""
    limits = ChaseLimits(max_steps=50_000, max_term_depth=8, max_atoms=50_000)
    for name, ftext in [("thm2", "A(a) ."), ("ex4", "A(a) ."), ("thm4", "B(a) .")]:
        rs = rules(name)
        fs = facts(ftext)
        st_out = chase(Ontology(standard_axiomatisation(rs).rules, fs), limits)
        sing_out = chase(Ontology(canonical_singularisation(rs).rules, fs), limits)
        plain = chase(Ontology(rs, fs), limits)
        if isinstance(st_out, Terminated) or isinstance(sing_out, Terminated):
            assert isinstance(plain, Terminated)


def test_termination_transfer_on_generated_corpus():
    from corpus import random_facts, random_ruleset

    rng = random.Random(77)
    limits = ChaseLimits(max_steps=30_000, max_term_depth=8, max_atoms=30_000)
    transfers = 0
    for _ in range(120):
        rs = random_ruleset(rng, max_rules=3)
        fs = random_facts(rng, rs)
        st_out = chase(Ontology(standard_axiomatisation(rs).rules, fs), limits)
        sing_out = chase(Ontology(canonical_singularisation(rs).rules, fs), limits)
        if isinstance(st_out, Terminated) or isinstance(sing_out, Terminated):
            transfers += 1
            assert isinstance(chase(Ontology(rs, fs), limits), Terminated)
    assert transfers >= 50
