"""Acceptance suite.

Each test below implements one numbered acceptance criterion at its
stated tolerance and prints a single pass/fail line; run with

    pytest tests/test_acceptance.py -v -s

to see the lines as they happen.  The whole suite sticks to desk scale
and finishes in well under two minutes.
"""

import functools
import itertools
import json
import random
import statistics
import time
from pathlib import Path

from eqchase import (
    Atom,
    ChaseLimits,
    Constant,
    Ontology,
    Predicate,
    Terminated,
    LimitExceeded,
    canonical_query_singularisation,
    canonical_singularisation,
    chase,
    emfa_set,
    homomorphism,
    is_emfa,
    is_mfa,
    satisfies,
    singularisations,
    standard_axiomatisation,
)
from eqchase.cli import main as cli_main
from corpus import random_facts, random_query, random_ruleset
from helpers import ep_completion, pi, star_atom
from rulesets import facts, ontology, rules

DATA = Path(__file__).parent / "data"
CHECK_LIMITS = ChaseLimits(max_atoms=200_000, max_term_depth=12)


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number:02d}: {description}")
                raise
            print(f"[PASS] criterion {number:02d}: {description}")

        return wrapper

    return deco


@criterion(1, "terminating chase vs. diverging standard axiomatisation")
def test_criterion_01():
    out = chase(ontology("thm2", "A(a) .\nR(a,a) ."))
    assert isinstance(out, Terminated)

    st = standard_axiomatisation(rules("thm2"))
    st_ontology = Ontology(st.rules, facts("A(a) .\nR(a,a) ."))
    depths = []
    for cap in (4, 6, 8):
        out = chase(st_ontology, ChaseLimits(max_term_depth=cap, max_steps=1_000_000))
        assert isinstance(out, LimitExceeded)
        assert out.limit == "max_term_depth"
        depths.append(out.partial.max_term_depth())
    assert depths == sorted(depths) and len(set(depths)) == 3  # strictly growing


@criterion(2, "depth-one termination vs. its four diverging singularisations")
def test_criterion_02():
    rs = rules("thm4")
    b, c, r = Predicate("B", 1), Predicate("C", 1), Predicate("R", 2)
    a_, b_ = Constant("a"), Constant("b")
    universe = [Atom(b, [a_]), Atom(b, [b_]), Atom(c, [a_]), Atom(c, [b_])] + [
        Atom(r, [t, u]) for t in (a_, b_) for u in (a_, b_)
    ]
    for k in range(len(universe) + 1):
        for combo in itertools.combinations(universe, k):
            out = chase(Ontology(rs, combo), ChaseLimits(max_steps=10_000, max_term_depth=8))
            assert isinstance(out, Terminated)
            assert out.result.max_term_depth() <= 1

    sings = list(singularisations(rs))
    assert len(sings) == 4
    for axr in sings:
        out = chase(
            Ontology(axr.rules, facts("B(a) .\nC(a) .")),
            ChaseLimits(max_term_depth=6, max_steps=1_000_000),
        )
        assert isinstance(out, LimitExceeded)


@criterion(3, "direct check passes where the standard axiomatisation fails")
def test_criterion_03():
    assert is_emfa(rules("thm2"), CHECK_LIMITS).verdict == "acyclic"
    assert is_mfa(standard_axiomatisation(rules("thm2")), CHECK_LIMITS).verdict == "cyclic"


@criterion(4, "direct check passes where no singularisation does")
def test_criterion_04():
    rs = rules("ex3")
    assert is_emfa(rs, CHECK_LIMITS).verdict == "acyclic"
    for axr in singularisations(rs):
        assert is_mfa(axr, CHECK_LIMITS).verdict == "cyclic"
        out = chase(
            Ontology(axr.rules, facts("A(a) .\nR(a,a) .\nS(a,a) .")),
            ChaseLimits(max_term_depth=6, max_steps=1_000_000),
        )
        assert isinstance(out, LimitExceeded)


@criterion(5, "direct check fails where both singularisations pass")
def test_criterion_05():
    rs = rules("ex4")
    report = is_emfa(rs, CHECK_LIMITS)
    assert report.verdict == "cyclic"
    assert report.witness_term.cyclic
    assert report.witness_term.fn.name in ("f_V", "f_W")
    sings = list(singularisations(rs))
    assert len(sings) == 2
    for axr in sings:
        assert is_mfa(axr, CHECK_LIMITS).verdict == "acyclic"


@criterion(6, "standard-axiomatisation acyclicity implies direct acyclicity (500 rule sets)")
def test_criterion_06():
    rng = random.Random(100)
    lim = ChaseLimits(max_atoms=20_000, max_term_depth=10)
    st_acyclic = 0
    for _ in range(500):
        rs = random_ruleset(rng)
        if is_mfa(standard_axiomatisation(rs), lim, notion="mfa-st").verdict == "acyclic":
            st_acyclic += 1
            assert is_emfa(rs, lim).verdict == "acyclic"
    assert st_acyclic >= 100  # the property must not hold vacuously


@criterion(7, "entailment agreement across both axiomatisations (200 pairs)")
def test_criterion_07():
    rng = random.Random(200)
    limits = ChaseLimits(max_steps=30_000, max_atoms=20_000, max_term_depth=8)
    pairs = 0
    while pairs < 200:
        rs = random_ruleset(rng, max_rules=3)
        fact_set = random_facts(rng, rs)
        plain = chase(Ontology(rs, fact_set), limits)
        if not isinstance(plain, Terminated):
            continue
        st = chase(Ontology(standard_axiomatisation(rs).rules, fact_set), limits)
        if not isinstance(st, Terminated):
            continue
        sing = chase(Ontology(canonical_singularisation(rs).rules, fact_set), limits)
        if not isinstance(sing, Terminated):
            continue
        for _ in range(5):
            query = random_query(rng, rs)
            sing_query = canonical_query_singularisation(query)
            verdicts = (
                homomorphism(query.body, plain.result) is not None,
                homomorphism(query.body, st.result) is not None,
                homomorphism(sing_query.body, sing.result) is not None,
            )
            assert len(set(verdicts)) == 1, (rs.rules, fact_set, query, verdicts)
            pairs += 1


@criterion(8, "acyclic-checked rule sets chase safely inside the fixpoint")
def test_criterion_08():
    rng = random.Random(300)
    lim = ChaseLimits(max_atoms=20_000, max_term_depth=10)
    chase_limits = ChaseLimits(max_steps=30_000, max_atoms=30_000, max_term_depth=10)
    acyclic = 0
    for _ in range(150):
        rs = random_ruleset(rng)
        sat = emfa_set(rs, lim)
        if sat.status != "completed":
            continue
        acyclic += 1
        fixpoint = frozenset(sat.atoms)
        for _ in range(2):
            fact_set = random_facts(rng, rs)
            for seed in (0, 1):
                states = []
                out = chase(
                    Ontology(rs, fact_set),
                    chase_limits,
                    seed=seed,
                    on_step=lambda i, r, s, aset: states.append(frozenset(aset)),
                )
                assert isinstance(out, Terminated)
                assert not any(t.cyclic for atom in out.result for t in atom.args)
                for state in [frozenset(fact_set)] + states:
                    assert {star_atom(atom) for atom in state} <= fixpoint
    assert acyclic >= 40


@criterion(9, "class-collapse rewriting invariants (1000 eq-complete sets)")
def test_criterion_09():
    from eqchase import EQ, AtomSet, Functional, SkolemSymbol

    rng = random.Random(400)
    a_, b_ = Constant("a"), Constant("b")
    P1, R2 = Predicate("P", 1), Predicate("R", 2)
    terms = [
        a_, b_,
        Functional(SkolemSymbol("f", 1), [a_]),
        Functional(SkolemSymbol("f", 1), [b_]),
        Functional(SkolemSymbol("g", 1), [a_]),
    ]
    for _ in range(1000):
        aset = AtomSet()
        for _ in range(rng.randint(1, 5)):
            p = rng.choice([P1, R2])
            aset.add(Atom(p, [rng.choice(terms) for _ in range(p.arity)]))
        for _ in range(rng.randint(0, 4)):
            aset.add(Atom(EQ, (rng.choice(terms), rng.choice(terms))))
        aset = ep_completion(aset)
        mapping = pi(aset)
        for atom in aset.bucket(EQ):
            t, u = atom.args
            assert mapping[t] == mapping[u]  # linked terms share their image
        for image in mapping.values():
            assert mapping[image] == image  # the image set is fixed


@criterion(10, "terminated chases satisfy every rule; fixed seeds reproduce bytes")
def test_criterion_10(capsys):
    rng = random.Random(500)
    limits = ChaseLimits(max_steps=5_000, max_atoms=5_000, max_term_depth=8)
    terminated = 0
    for _ in range(80):
        rs = random_ruleset(rng)
        o = Ontology(rs, random_facts(rng, rs))
        out = chase(o, limits)
        if isinstance(out, Terminated):
            terminated += 1
            for rule in rs:
                assert satisfies(out.result, rule)
    assert terminated >= 40

    outputs = []
    for _ in range(2):
        code = cli_main(
            ["chase", str(DATA / "thm2.rules"), "--facts", str(DATA / "aa.facts"),
             "--format", "json", "--seed", "7", "--no-timing"]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["outcome"] == "terminated" and doc["seed"] == 7


@criterion(11, "direct check is reported no slower than singularise-then-check")
def test_criterion_11():
    corpus = [rules(n) for n in ("thm2", "thm4", "ex3", "ex4")]
    corpus.append(standard_axiomatisation(rules("thm2")).rules)
    rng = random.Random(600)
    corpus.extend(random_ruleset(rng) for _ in range(100))
    lim = ChaseLimits(max_atoms=50_000, max_term_depth=12)
    direct, via_sing = [], []
    for rs in corpus:
        t0 = time.perf_counter()
        is_emfa(rs, lim)
        direct.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        axr = canonical_singularisation(rs)
        is_mfa(axr, lim)
        via_sing.append(time.perf_counter() - t0)
    med_direct = statistics.median(direct) * 1000
    med_sing = statistics.median(via_sing) * 1000
    print(
        f"\n[REPORT] criterion 11: median direct check {med_direct:.3f}ms, "
        f"median singularise-and-check {med_sing:.3f}ms "
        f"({'<=' if med_direct <= med_sing else '>'}, reported, not gated)"
    )
