import random
from collections import deque

import pytest

from eqchase import (
    EGD,
    TGD,
    Atom,
    AtomSet,
    ChaseLimits,
    Functional,
    Ontology,
    Predicate,
    RuleSet,
    STAR,
    SkolemSymbol,
    Terminated,
    Variable,
    apply_syntactic,
    canonical_singularisation,
    check_pipeline,
    chase,
    critical_instance,
    emfa_set,
    is_emfa,
    is_mfa,
    match_conjunction,
    parse,
    skolemise,
    standard_axiomatisation,
)
from eqchase.acyclicity import _compile_all
from corpus import random_facts, random_ruleset
from helpers import star_atom
from rulesets import ALL_TEXTS, rules

X, W = Variable("X"), Variable("W")
A1, B1, P1, R2 = Predicate("A", 1), Predicate("B", 1), Predicate("P", 1), Predicate("R", 2)
LIMITS = ChaseLimits(max_atoms=200_000, max_term_depth=12)


def test_critical_instance_examples():
    ci = critical_instance(rules("thm2"))
    assert set(ci) == {Atom(A1, [STAR]), Atom(B1, [STAR]), Atom(R2, [STAR, STAR])}
    single = RuleSet([TGD([Atom(P1, [X])], (), [Atom(P1, [X])])])
    assert critical_instance(single) == [Atom(P1, [STAR])]
    ci4 = critical_instance(rules("ex4"))
    assert set(ci4) == {
        Atom(A1, [STAR]),
        Atom(B1, [STAR]),
        Atom(Predicate("C", 1), [STAR]),
        Atom(R2, [STAR, STAR]),
    }


def test_emfa_set_thm2_completes_with_collapsed_images():
    out = emfa_set(rules("thm2"), LIMITS)
    assert out.status == "completed"
    fw_star = Functional(SkolemSymbol("f_W", 1), [STAR])
    assert Atom(R2, [STAR, fw_star]) in out.atoms
    assert Atom(B1, [fw_star]) in out.atoms
    assert Atom(B1, [STAR]) in out.atoms  # image of the merged successor
    assert not any(t.cyclic for a in out.atoms for t in a.args)


def test_emfa_set_weakly_growing_single_firing():
    rs = RuleSet([TGD([Atom(A1, [X])], (W,), [Atom(B1, [W])])])
    out = emfa_set(rs, LIMITS)
    assert out.status == "completed"
    expected = set(critical_instance(rs)) | {
        Atom(B1, [Functional(SkolemSymbol("f_W", 1), [STAR])])
    }
    assert out.atoms == expected


def test_emfa_set_example4_cyclic_witness():
    out = emfa_set(rules("ex4"), LIMITS)
    assert out.status == "cyclic"
    assert out.witness_term.cyclic
    assert out.witness_term in out.witness_atom.args
    name = out.witness_term.fn.name
    assert name in ("f_V", "f_W")


def test_is_emfa_verdicts_on_paper_sets():
    assert is_emfa(rules("thm2"), LIMITS).verdict == "acyclic"
    assert is_emfa(rules("ex3"), LIMITS).verdict == "acyclic"
    assert is_emfa(rules("ex4"), LIMITS).verdict == "cyclic"


def test_is_mfa_verdicts_on_axiomatised_sets():
    from eqchase import canonical_singularisation, singularisations

    assert is_mfa(standard_axiomatisation(rules("thm2")), LIMITS).verdict == "cyclic"
    for axr in singularisations(rules("ex4")):
        assert is_mfa(axr, LIMITS).verdict == "acyclic"
    for axr in singularisations(rules("ex3")):
        assert is_mfa(axr, LIMITS).verdict == "cyclic"
    assert is_mfa(canonical_singularisation(rules("thm2")), LIMITS).verdict == "acyclic"


def test_is_mfa_rejects_equality():
    with pytest.raises(ValueError):
        is_mfa(rules("thm2"), LIMITS)


def test_check_pipeline_reports():
    reports = check_pipeline(rules("thm2"), LIMITS)
    assert [r.notion for r in reports] == ["emfa", "mfa-st", "mfa-sing"]
    assert [r.verdict for r in reports] == ["acyclic", "cyclic", "acyclic"]
    reports = check_pipeline(rules("ex3"), LIMITS)
    assert (reports[0].verdict, reports[2].verdict) == ("acyclic", "cyclic")
    reports = check_pipeline(rules("ex4"), LIMITS, sing_cap=2)
    assert (reports[0].verdict, reports[2].verdict) == ("cyclic", "acyclic")
    assert [r.verdict for r in reports[3:]] == ["acyclic", "acyclic"]


def test_fixpoint_monotone_and_equal_depth_adds_both_images():
    # P(a-side) and P(b-side) merge at equal depth: both images must appear
    # and nothing may be lost.
    rs = RuleSet(
        [
            TGD([Atom(R2, [X, Variable("Y")])], (), [Atom(R2, [X, X])]),
            EGD([Atom(R2, [X, Variable("Y")])], X, Variable("Y")),
            TGD([Atom(A1, [X])], (W,), [Atom(R2, [X, W]), Atom(B1, [W])]),
        ]
    )
    out = emfa_set(rs, LIMITS)
    assert out.status == "completed"
    assert set(critical_instance(rs)) <= frozenset(out.atoms)
    fw_star = Functional(SkolemSymbol("f_W", 1), [STAR])
    # the merge of * with f_W(*) has depth 1 <= 2, so only one direction
    # fires there; the B/star pair at equal depth fires both:
    assert Atom(B1, [STAR]) in out.atoms and Atom(B1, [fw_star]) in out.atoms


def test_emfa_determinism():
    runs = [emfa_set(rules("ex4"), LIMITS) for _ in range(2)]
    assert [str(r.witness_atom) for r in runs] == [str(runs[0].witness_atom)] * 2
    assert [sorted(str(a) for a in r.atoms) for r in runs][0] == [
        sorted(str(a) for a in r.atoms) for r in runs
    ][1]


def _replay(outcome, rules_):
    """Walk the recorded derivation of every atom and re-check each step."""
    derivs = outcome.derivations
    ci = set(critical_instance(rules_))
    sk_heads = {
        i: skolemise(r).head if type(r) is TGD else None
        for i, r in enumerate(rules_)
    }
    ok: dict[Atom, bool] = {}

    def valid(atom) -> bool:
        if atom in ok:
            return ok[atom]
        ok[atom] = True  # cycles impossible: parents precede children
        rec = derivs[atom]
        if rec[0] == "ci":
            res = atom in ci
        elif rec[0] == "tgd":
            _, idx, sig_items, body_instance = rec
            rule = rules_[idx]
            sigma = dict(zip(rule.universals, sig_items))
            res = body_instance == tuple(
                Atom(a.predicate, [sigma[v] for v in a.args]) for a in rule.body
            )
            res = res and all(valid(p) for p in body_instance)
            res = res and atom in {apply_syntactic(h, sigma) for h in sk_heads[idx]}
        else:
            _, idx, sig_items, source, frm, to = rec
            rule = rules_[idx]
            sigma = dict(zip(rule.universals, sig_items))
            tx, ty = sigma[rule.x], sigma[rule.y]
            res = {frm, to} == {tx, ty} and to.depth <= frm.depth
            res = res and all(
                valid(Atom(a.predicate, [sigma[v] for v in a.args])) for a in rule.body
            )
            res = res and valid(source)
            res = res and atom == Atom(
                source.predicate, [to if t == frm else t for t in source.args]
            )
        ok[atom] = res
        return res

    return valid(outcome.witness_atom)


def test_witness_derivation_replays():
    rs = rules("ex4")
    out = emfa_set(rs, LIMITS)
    assert out.status == "cyclic"
    assert _replay(out, rs)
    report = is_emfa(rs, LIMITS)
    assert report.witness_term is not None and report.witness_term.cyclic


# A chain family with a loop-back rule: every notion is cyclic.
LOOPING_CHAIN = parse(
    "P0(X1,X2) -> exists W0 . P1(X2,W0) .\n"
    "P1(X1,X2) -> exists W1 . P2(X2,W1) .\n"
    "P2(X1,X2) -> exists W2 . P3(X2,W2) .\n"
    "P3(X1,X2) -> X1 = X2 .\n"
    "P3(X1,X2) -> P0(X1,X2) .\n"
).rules


@pytest.mark.parametrize(
    "name,notion",
    [("thm2", "mfa-st"), ("thm4", "mfa-st"), ("thm4", "mfa-sing"), ("ex3", "mfa-st"),
     ("ex3", "mfa-sing"), ("chain", "mfa-st"), ("chain", "mfa-sing")],
)
def test_axiomatised_witness_derivation_replays(name, notion):
    rs = LOOPING_CHAIN if name == "chain" else rules(name)
    axiomatise = standard_axiomatisation if notion == "mfa-st" else canonical_singularisation
    ax = axiomatise(rs).rules
    out = emfa_set(ax, LIMITS)
    assert out.status == "cyclic"
    assert _replay(out, ax)


def test_emfa_equals_mfa_on_equality_free_sets():
    rng = random.Random(11)
    for _ in range(40):
        rs = random_ruleset(rng, egd_share=0.0)
        assert not rs.egds()
        lim = ChaseLimits(max_atoms=5000, max_term_depth=10)
        assert is_emfa(rs, lim).verdict == is_mfa(rs, lim).verdict


def test_caps_bound_the_saturation_set():
    # The caps are tested before an atom is added, so only the cyclic
    # witness, which is added and then stops the run, may pass them.
    chain = parse("".join(f"A{i}(X) -> exists Y . R{i}(X,Y), A{i + 1}(Y) .\n"
                          for i in range(14))).rules
    out = emfa_set(chain, ChaseLimits(max_term_depth=3))
    assert out.limit == "max_term_depth" and out.atoms.max_term_depth() == 3
    out = emfa_set(chain, ChaseLimits(max_atoms=5))
    assert out.limit == "max_atoms" and len(out.atoms) == 5
    rng = random.Random(22)
    for _ in range(80):
        rs = random_ruleset(rng, max_rules=6)
        atoms_cap = rng.randint(0, 40)
        for lim in (ChaseLimits(max_term_depth=rng.randint(1, 3)), ChaseLimits(max_atoms=atoms_cap)):
            out = emfa_set(rs, lim)
            rest = [a for a in out.atoms if a != out.witness_atom]
            if lim.max_atoms is not None:
                assert len(rest) <= atoms_cap
            else:
                assert all(t.depth <= lim.max_term_depth for a in rest for t in a.args)


def test_theorem8_direction_sampled():
    rng = random.Random(12)
    lim = ChaseLimits(max_atoms=20_000, max_term_depth=10)
    for _ in range(80):
        rs = random_ruleset(rng)
        st = is_mfa(standard_axiomatisation(rs), lim, notion="mfa-st")
        if st.verdict == "acyclic":
            assert is_emfa(rs, lim).verdict == "acyclic"


def test_theorem6_coupling_sampled():
    rng = random.Random(13)
    lim = ChaseLimits(max_atoms=20_000, max_term_depth=10)
    chase_lim = ChaseLimits(max_steps=30_000, max_atoms=30_000, max_term_depth=10)
    checked = 0
    for _ in range(40):
        rs = random_ruleset(rng)
        verdict = is_emfa(rs, lim)
        if verdict.verdict != "acyclic":
            continue
        fixpoint = frozenset(emfa_set(rs, lim).atoms)
        for _ in range(2):
            o = Ontology(rs, random_facts(rng, rs))
            states = []
            out = chase(o, chase_lim, on_step=lambda i, r, s, aset: states.append(frozenset(aset)))
            assert isinstance(out, Terminated)
            assert not any(t.cyclic for a in out.result for t in a.args)
            for state in [frozenset(o.facts)] + states:
                assert {star_atom(atom) for atom in state} <= fixpoint
            checked += 1
    assert checked >= 10


def test_is_emfa_takes_notion_by_keyword_only():
    # perfbench/tracer.py files an `is_emfa` call under its `notion`
    # keyword or its fourth positional argument, so a notion passed as
    # the third would be timed as emfa.
    with pytest.raises(TypeError):
        is_emfa(rules("thm2"), LIMITS, "mfa-st")


def test_saturation_compiles_only_anchored_plans(monkeypatch):
    # One plan per body atom of each rule, and neither the engine's
    # whole-body plan nor its head test.
    from eqchase.acyclicity import _Saturation
    from eqchase.chase import _Plan

    built = []

    def counted(self, body, *args, init=_Plan.__init__, **kw):
        built.append(self)
        init(self, body, *args, **kw)

    monkeypatch.setattr(_Plan, "__init__", counted)
    rng = random.Random(11)
    corpus = [rules(name) for name in ("thm2", "thm4", "ex3", "ex4")]
    corpus += [standard_axiomatisation(rs).rules for rs in corpus]
    corpus += [random_ruleset(rng, max_rules=6) for _ in range(100)]
    for rs in corpus:
        built.clear()
        sat = _Saturation(rs, LIMITS)
        distinct = dict.fromkeys(rs)
        assert len(built) == sum(len(r.body) for r in distinct)
        compiled = {id(cr): cr for plans in sat.readers.values() for cr, _, _ in plans}
        assert len(compiled) == len(distinct)
        for cr in compiled.values():
            assert not hasattr(cr, "whole") and not hasattr(cr, "head")
        anchored = [plan for plans in sat.readers.values() for _, _, plan in plans]
        assert len(anchored) == sum(len(r.body) for r in rs)
        assert sorted(set(map(id, anchored))) == sorted(map(id, built))


def test_long_body_saturates_as_a_short_one():
    # A 25-atom body is longer than one compiled join may nest loops.  On
    # the critical instance a chain of E atoms matches as one E atom does.
    E = Predicate("E", 2)
    xs = [Variable(f"X{i}") for i in range(26)]
    outcomes = []
    for n in (25, 1):
        body = [Atom(E, xs[i : i + 2]) for i in range(n)]
        rs = RuleSet([
            TGD(body, (W,), [Atom(E, (xs[n], W))]),
            TGD([Atom(E, (X, W))], (), [Atom(P1, (W,))]),
        ])
        out = emfa_set(rs, LIMITS)
        assert out.status == "cyclic" and _replay(out, rs)
        outcomes.append((len(out.atoms), out.steps))
    # Pinned before the joins were compiled.
    assert outcomes == [(4, 2), (4, 2)]


def _naive_closure(rules_):
    """The saturation's closure computed over the whole set, round by
    round, with nothing incremental: ("cyclic", None) at the first round
    that adds a cyclic term, else ("completed", atoms) at the first round
    that adds nothing."""
    aset = AtomSet(critical_instance(rules_))
    heads = {rule: skolemise(rule).head for rule in rules_.tgds()}
    maps = set()
    while True:
        new = []
        for rule in rules_:
            for binding in match_conjunction(rule.body, aset):
                if type(rule) is TGD:
                    new += [apply_syntactic(h, binding) for h in heads[rule]]
                    continue
                tx, ty = binding[rule.x], binding[rule.y]
                if tx is not ty:
                    if tx.depth <= ty.depth:
                        maps.add((ty, tx))
                    if ty.depth <= tx.depth:
                        maps.add((tx, ty))
        for frm, to in maps:
            for atom in aset:
                if frm in atom.args:
                    new.append(Atom(atom.predicate, [to if t is frm else t for t in atom.args]))
        added = [atom for atom in new if aset.add(atom)]
        if any(t.cyclic for atom in added for t in atom.args):
            return "cyclic", None
        if not added:
            return "completed", set(aset)


def _closure_corpus():
    """The named rule sets, 300 random ones and both axiomatisations of
    each: 912 sets."""
    rng = random.Random(5)
    corpus = [rules(name) for name in ALL_TEXTS]
    corpus += [random_ruleset(rng, max_rules=6) for _ in range(300)]
    return corpus + [axiomatise(rs).rules for axiomatise in
                     (standard_axiomatisation, canonical_singularisation) for rs in corpus]


def test_saturation_equals_the_naive_closure():
    verdicts = {"completed": 0, "cyclic": 0}
    for rs in _closure_corpus():
        out = emfa_set(rs, LIMITS)
        status, atoms = _naive_closure(rs)
        assert out.status == status
        if status == "completed":
            assert set(out.atoms) == atoms
        verdicts[status] += 1
    assert verdicts == {"completed": 410, "cyclic": 502}


class _Cyclic(Exception):
    pass


def _worklist_closure(rules_):
    """The saturation's order stated naively: (status, derivations).

    Atoms are processed first in, first out.  Each processed atom passes
    first through the active replacement maps, in the order they were
    made; then each rule, in rule order, is joined at each body position
    holding the atom's predicate, in body order: the atom at that
    position, the other positions in body order, by nested loops over a
    list of the set frozen when the join starts.  An EGD match equating a
    term with itself is skipped.  The join's matches fire, in order,
    after it ends.  The first atom with a cyclic term stops the run."""
    derivations, queue, maps = {}, deque(), {}
    heads = {rule: skolemise(rule).head for rule in rules_.tgds()}

    def add(atom, deriv):
        if atom not in derivations:
            derivations[atom] = deriv
            queue.append(atom)
            if any(t.cyclic for t in atom.args):
                raise _Cyclic

    def rewrite(atom, frm, to, idx, key):
        if frm in atom.args:
            image = Atom(atom.predicate, [to if t is frm else t for t in atom.args])
            add(image, ("egd", idx, key, atom, frm, to))

    def join(body, pos, anchor):
        """(binding, the matched atom at each body position) per match."""
        frozen = list(derivations)
        order = [pos] + [i for i in range(len(body)) if i != pos]
        found = []

        def rec(k, binding, matched):
            if k == len(order):
                found.append((binding, tuple(matched[i] for i in range(len(body)))))
                return
            i = order[k]
            for cand in (anchor,) if k == 0 else frozen:
                out = dict(binding)
                if cand.predicate is body[i].predicate and all(
                        out.setdefault(v, t) is t for v, t in zip(body[i].args, cand.args)):
                    rec(k + 1, out, {**matched, i: cand})

        rec(0, {}, {})
        return found

    try:
        for fact in critical_instance(rules_):
            add(fact, ("ci",))
        while queue:
            atom = queue.popleft()
            for (frm, to), (idx, key) in maps.items():
                rewrite(atom, frm, to, idx, key)
            for idx, rule in enumerate(rules_):
                for pos, b in enumerate(rule.body):
                    if b.predicate is not atom.predicate:
                        continue
                    for binding, body in join(rule.body, pos, atom):
                        key = tuple(binding[v] for v in rule.universals)
                        if type(rule) is TGD:
                            for head in heads[rule]:
                                add(apply_syntactic(head, binding), ("tgd", idx, key, body))
                            continue
                        tx, ty = binding[rule.x], binding[rule.y]
                        if tx is ty:
                            continue
                        pairs = [(ty, tx)] if tx.depth <= ty.depth else []
                        pairs += [(tx, ty)] if ty.depth <= tx.depth else []
                        for frm, to in pairs:
                            if (frm, to) not in maps:
                                maps[frm, to] = idx, key
                                for existing in list(derivations):
                                    rewrite(existing, frm, to, idx, key)
    except _Cyclic:
        return "cyclic", derivations
    return "completed", derivations


def test_saturation_follows_the_naive_worklist_order():
    # Both ways of compiling: the forms `emfa_set` makes itself, and forms
    # shared with another rule set, as `check_pipeline` makes them.  A
    # repeated rule's records name the occurrence whose join fired.
    for rs in _closure_corpus():
        status, derivations = _worklist_closure(rs)
        shared = _compile_all(rs, standard_axiomatisation(rs).rules)
        for out in (emfa_set(rs, LIMITS), emfa_set(rs, LIMITS, compiled=shared)):
            assert out.status == status
            assert list(out.derivations.items()) == list(derivations.items())
