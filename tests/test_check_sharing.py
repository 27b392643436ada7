"""`check_pipeline` shares one compiled form of each rule among its
saturations, rules of one shape share their compiled joins, and neither
sharing changes a result.

The differential test runs `check_pipeline` and, for every saturation it
made, a fresh `_Saturation(rules, limits).run()` over the same rules, and
requires the same atoms in rank order, derivation records, status,
witness and counts.  The counting tests pin how much compiling one
`check --notion all` job does, that a compiled form lives no longer
than the call that made it, and that a second pass over the benchmark's
check cycle generates no join or head kernel and plans no rule shape.
"""

from __future__ import annotations

import itertools
import random
import weakref

import pytest

from corpus import random_ruleset
from eqchase import (
    TGD,
    Atom,
    ChaseLimits,
    EGD,
    Predicate,
    RuleSet,
    Variable,
    canonical_singularisation,
    check_pipeline,
    parse,
    singularisations,
    standard_axiomatisation,
)
from eqchase import acyclicity
from eqchase.acyclicity import _Saturation
from eqchase.chase import _CompiledRule, _Plan, _anchored, _head_kernel, _kernel
from eqchase.cli import main
from perfbench_loader import load_workloads
from rulesets import ALL_TEXTS

w = load_workloads()
# The kernel and shape caches every compiled join comes from.
CACHES = (_kernel, _head_kernel, _anchored)
LIMITS = ChaseLimits(max_atoms=20_000, max_term_depth=10)
SING_CAP = 4

X, Y, W = Variable("X"), Variable("Y"), Variable("W")
A, B, R = Predicate("A", 1), Predicate("B", 1), Predicate("R", 2)
CLOSED = TGD([Atom(R, (X, Y))], (), [Atom(B, (Y,))])
# A closed TGD twice, next to a rule whose nulls it reads, and an EGD.
TWICE = RuleSet([
    CLOSED,
    TGD([Atom(A, (X,))], (W,), [Atom(R, (X, W)), Atom(A, (W,))]),
    CLOSED,
    EGD([Atom(R, (X, Y)), Atom(B, (Y,))], X, Y),
])


def _cases() -> dict[str, RuleSet]:
    cases = {name: parse(text).rules for name, text in ALL_TEXTS.items()}
    for seed in (101, 102):
        for job in w.make_jobs("check-corpus", seed):
            cases.setdefault(f"s{seed}-{job.name}", parse(job.text).rules)
    rng = random.Random(21)
    for i in range(150):
        cases[f"corpus-{i:03d}"] = random_ruleset(rng, max_rules=6)
    cases["closed-twice"] = TWICE
    return cases


CASES = _cases()


def _fresh(rules: RuleSet):
    return _Saturation(rules, LIMITS).run()


def _same_outcome(got, want) -> None:
    assert got.status == want.status
    assert list(got.atoms) == list(want.atoms)
    assert list(got.derivations.items()) == list(want.derivations.items())
    assert (got.witness_atom, got.witness_term) == (want.witness_atom, want.witness_term)
    assert (got.limit, got.steps, len(got.atoms)) == (want.limit, want.steps, len(want.atoms))


def _row(report) -> tuple:
    return (report.notion, report.verdict, report.set_size, report.steps,
            report.witness_atom, report.witness_term, report.limit)


def test_closed_twice_keeps_both_rules():
    assert len(TWICE) == 4 and TWICE[0] == TWICE[2]


@pytest.mark.parametrize("name", sorted(CASES))
def test_shared_compile_matches_fresh_saturations(name, monkeypatch):
    rules = CASES[name]
    runs = []
    emfa_set = acyclicity.emfa_set

    def recorded(rs, *args, **kwargs):
        outcome = emfa_set(rs, *args, **kwargs)
        runs.append((rs, outcome))
        return outcome

    monkeypatch.setattr(acyclicity, "emfa_set", recorded)
    reports = check_pipeline(rules, LIMITS, sing_cap=SING_CAP)
    monkeypatch.undo()

    for rs, outcome in runs:
        _same_outcome(outcome, _fresh(rs))

    notions = [("emfa", rules), ("mfa-st", standard_axiomatisation(rules).rules),
               ("mfa-sing", canonical_singularisation(rules).rules)]
    notions += [("mfa-sing-all", axr.rules)
                for axr in itertools.islice(singularisations(rules), SING_CAP)]
    want = [_row(acyclicity._report(notion, _fresh(rs), 0.0)) for notion, rs in notions]
    assert [_row(r) for r in reports] == want


# -- how much one call compiles ------------------------------------------


@pytest.fixture
def counting(monkeypatch):
    """Counts of compiled rules and built plans; each compiled rule is
    also kept as a weak reference."""
    seen = {"rules": 0, "plans": 0, "refs": []}

    class Counted(_CompiledRule):
        # A subclass without __slots__ can be weakly referenced.
        def __init__(self, *args):
            super().__init__(*args)
            seen["rules"] += 1
            seen["refs"].append(weakref.ref(self))

    init = _Plan.__init__

    def plan(self, *args, **kwargs):
        seen["plans"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(acyclicity, "_CompiledRule", Counted)
    monkeypatch.setattr(_Plan, "__init__", plan)
    return seen


def test_check_cycle_compiles_each_distinct_rule_once(counting, tmp_path):
    jobs = w.make_jobs("check-corpus", 101)
    w.write_inputs(jobs, tmp_path)
    for job in jobs:
        code, out, err = w.run_cli(main, job.cli_args(tmp_path))
        assert w.check_output("check-corpus", job, code, out) is None, err
    # 13.2 full compiles and 50.3 plans per job: each job's 32.0
    # distinct rules come in 13.2 skeletons, and the other rules bind the
    # form of their skeleton's first (`_CompiledRule.bind`), which builds
    # their plans but no `_CompiledRule.__init__`.  1473 full compiles
    # when each distinct rule had its own, and 2352 and 3240 plans (51.1
    # and 70.4) when each saturation compiled every rule itself.
    assert len(jobs) == 46
    assert (counting["rules"], counting["plans"]) == (609, 2312)


def _shape(cr) -> tuple:
    """The key a compiled rule's anchored plans are cached under: its
    body's slot pattern and its idle conjunctions."""
    return tuple(tuple(cr.slot[v] for v in atom.args) for atom in cr.rule.body), cr.idle


def test_a_second_check_cycle_compiles_no_new_join(tmp_path):
    jobs = w.make_jobs("check-corpus", 101)
    w.write_inputs(jobs, tmp_path)
    rules = []  # each job's distinct rules
    for job in jobs:
        rs = parse(job.text).rules
        rules += dict.fromkeys([*rs, *standard_axiomatisation(rs).rules,
                                *canonical_singularisation(rs).rules])
    shapes = {_shape(_CompiledRule(r)) for r in rules}

    def cycle():
        for job in jobs:
            code, out, err = w.run_cli(main, job.cli_args(tmp_path))
            assert w.check_output("check-corpus", job, code, out) is None, err
        return [cache.cache_info().misses for cache in CACHES]

    for cache in CACHES:
        cache.cache_clear()
    first = cycle()
    # One shape entry per distinct (slot pattern, idle) pair: the 1473
    # rules the cycle compiles plan their joins 24 times.
    assert (len(rules), len(shapes), first[2]) == (1473, 24, 24)
    assert cycle() == first


def test_each_call_compiles_anew(counting):
    rules = parse(ALL_TEXTS["thm2"]).rules
    check_pipeline(rules, LIMITS)
    once = (counting["rules"], counting["plans"])
    assert once[0] > 0
    check_pipeline(rules, LIMITS)
    assert (counting["rules"], counting["plans"]) == (2 * once[0], 2 * once[1])


# Rules of one slot pattern over other predicates, and of one pattern
# with other idle conjunctions: a closed TGD whose head predicate is in
# its body (transitivity of R) next to one whose is not.
T, S = Predicate("T", 2), Predicate("S", 2)
Z, U = Variable("Z"), Variable("U")
SHAPES = RuleSet([
    TGD([Atom(A, (X,))], (W,), [Atom(R, (X, W))]),
    TGD([Atom(B, (X,))], (U,), [Atom(S, (X, U))]),
    TGD([Atom(R, (X, Y)), Atom(R, (Y, Z))], (), [Atom(R, (X, Z))]),
    TGD([Atom(S, (X, Y)), Atom(S, (Y, Z))], (), [Atom(T, (X, Z))]),
    TGD([Atom(R, (X, Y))], (), [Atom(B, (Y,))]),
    TGD([Atom(T, (X, Y))], (), [Atom(A, (Y,))]),
])


def _cold(rules: RuleSet):
    """The saturation with each distinct rule compiled from empty kernel
    and shape caches, so that no two rules share a compiled join."""
    compiled = {}
    for rule in rules:
        if rule not in compiled:
            for cache in CACHES:
                cache.cache_clear()
            compiled[rule] = acyclicity._compile(rule)
    return _Saturation(rules, LIMITS, compiled).run()


@pytest.mark.parametrize("flip", [False, True])
def test_rules_of_one_shape_share_their_joins_exactly(flip):
    rules = RuleSet(SHAPES[::-1] if flip else SHAPES)
    _anchored.cache_clear()
    shared = _fresh(rules)
    # Six rules, four (slot pattern, idle) keys.  The last two rules share
    # a skeleton, so the second binds the first's form (`_compile_all`)
    # and five look up `_anchored`.
    assert (_anchored.cache_info().misses, _anchored.cache_info().hits) == (4, 1)
    assert shared.status == "cyclic" and len(shared.atoms) > len(rules.predicates())
    _same_outcome(shared, _cold(rules))


# Rules of one skeleton over other predicates (the first two, the two
# EGDs and the last two), next to rules of the first's slot pattern whose
# body atoms share the head's predicate in other patterns, so that their
# idle conjunctions differ: eleven rules, eight skeletons.
SKELETONS = RuleSet([
    TGD([Atom(R, (X, Y)), Atom(R, (Y, Z))], (), [Atom(R, (X, Z))]),
    TGD([Atom(S, (X, Y)), Atom(S, (Y, Z))], (), [Atom(S, (X, Z))]),
    TGD([Atom(S, (X, Y)), Atom(R, (Y, Z))], (), [Atom(R, (X, Z))]),
    TGD([Atom(R, (X, Y)), Atom(S, (Y, Z))], (), [Atom(R, (X, Z))]),
    TGD([Atom(R, (X, Y)), Atom(R, (Y, Z))], (), [Atom(T, (X, Z))]),
    TGD([Atom(A, (X,))], (W,), [Atom(R, (X, W)), Atom(B, (W,))]),
    TGD([Atom(B, (X,))], (U,), [Atom(S, (X, U))]),
    EGD([Atom(R, (X, Y)), Atom(R, (X, Z))], Y, Z),
    EGD([Atom(S, (X, Y)), Atom(S, (X, Z))], Y, Z),
    TGD([Atom(T, (X, Y))], (), [Atom(A, (Y,))]),
    TGD([Atom(R, (X, Y))], (), [Atom(B, (Y,))]),
])


@pytest.mark.parametrize("flip", [False, True])
def test_rules_of_one_skeleton_bind_one_form_exactly(flip, monkeypatch):
    rules = RuleSet(SKELETONS[::-1] if flip else SKELETONS)
    full = []
    compile_ = acyclicity._compile
    monkeypatch.setattr(acyclicity, "_compile", lambda rule: full.append(rule) or compile_(rule))
    shared = _fresh(rules)
    monkeypatch.undo()
    assert len(full) == 8
    assert any(d[0] == "egd" for d in shared.derivations.values())
    _same_outcome(shared, _cold(rules))


def test_compiled_forms_die_with_the_call(counting):
    check_pipeline(parse(ALL_TEXTS["ex4"]).rules, LIMITS, sing_cap=SING_CAP)
    refs = counting["refs"]
    assert refs and all(ref() is None for ref in refs)
