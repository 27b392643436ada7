"""`match_conjunction` against a short reference nested loop.

Bindings and their order must agree with plain nested loops over the
set in rank order, including when the set was rewritten after an
earlier call built its indexes, when atoms were added between two
enumerations, and when the body runs as more than one kernel segment.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqchase import EGD, TGD, Atom, AtomSet, Constant, Functional, Predicate, SkolemSymbol, Variable
from eqchase.chase import _SEGMENT, _CompiledRule, _plan, match_conjunction

P1, R2, S3 = Predicate("P", 1), Predicate("R", 2), Predicate("S", 3)
X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a, b, c, d = (Constant(n) for n in "abcd")
_TERMS = [a, b, c, d, Functional(SkolemSymbol("f", 1), [a])]
_PREDS = [P1, R2, S3]


def _reference(body, atoms, init):
    """Every binding that extends `init` and embeds the body into the
    atoms, which are in rank order, by nested loops in body order."""
    def rec(i, binding):
        if i == len(body):
            yield binding
            return
        for cand in atoms:
            if cand.predicate == body[i].predicate:
                out = dict(binding)
                if all(out.setdefault(v, t) == t for v, t in zip(body[i].args, cand.args)):
                    yield from rec(i + 1, out)

    return list(rec(0, dict(init)))


def _atom(pred, terms):
    return Atom(pred, terms[: pred.arity])


def _apply(s, ops):
    for kind, x, y in ops:
        if kind == "add":
            s.add(_atom(x, y))
        else:
            s.rewrite_in_place(x, y)


_terms3 = st.lists(st.sampled_from(_TERMS), min_size=3, max_size=3)
_add = st.tuples(st.just("add"), st.sampled_from(_PREDS), _terms3)
_op = st.one_of(_add, st.tuples(st.just("rewrite"), st.sampled_from(_TERMS), st.sampled_from(_TERMS)))
_body = st.lists(
    st.tuples(st.sampled_from(_PREDS), st.lists(st.sampled_from([X, Y, Z]), min_size=3, max_size=3)),
    min_size=1,
    max_size=3,
)
_init = st.dictionaries(st.sampled_from([X, Y, Z]), st.sampled_from(_TERMS), max_size=2)
# Atoms on a triangle and a loop, and a body that walks the triangle
# for longer than one kernel segment, starting at X.
_CYCLE = [("add", R2, [a, b, a]), ("add", R2, [b, c, a]), ("add", R2, [c, a, a]),
          ("add", R2, [a, a, a])]
_LONG = [(R2, [(X, Y, Z)[i % 3], (X, Y, Z)[(i + 1) % 3], X]) for i in range(_SEGMENT + 2)]


@settings(max_examples=300, deadline=None)
@given(st.lists(_op, max_size=16), st.lists(_op, max_size=8), _body, _init,
       st.lists(_add, max_size=6))
# A rewrite moves atoms within the lists the first call indexed: R(a,b)
# and R(c,a) become R(b,b) and R(c,b), which keep their ranks, before
# R(d,b); R(a,b), added after the next enumeration, comes last.
@example(
    [("add", R2, [a, b, a]), ("add", R2, [c, a, a]), ("add", R2, [d, b, a])],
    [("rewrite", a, b)],
    [(R2, [Y, X, X]), (R2, [Z, X, X])], {X: b}, [("add", R2, [a, b, a])],
)
# The second segment is handed the slot bound beforehand.
@example(_CYCLE, [], _LONG, {X: a}, [("add", R2, [b, a, a])])
def test_match_conjunction_agrees_with_the_reference_loop(before, after, body, init, later):
    body = [_atom(p, vs) for p, vs in body]
    s = AtomSet()
    _apply(s, before)
    list(match_conjunction(body, s, init))  # builds the indexes the body uses
    _apply(s, after)
    assert [dict(x) for x in match_conjunction(body, s, init)] == _reference(body, list(s), init)

    # The indexes stay in step with the atoms added after an enumeration.
    _apply(s, later)
    assert [dict(x) for x in match_conjunction(body, s, init)] == _reference(body, list(s), init)


def _dict_keys(body, s, universals, init):
    """The keys of the matches `match_conjunction` finds over the atoms,
    in its order."""
    return [tuple(b[v] for v in universals) for b in match_conjunction(body, s, init)]


def _plan_matches(plan, s, anchor=None):
    """(key, rank tuple) of each match the compiled plan finds, in order;
    every plan returns its matches as a list of (key, matched atoms)
    tuples."""
    found = match_conjunction(plan, s, (), anchor)
    assert type(found) is list
    assert all(type(key) is tuple and type(m) is tuple for key, m in found)
    return [(key, tuple(map(s.rank, matched))) for key, matched in found]


def _check_plans(cr, s, body, greedy, keep=lambda key: True):
    """Each plan of the compiled rule yields the dict path's matches of
    the positions it joins that `keep` accepts, in its order, with their
    rank tuples; in greedy order the same matches, in another order."""
    def same(keys):
        keys = list(keys)
        return sorted(keys, key=lambda k: [t.order_key for t in k]) if greedy else keys

    u = cr.universals

    def check(plan, anchor, init, positions):
        got = _plan_matches(plan, s, anchor)
        want = [k for k in _dict_keys([body[i] for i in positions], s, u, init) if keep(k)]
        assert same(key for key, _ in got) == same(want)
        for key, ranks in got:
            atoms = [Atom(a.predicate, [key[u.index(v)] for v in a.args]) for a in body]
            assert ranks == tuple(s.rank(a) for a in atoms)

    check(cr.whole, None, {}, range(len(body)))
    for pos, plan in enumerate(cr.plans):
        rest = [i for i in range(len(body)) if i != pos]
        for atom in list(s.bucket(body[pos].predicate)):
            init = {}
            if all(init.setdefault(v, t) is t for v, t in zip(body[pos].args, atom.args)):
                check(plan, atom, init, rest)
            else:
                assert _plan_matches(plan, s, atom) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(_op, max_size=16), _body, st.booleans())
@example(_CYCLE, _LONG, False)
@example(_CYCLE, _LONG, True)
def test_compiled_plans_agree_with_the_dict_path(ops, body, greedy):
    body = [_atom(p, vs) for p, vs in body]
    s = AtomSet()
    _apply(s, ops)
    # The head's predicate is in no body, so no match is idle.
    cr = _CompiledRule(TGD(body, (), [Atom(Predicate("Fresh", 1), body[0].args[:1])]))
    size = s.bucket_size if greedy else None
    cr.compile(size)
    _check_plans(cr, s, body, greedy)
    # A first-match plan of the body finds the whole plan's first match.
    first = _plan(body, cr.slot, size=size, first=True)
    assert _plan_matches(first, s) == _plan_matches(cr.whole, s)[:1]


@settings(max_examples=200, deadline=None)
@given(st.lists(_op, max_size=16), _body, st.booleans(), st.booleans(),
       st.integers(0, 2), st.lists(st.integers(0, 2), min_size=3, max_size=3))
def test_compiled_plans_skip_exactly_the_idle_matches(ops, body, greedy, egd, at, picks):
    # An EGD match that equates a term with itself, and a match of a
    # closed single-head TGD whose head is the instance of a body atom,
    # can change nothing; the plans drop those and keep every other
    # dict-path match, in its order.
    body = [_atom(p, vs) for p, vs in body]
    s = AtomSet()
    _apply(s, ops)
    variables = list(dict.fromkeys(v for atom in body for v in atom.args))
    pick = [variables[k % len(variables)] for k in picks]
    if egd:
        rule = EGD(body, pick[0], pick[1])
    else:
        shared = body[at % len(body)].predicate
        rule = TGD(body, (), [Atom(shared, pick[:shared.arity])])
    cr = _CompiledRule(rule)
    cr.compile(s.bucket_size if greedy else None)
    u = cr.universals

    def instance(atom, key):
        return Atom(atom.predicate, [key[u.index(v)] for v in atom.args])

    def busy(key):
        if egd:
            return key[u.index(rule.x)] is not key[u.index(rule.y)]
        return instance(rule.head[0], key) not in {instance(a, key) for a in body}

    _check_plans(cr, s, body, greedy, busy)


def test_idle_matches_are_skipped_past_a_kernel_segment():
    # A 20-atom chain runs as two kernel segments.  Over a path with a
    # loop at each end, the 4 walks that stay on a loop throughout, or
    # for all but their first or last step, have their head E(X0,X20)
    # among their own edges: only they drop.
    E = Predicate("E", 2)
    xs = [Variable(f"X{i}") for i in range(21)]
    body = [Atom(E, xs[i : i + 2]) for i in range(20)]
    cs = [Constant(f"c{i}") for i in range(8)]
    s = AtomSet([Atom(E, pair) for pair in zip(cs, cs[1:])] + [Atom(E, (c, c)) for c in cs[::7]])
    cr = _CompiledRule(TGD(body, (), [Atom(E, (xs[0], xs[20]))]))
    cr.compile(None)
    _check_plans(cr, s, body, False,
                 lambda key: (key[0], key[20]) not in set(zip(key, key[1:])))
    assert len(_plan_matches(cr.whole, s)) == len(_dict_keys(body, s, cr.universals, {})) - 4


def test_an_anchor_that_repeats_a_variable_matches_only_equal_arguments():
    from eqchase import Ontology, RuleSet
    from eqchase.acyclicity import _Saturation
    from eqchase.chase import ChaseEngine, ChaseLimits

    rule = TGD([Atom(R2, (X, X))], (), [Atom(P1, (X,))])
    same, differ = Atom(R2, (a, a)), Atom(R2, (a, b))
    engine = ChaseEngine(Ontology(RuleSet([rule]), [same, differ]))
    cr = engine.compiled[0]
    engine._start()
    assert engine.queued == [{(a,): (0,)}]
    plan, = cr.plans
    assert match_conjunction(plan, engine.state, (), same) == [((a,), (same,))]
    assert match_conjunction(plan, engine.state, (), differ) == []

    saturation = _Saturation(RuleSet([rule]), ChaseLimits())
    for atom in (differ, same):
        saturation.atoms.add(atom)
        saturation._process(atom)
    assert list(saturation.atoms) == [differ, same, Atom(P1, (a,))]


def test_a_returned_match_list_stays_as_it_was_while_the_set_grows():
    # Every join has collected its matches when it returns, so its caller
    # may add the atoms they derive while it reads the list.
    s = AtomSet([Atom(R2, (a, b)), Atom(R2, (b, c))])
    cr = _CompiledRule(TGD([Atom(R2, (X, Y)), Atom(R2, (Y, Z))], (), [Atom(R2, (X, Z))]))
    cr.compile(s.bucket_size)
    found = match_conjunction(cr.whole, s)
    want = [((a, b, c), (Atom(R2, (a, b)), Atom(R2, (b, c))))]
    assert found == want
    for key, _ in found:
        for atom in [Atom(R2, (key[0], key[2])), Atom(R2, (c, a)), Atom(R2, (c, b))]:
            s.add(atom)
    assert found == want
    assert len(match_conjunction(cr.whole, s)) == 8


def _run_all(text):
    """Chase the program, saturate its rules and answer its queries; the
    counts of what each found."""
    from eqchase import Ontology, chase, emfa_set, homomorphism, parse

    program = parse(text)
    outcome = chase(Ontology(program.rules, program.facts))
    saturated = emfa_set(program.rules)
    found = [homomorphism(q.body, outcome.result) is not None for q in program.queries]
    return outcome.steps, len(outcome.result), saturated.status, len(saturated.atoms), found


def test_rule_sets_differing_in_names_share_their_kernels():
    from eqchase.chase import _head_kernel, _kernel

    one = ("A(X), R(X,Y), R(Y,Z) -> exists W . S(Z,W), S(W,X) .\n"
           "S(X,Y), S(Y,Z) -> X = Z .\nA(a) .\nR(a,b) .\nR(b,c) .\n"
           "? exists X,Y . S(X,Y), A(Y) .\n")
    two = ("B(U), Q(U,V), Q(V,T) -> exists K . P(T,K), P(K,U) .\n"
           "P(U,V), P(V,T) -> U = T .\nB(d) .\nQ(d,e) .\nQ(e,f) .\n"
           "? exists U,V . P(U,V), B(V) .\n")
    first = _run_all(one)
    misses = _kernel.cache_info().misses, _head_kernel.cache_info().misses
    assert _run_all(two) == first
    assert (_kernel.cache_info().misses, _head_kernel.cache_info().misses) == misses


def test_code_like_predicate_names_match_like_any_other():
    from eqchase import Ontology, RuleSet, chase, homomorphism

    odd, plain = Predicate("x]; import os #", 2), Predicate("E", 2)
    outcomes = []
    for p in (odd, plain):
        rules_ = RuleSet([TGD([Atom(p, (X, Y)), Atom(p, (Y, Z))], (), [Atom(p, (X, Z))])])
        facts = [Atom(p, (a, b)), Atom(p, (b, c)), Atom(p, (c, d))]
        result = chase(Ontology(rules_, facts)).result
        query = [Atom(p, (X, Y)), Atom(p, (Y, X))]
        outcomes.append(([str(t) for atom in result for t in atom.args],
                         homomorphism(query, result)))
    assert outcomes[0] == outcomes[1]
    assert len(outcomes[0][0]) == 2 * 6 and outcomes[0][1] is None
