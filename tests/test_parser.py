import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqchase import (
    EQ,
    EGD,
    TGD,
    Atom,
    Constant,
    ParseError,
    Predicate,
    Variable,
    parse,
    serialize,
    validate,
    Ontology,
)
from corpus import random_ontology, random_query
from eqchase.parser import serialize_query, serialize_rule
from helpers import lexed, reference_lex


def test_parse_tgd_example():
    p = parse("A(X) -> exists W . R(X,W), B(W) .")
    (rule,) = p.rules
    X, W = Variable("X"), Variable("W")
    assert rule == TGD(
        [Atom(Predicate("A", 1), [X])],
        (W,),
        [Atom(Predicate("R", 2), [X, W]), Atom(Predicate("B", 1), [W])],
    )


def test_parse_egd_example():
    p = parse("R(X,Y), R(X,Z) -> Y = Z .")
    (rule,) = p.rules
    assert type(rule) is EGD
    assert (rule.x, rule.y) == (Variable("Y"), Variable("Z"))


def test_parse_query_example():
    p = parse("? exists X, Y . R(X,Y), B(Y) .")
    (q,) = p.queries
    assert len(q.variables) == 2
    assert q.body[0].predicate == Predicate("R", 2)


def test_parse_facts_and_comments():
    p = parse("% a comment\nA(a) .  % trailing\nR(a,b) .\n")
    assert p.facts == (
        Atom(Predicate("A", 1), [Constant("a")]),
        Atom(Predicate("R", 2), [Constant("a"), Constant("b")]),
    )


def test_parse_reserved_eq_predicate():
    p = parse("eq(X,Y) -> eq(Y,X) .")
    (rule,) = p.rules
    assert rule.body[0].predicate == EQ
    with pytest.raises(ParseError) as exc:
        parse("eq(X,Y,Z) -> eq(X,Y) .")
    assert "binary" in str(exc.value)


def test_parse_diagnostics_carry_locations():
    # the missing '.' surfaces where the next statement begins
    with pytest.raises(ParseError) as exc:
        parse("A(X) -> B(X)\nC(Y) .")
    d = exc.value.diagnostics[0]
    assert (d.line, d.col) == (2, 1)
    assert "expected" in d.message


def test_eof_after_a_comment_keeps_its_column():
    with pytest.raises(ParseError) as exc:
        parse("A(X) -> B(X) % c")
    assert str(exc.value) == "1:14: expected '.'"


def test_parse_error_recovery_collects_multiple():
    with pytest.raises(ParseError) as exc:
        parse("A( .\nB(Y Y) .\nA(a) .")
    assert len(exc.value.diagnostics) >= 2


def test_parse_arity_mismatch_reported():
    with pytest.raises(ParseError) as exc:
        parse("A(a) .\nA(a,b) .")
    assert "arity" in str(exc.value)


def test_parse_implicit_query_quantification():
    p = parse("? R(X,Y) .")
    (q,) = p.queries
    assert q.variables == (Variable("X"), Variable("Y"))


def test_parse_renames_shared_existentials():
    p = parse("A(X) -> exists W . R(X,W) .\nB(X) -> exists W . S(X,W) .")
    names = [v.name for r in p.rules for v in r.existentials]
    assert names[0] == "W" and names[1] != "W" and len(set(names)) == 2
    assert validate(Ontology(p.rules, ())) == []


def test_roundtrip_on_paper_texts():
    from rulesets import ALL_TEXTS

    for text in ALL_TEXTS.values():
        p = parse(text)
        again = parse(serialize(p))
        assert again.rules == p.rules
        assert again.facts == p.facts
        assert again.queries == p.queries


def test_roundtrip_on_random_programs():
    rng = random.Random(3)
    from eqchase.parser import Program

    for _ in range(50):
        o = random_ontology(rng)
        queries = tuple(random_query(rng, o.rules) for _ in range(2))
        p = Program(o.rules, o.facts, queries)
        again = parse(serialize(p))
        assert again.rules == p.rules
        assert again.facts == p.facts
        assert again.queries == p.queries


def test_serialize_shapes():
    p = parse("A(X) -> exists W . R(X,W), B(W) .")
    assert serialize_rule(p.rules[0]) == "A(X) -> exists W . R(X,W), B(W) ."
    p = parse("R(X,Y), R(X,Z) -> Y = Z .")
    assert serialize_rule(p.rules[0]) == "R(X,Y), R(X,Z) -> Y = Z ."
    q = parse("? exists X, Y . R(X,Y), B(Y) .").queries[0]
    assert serialize_query(q) == "? exists X, Y . R(X,Y), B(Y) ."


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80))
def test_parser_total_on_arbitrary_text(text):
    try:
        parse(text)
    except ParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=60))
def test_parser_total_on_binary_noise(blob):
    try:
        parse(blob.decode("latin-1"))
    except ParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ABab(),.->? =XYZW\n%exists", max_size=60))
def test_parser_total_on_grammar_shaped_noise(text):
    try:
        parse(text)
    except ParseError:
        pass


_GRAMMAR_NOISE = "ABab(),.->? =XYZW\n%exists_1\r\t²Ⅻǅ"


@settings(max_examples=500, deadline=None)
@given(st.text(max_size=60) | st.text(alphabet=_GRAMMAR_NOISE, max_size=60))
@example("²x")  # numeric, not a letter: no identifier starts here
@example("Ⅻ")
@example("ǅa")  # titlecase: a letter, but not uppercase
@example("\r")
@example("\x1c")  # whitespace to str.isspace
@example("\u3000")
@example("a_1")
@example("²exists")  # the keyword after a rejected character
@example("A(X) -> B(X) % c")  # the EOF keeps the column of the '%'
@example("\ufeffA(a) .")
@example("1a_²x²² Ⅻb\n_")  # each character up to a word run's first letter
def test_lexer_agrees_with_the_reference(text):
    assert lexed(text) == reference_lex(text)
