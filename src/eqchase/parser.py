"""Concrete syntax.

    % comments run to end of line
    A(X) -> exists W . R(X,W), B(W) .      rule with an existential head
    R(X,Y), R(X,Z) -> Y = Z .              rule equating two body variables
    A(a) .                                 fact (bare ground atom)
    ? exists X, Y . R(X,Y), B(Y) .         query

Predicates and constants are lowercase identifiers, variables start with
an uppercase letter.  The predicate name `eq` is reserved for the binary
predicate the equality axiomatisations introduce; a file may use it in
rule bodies, heads and queries, which lets axiomatised output round-trip
through the parser.

Parsing is total: any input yields either a Program or a ParseError
carrying positioned diagnostics, never a crash.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .model import (
    EQ,
    EGD,
    RESERVED_EQ_NAME,
    TGD,
    Atom,
    BCQ,
    Constant,
    Predicate,
    Rule,
    RuleSet,
    Variable,
    _first_occurrence_vars,
)


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: Iterable[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


@dataclass
class Program:
    rules: RuleSet
    facts: tuple[Atom, ...]
    queries: tuple[BCQ, ...]

    def merge(self, other: "Program") -> "Program":
        return Program(
            RuleSet(list(self.rules) + list(other.rules)),
            self.facts + other.facts,
            self.queries + other.queries,
        )


# ---------------------------------------------------------------------------
# Lexer

_PUNCT = {"->": "ARROW", "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT", "=": "EQUALS",
          "?": "QMARK"}

# Groups, by number: whitespace, comment, punctuation, identifier, any
# other character.  `\s` is `str.isspace` and `\w` is `str.isalnum` or
# '_', but `[^\W\d_]` also admits numeric characters that are not
# letters, such as '²', so `_lex` checks an identifier's start.
_TOKEN = re.compile(r"(\s+)|(%[^\n]*)|(->|[(),.=?])|([^\W\d_]\w*)|(.)", re.S)


def _lex(text: str) -> tuple[list[tuple], list[Diagnostic]]:
    """The tokens of the text, each (kind, text, line, col), ending in an
    EOF token, and a diagnostic for each character no token admits.  Only
    a line feed ends a line.  A comment does not advance the column, so
    an EOF right after one has the column of its '%'."""
    tokens: list[tuple] = []
    diags: list[Diagnostic] = []
    match = _TOKEN.match
    pos, n = 0, len(text)
    line, line_start = 1, 0  # line_start: the index of column 1
    while pos < n:
        m = match(text, pos)
        group = m.lastindex
        word = m.group()
        col = pos - line_start + 1
        if group == 1:
            if "\n" in word:
                line += word.count("\n")
                line_start = pos + word.rindex("\n") + 1
        elif group == 2:
            line_start += len(word)
        elif group == 3:
            tokens.append((_PUNCT[word], word, line, col))
        elif group == 4 and word[0].isalpha():
            kind = "EXISTS" if word == "exists" else "UIDENT" if word[0].isupper() else "LIDENT"
            tokens.append((kind, word, line, col))
        else:
            diags.append(Diagnostic(line, col, f"unexpected character {text[pos]!r}"))
            pos += 1
            continue
        pos = m.end()
    tokens.append(("EOF", "", line, n - line_start + 1))
    return tokens, diags


# ---------------------------------------------------------------------------
# Parser

# Raw syntax nodes carry names only; predicates are resolved afterwards so
# arity mismatches can be reported with their locations.


@dataclass
class _RawAtom:
    name: str
    args: list[tuple[str, str]]  # (kind, name), kind in {"const", "var"}
    line: int
    col: int


class _Parser:
    """Reads the tokens of `_lex` by index: 0 kind, 1 text, 2 line, 3 col."""

    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens
        self.pos = 0
        self.diags: list[Diagnostic] = []

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def next(self) -> tuple:
        t = self.tokens[self.pos]
        if t[0] != "EOF":
            self.pos += 1
        return t

    def error(self, tok: tuple, message: str) -> None:
        self.diags.append(Diagnostic(tok[2], tok[3], message))

    def recover(self) -> None:
        # Skip to just past the next statement terminator.
        while True:
            t = self.next()
            if t[0] in ("DOT", "EOF"):
                return

    def expect(self, kind: str, what: str) -> Optional[tuple]:
        t = self.peek()
        if t[0] == kind:
            return self.next()
        self.error(t, f"expected {what}, found {t[1]!r}" if t[1] else f"expected {what}")
        return None

    def parse_atom(self) -> Optional[_RawAtom]:
        # A predicate is any identifier directly followed by '('; case only
        # disambiguates term positions (lowercase constant, uppercase
        # variable), so the usual uppercase predicate names parse fine.
        name_tok = self.peek()
        if name_tok[0] not in ("LIDENT", "UIDENT"):
            self.error(name_tok, "expected a predicate name")
            return None
        self.next()
        if self.expect("LPAREN", "'('") is None:
            return None
        args: list[tuple[str, str]] = []
        while True:
            t = self.peek()
            if t[0] == "LIDENT":
                args.append(("const", t[1]))
                self.next()
            elif t[0] == "UIDENT":
                args.append(("var", t[1]))
                self.next()
            else:
                self.error(t, "expected a constant or variable")
                return None
            if self.peek()[0] == "COMMA":
                self.next()
                continue
            break
        if self.expect("RPAREN", "')'") is None:
            return None
        return _RawAtom(name_tok[1], args, name_tok[2], name_tok[3])

    def parse_conjunction(self) -> Optional[list[_RawAtom]]:
        atoms = []
        while True:
            atom = self.parse_atom()
            if atom is None:
                return None
            atoms.append(atom)
            if self.peek()[0] == "COMMA":
                self.next()
                continue
            return atoms

    def parse_varlist(self) -> Optional[list[tuple]]:
        out = []
        while True:
            t = self.expect("UIDENT", "a variable")
            if t is None:
                return None
            out.append(t)
            if self.peek()[0] == "COMMA":
                self.next()
                continue
            return out

    def parse_statement(self):
        """Returns ("rule" | "fact" | "query", payload) or None."""
        t = self.peek()
        if t[0] == "QMARK":
            self.next()
            exists: Optional[list[tuple]] = None
            if self.peek()[0] == "EXISTS":
                self.next()
                exists = self.parse_varlist()
                if exists is None or self.expect("DOT", "'.'") is None:
                    return None
            body = self.parse_conjunction()
            if body is None or self.expect("DOT", "'.'") is None:
                return None
            return ("query", (exists, body))

        body = self.parse_conjunction()
        if body is None:
            return None
        t2 = self.peek()
        if t2[0] == "DOT":
            self.next()
            if len(body) != 1:
                self.error(t2, "a fact statement holds exactly one atom")
                return None
            return ("fact", body[0])
        if t2[0] != "ARROW":
            self.error(t2, "expected '->' or '.'")
            return None
        self.next()
        t3 = self.peek()
        if t3[0] == "EXISTS":
            self.next()
            exists = self.parse_varlist()
            if exists is None or self.expect("DOT", "'.'") is None:
                return None
            head = self.parse_conjunction()
            if head is None or self.expect("DOT", "'.'") is None:
                return None
            return ("rule", ("tgd", body, exists, head))
        if t3[0] == "UIDENT" and self.tokens[self.pos + 1][0] == "EQUALS":
            x = self.next()
            self.next()  # '='
            y = self.expect("UIDENT", "a variable")
            if y is None or self.expect("DOT", "'.'") is None:
                return None
            return ("rule", ("egd", body, x, y))
        head = self.parse_conjunction()
        if head is None or self.expect("DOT", "'.'") is None:
            return None
        return ("rule", ("tgd", body, None, head))

    def parse_program(self) -> list:
        statements = []
        while self.peek()[0] != "EOF":
            if self.peek()[0] == "DOT":  # stray terminator
                self.error(self.peek(), "empty statement")
                self.next()
                continue
            st = self.parse_statement()
            if st is None:
                self.recover()
                continue
            statements.append(st)
        return statements


# ---------------------------------------------------------------------------
# Semantic construction


class _Builder:
    def __init__(self):
        # name -> (its predicate, the line and column of its first use)
        self.predicates: dict[str, tuple[Predicate, int, int]] = {}
        self.diags: list[Diagnostic] = []

    def predicate(self, raw: _RawAtom) -> Optional[Predicate]:
        arity = len(raw.args)
        if raw.name == RESERVED_EQ_NAME:
            if arity != 2:
                self.diags.append(
                    Diagnostic(raw.line, raw.col, f"{RESERVED_EQ_NAME!r} is the reserved equality predicate and must be binary")
                )
                return None
            return EQ
        seen = self.predicates.get(raw.name)
        if seen is None:
            seen = self.predicates[raw.name] = (Predicate(raw.name, arity), raw.line, raw.col)
        elif seen[0].arity != arity:
            self.diags.append(
                Diagnostic(
                    raw.line,
                    raw.col,
                    f"predicate {raw.name!r} used with arity {arity}, but line {seen[1]} uses arity {seen[0].arity}",
                )
            )
            return None
        return seen[0]

    def atom(self, raw: _RawAtom) -> Optional[Atom]:
        p = self.predicate(raw)
        if p is None:
            return None
        args = [Constant(n) if k == "const" else Variable(n) for k, n in raw.args]
        return Atom(p, args)


def parse(text: str) -> Program:
    """Parse a program; raises ParseError with every diagnostic found."""
    tokens, diags = _lex(text)
    parser = _Parser(tokens)
    statements = parser.parse_program()
    diags.extend(parser.diags)

    builder = _Builder()
    rules: list[Rule] = []
    facts: list[Atom] = []
    queries: list[BCQ] = []

    for kind, payload in statements:
        if kind == "fact":
            atom = builder.atom(payload)
            if atom is not None:
                facts.append(atom)
        elif kind == "rule":
            shape = payload[0]
            body = [builder.atom(r) for r in payload[1]]
            if any(a is None for a in body):
                continue
            if shape == "tgd":
                _, _, exists, raw_head = payload
                head = [builder.atom(r) for r in raw_head]
                if any(a is None for a in head):
                    continue
                ex_vars = tuple(Variable(t[1]) for t in exists) if exists else ()
                rules.append(TGD(body, ex_vars, head))
            else:
                _, _, x, y = payload
                rules.append(EGD(body, Variable(x[1]), Variable(y[1])))
        else:
            exists, raw_body = payload
            body = [builder.atom(r) for r in raw_body]
            if any(a is None for a in body):
                continue
            if exists is not None:
                variables = tuple(Variable(t[1]) for t in exists)
            else:
                variables = _first_occurrence_vars(body)
            queries.append(BCQ(variables, body))

    diags.extend(builder.diags)
    if diags:
        raise ParseError(diags)
    return Program(RuleSet(rules), tuple(facts), tuple(queries))


# ---------------------------------------------------------------------------
# Serialisation


def serialize_rule(rule: Rule) -> str:
    body = ", ".join(str(a) for a in rule.body)
    if type(rule) is EGD:
        return f"{body} -> {rule.x.name} = {rule.y.name} ."
    if rule.existentials:
        ex = "exists " + ", ".join(v.name for v in rule.existentials) + " . "
    else:
        ex = ""
    head = ", ".join(str(a) for a in rule.head)
    return f"{body} -> {ex}{head} ."


def serialize_query(query: BCQ) -> str:
    ex = ""
    if query.variables:
        ex = "exists " + ", ".join(v.name for v in query.variables) + " . "
    body = ", ".join(str(a) for a in query.body)
    return f"? {ex}{body} ."


def serialize(program: Program) -> str:
    lines = [serialize_rule(r) for r in program.rules]
    lines.extend(f"{fact} ." for fact in program.facts)
    lines.extend(serialize_query(q) for q in program.queries)
    return "\n".join(lines) + ("\n" if lines else "")
