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

Lexing is one `re.findall` that cuts the text into lexemes, so that
every character lies in exactly one of them: a run of whitespace, a
comment, '->', a run of word characters or any other single character.
A token keeps only its text and its offset, the sum of the lengths of
the lexemes before it.  Line and column are worked out from an offset
only when a diagnostic is built; only a line feed ends a line.

Parsing is total: any input yields either a Program or a ParseError
carrying positioned diagnostics, never a crash.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional

from .model import (
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
    _vars_in_order,
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

_PUNCT = frozenset(("->", "(", ")", ",", ".", "=", "?"))
# Tokens that are no name: punctuation, the keyword and EOF.
_NOT_NAMES = _PUNCT | {"exists", ""}

# Lexemes: whitespace, a comment, '->', a run of word characters, any
# other character.  `\s` is `str.isspace` and `\w` is `str.isalnum` or '_'.
_LEXEME = re.compile(r"\s+|%[^\n]*|->|\w+|.", re.S)


def _lex(text: str) -> tuple[list[str], list[int], list[tuple[int, str]]]:
    """The tokens of the text, ending in the EOF token "", the offset of
    each, and an (offset, message) pair for each character no token
    admits.  A token's text is its kind: punctuation, or a name, which
    starts with a letter.  A word run whose first character is not a
    letter ('1a', '²x', 'Ⅻ') yields a diagnostic for each character up
    to its first letter and a name from there.  The EOF of a text that
    ends in a comment has the offset of its '%'."""
    tokens: list[str] = []
    offsets: list[int] = []
    bad: list[tuple[int, str]] = []
    off = 0
    lexemes = _LEXEME.findall(text)
    for lexeme in lexemes:
        c = lexeme[0]
        if c.isalpha() or lexeme in _PUNCT:
            tokens.append(lexeme)
            offsets.append(off)
        elif not (c.isspace() or c == "%"):
            for k, c in enumerate(lexeme):
                if c.isalpha():
                    tokens.append(lexeme[k:])
                    offsets.append(off + k)
                    break
                bad.append((off + k, f"unexpected character {c!r}"))
        off += len(lexeme)
    if lexemes and lexemes[-1][0] == "%":
        off -= len(lexemes[-1])
    tokens.append("")
    offsets.append(off)
    return tokens, offsets, bad


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """Reads the tokens of `_lex` by index and builds each statement once
    it has parsed.  Each name in an atom is resolved to its term or
    predicate once per parse.  A diagnostic is kept as (offset, message)
    until the parse ends; syntax and predicate diagnostics are kept
    apart, so that every syntax diagnostic is reported first."""

    def __init__(self, text: str):
        self.text = text
        self.tokens, self.offsets, self.bad = _lex(text)
        self.syntax: list[tuple[int, str]] = []
        self.semantic: list[tuple[int, str]] = []
        self.starts: Optional[list[int]] = None
        self.terms: dict[str, object] = {}  # name -> its Constant or Variable
        # name -> (its predicate, the offset of its first use)
        self.predicates: dict[str, tuple[Predicate, int]] = {}
        self.rules: list[Rule] = []
        self.facts: list[Atom] = []
        self.queries: list[BCQ] = []

    def position(self, offset: int) -> tuple[int, int]:
        """The line and column of an offset; the offsets at which lines
        start are found for the first diagnostic."""
        if self.starts is None:
            self.starts = [0, *(m.end() for m in re.finditer("\n", self.text))]
        line = bisect_right(self.starts, offset)
        return line, offset - self.starts[line - 1] + 1

    def expected(self, i: int, what: str) -> None:
        t = self.tokens[i]
        self.syntax.append((self.offsets[i], f"expected {what}, found {t!r}" if t else f"expected {what}"))

    def conjunction(self, i: int) -> tuple[int, Optional[list[tuple]]]:
        """The atoms from token i on, separated by ',', each as (index of
        its name, its terms), and the index after them; or None and the
        index of the offending token.  A predicate is any name directly
        followed by '('; case only tells a term's kind (lowercase
        constant, uppercase variable)."""
        tokens, terms, atoms = self.tokens, self.terms, []
        while True:
            if tokens[i] in _NOT_NAMES:
                self.syntax.append((self.offsets[i], "expected a predicate name"))
                return i, None
            if tokens[i + 1] != "(":
                self.expected(i + 1, "'('")
                return i + 1, None
            args = []
            j = i + 2
            while True:
                t = tokens[j]
                term = terms.get(t)
                if term is None:
                    if t in _NOT_NAMES:
                        self.syntax.append((self.offsets[j], "expected a constant or variable"))
                        return j, None
                    term = terms[t] = Variable(t) if t[0].isupper() else Constant(t)
                args.append(term)
                t = tokens[j + 1]
                j += 2
                if t != ",":
                    break
            if t != ")":
                self.expected(j - 1, "')'")
                return j - 1, None
            atoms.append((i, args))
            if tokens[j] != ",":
                return j, atoms
            i = j + 1

    def variables(self, i: int) -> tuple[int, Optional[list[Variable]]]:
        """A comma-separated list of variables, then a '.'."""
        tokens, out = self.tokens, []
        while True:
            t = tokens[i]
            if not t[:1].isupper():
                self.expected(i, "a variable")
                return i, None
            out.append(Variable(t))
            i += 1
            if tokens[i] != ",":
                break
            i += 1
        if tokens[i] != ".":
            self.expected(i, "'.'")
            return i, None
        return i + 1, out

    def build(self, raw: list[tuple]) -> Optional[list[Atom]]:
        """The atoms of a parsed statement, or None if a predicate is
        misused; every atom is checked."""
        tokens, offsets, predicates = self.tokens, self.offsets, self.predicates
        atoms = []
        for i, args in raw:
            name, arity = tokens[i], len(args)
            if name == RESERVED_EQ_NAME and arity != 2:
                self.semantic.append(
                    (offsets[i], f"{RESERVED_EQ_NAME!r} is the reserved equality predicate and must be binary")
                )
                atoms = None
                continue
            seen = predicates.get(name)
            if seen is None:
                seen = predicates[name] = (Predicate(name, arity), offsets[i])
            elif seen[0].arity != arity:
                line = self.position(seen[1])[0]
                self.semantic.append(
                    (offsets[i], f"predicate {name!r} used with arity {arity}, but line {line} uses arity {seen[0].arity}")
                )
                atoms = None
                continue
            if atoms is not None:
                atoms.append(Atom(seen[0], args))
        return atoms

    def statement(self, i: int) -> int:
        """Parses and builds the statement at token i; returns the index
        after it, or ~k for the index k at which a syntax error was found."""
        tokens = self.tokens
        if tokens[i] == "?":
            exists = None
            i += 1
            if tokens[i] == "exists":
                i, exists = self.variables(i + 1)
                if exists is None:
                    return ~i
            i, raw = self.conjunction(i)
            if raw is None:
                return ~i
            if tokens[i] != ".":
                self.expected(i, "'.'")
                return ~i
            body = self.build(raw)
            if body is not None:
                self.queries.append(BCQ(exists or _vars_in_order(body), body))
            return i + 1
        i, raw = self.conjunction(i)
        if raw is None:
            return ~i
        t = tokens[i]
        if t == ".":
            if len(raw) != 1:
                self.syntax.append((self.offsets[i], "a fact statement holds exactly one atom"))
                return ~(i + 1)
            fact = self.build(raw)
            if fact is not None:
                self.facts.append(fact[0])
            return i + 1
        if t != "->":
            self.syntax.append((self.offsets[i], "expected '->' or '.'"))
            return ~i
        i += 1
        t = tokens[i]
        if t == "exists":
            i, exists = self.variables(i + 1)
            if exists is None:
                return ~i
        elif t[:1].isupper() and tokens[i + 1] == "=":
            y = tokens[i + 2]
            if not y[:1].isupper():
                self.expected(i + 2, "a variable")
                return ~(i + 2)
            if tokens[i + 3] != ".":
                self.expected(i + 3, "'.'")
                return ~(i + 3)
            body = self.build(raw)
            if body is not None:
                self.rules.append(EGD(body, Variable(t), Variable(y)))
            return i + 4
        else:
            exists = ()
        i, head_raw = self.conjunction(i)
        if head_raw is None:
            return ~i
        if tokens[i] != ".":
            self.expected(i, "'.'")
            return ~i
        body = self.build(raw)
        if body is not None:
            head = self.build(head_raw)
            if head is not None:
                self.rules.append(TGD(body, exists, head))
        return i + 1


def parse(text: str) -> Program:
    """Parse a program; raises ParseError with every diagnostic found."""
    p = _Parser(text)
    tokens, i = p.tokens, 0
    while tokens[i]:
        if tokens[i] == ".":  # stray terminator
            p.syntax.append((p.offsets[i], "empty statement"))
            i += 1
            continue
        i = p.statement(i)
        if i < 0:  # skip to just past the next statement terminator
            try:
                i = tokens.index(".", ~i) + 1
            except ValueError:
                i = len(tokens) - 1
    found = p.bad + p.syntax + p.semantic
    if found:
        raise ParseError(Diagnostic(*p.position(off), message) for off, message in found)
    return Program(RuleSet(p.rules), tuple(p.facts), tuple(p.queries))


# ---------------------------------------------------------------------------
# Serialisation


def serialize_rule(rule: Rule) -> str:
    return f"{rule!r} ."


def serialize_query(query: BCQ) -> str:
    return f"{query} ."


def serialize(program: Program) -> str:
    lines = [serialize_rule(r) for r in program.rules]
    lines.extend(f"{fact} ." for fact in program.facts)
    lines.extend(serialize_query(q) for q in program.queries)
    return "\n".join(lines) + ("\n" if lines else "")
