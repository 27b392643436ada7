"""Helpers that only the tests use: term and atom-set operations, the
class-collapsing rewriting of an eq-closed set, a reference lexer, and
the parser's lexer output put in its form."""

from eqchase import EQ, STAR, Atom, AtomSet, Constant, Functional
from eqchase.parser import Diagnostic, _lex


def _map_atom(atom, m):
    """Argument-level term rewriting of one atom: an argument is replaced
    exactly when the whole argument is a key of `m`; occurrences nested
    inside functional terms are left untouched."""
    if not m:
        return atom
    changed = False
    new_args = []
    for a in atom.args:
        b = m.get(a, a)
        if b is not a:
            changed = True
        new_args.append(b)
    return Atom(atom.predicate, new_args) if changed else atom


def apply_term_map(s, m):
    """Argument-level term rewriting.

    Replaces a predicate argument exactly when the whole argument is a
    key of `m`; occurrences nested inside functional terms are left
    untouched, e.g. P(t, f(t)) under [t/u] becomes P(u, f(t)).  Accepts a
    single atom (returns an atom) or an iterable of atoms (returns an
    AtomSet, deduplicated).
    """
    if isinstance(s, Atom):
        return _map_atom(s, m)
    return AtomSet(_map_atom(atom, m) for atom in s)


def star_term(t):
    """Replace every syntactic occurrence of a constant with `*`."""
    if type(t) is Constant:
        return STAR
    if type(t) is Functional:
        return Functional(t.fn, [star_term(a) for a in t.args])
    return t


def star_atom(atom):
    return Atom(atom.predicate, [star_term(a) for a in atom.args])


def ep_completion(aset):
    """Close a set under eq reflexivity, symmetry and transitivity.  Each
    class is walked in term order, so the added atoms come in the same
    order on every run."""
    out = aset.copy()
    classes = {}
    for t in out.terms():
        classes.setdefault(t, {t})
    for atom in list(out.bucket(EQ)):
        t, u = atom.args
        merged = classes.setdefault(t, {t}) | classes.setdefault(u, {u})
        for v in merged:
            classes[v] = merged
    for t, cls in classes.items():
        for u in sorted(cls, key=lambda u: u.order_key):
            out.add(Atom(EQ, (t, u)))
    return out


# ---------------------------------------------------------------------------
# eq-closed sets, the class-collapsing rewriting, and bracket: the device
# of the proof that an axiomatised chase mirrors the chase with equality.


class EqIncompleteError(ValueError):
    """Raised when a rewriting is requested over a set that is not closed
    under eq reflexivity, symmetry and transitivity."""


def _eq_neighbours(aset):
    nbr = {}
    for atom in aset.bucket(EQ):
        t, u = atom.args
        nbr.setdefault(t, set()).add(u)
    return nbr


def is_ep_complete(aset):
    """True iff eq(t, t) is present for every argument term of the set
    and the set satisfies eq-symmetry and eq-transitivity."""
    nbr = _eq_neighbours(aset)
    for t in aset.terms():
        if t not in nbr or t not in nbr[t]:
            return False
    for t, us in nbr.items():
        for u in us:
            if t not in nbr.get(u, ()):
                return False  # symmetry violated
            for v in nbr.get(u, ()):
                if v not in us:
                    return False  # transitivity violated
    return True


def pi(aset):
    """The rewriting (a dict from ground term to ground term) sending
    every term of the set to the least member of its eq-class under the
    term order."""
    if not is_ep_complete(aset):
        raise EqIncompleteError("atom set is not eq-complete")
    nbr = _eq_neighbours(aset)
    return {t: min(nbr[t], key=lambda u: u.order_key) for t in aset.terms()}


def bracket(aset):
    """Apply the class-collapsing rewriting argument-level to every atom,
    then drop all eq atoms."""
    mapping = pi(aset)
    out = AtomSet()
    for atom in aset:
        if atom.predicate is EQ:
            continue
        out.add(Atom(atom.predicate, [mapping.get(t, t) for t in atom.args]))
    return out


_PUNCT = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT", "=": "EQUALS", "?": "QMARK"}


def reference_lex(text):
    """The parser's lexer as a loop over characters: the tokens, each
    (kind, text, line, col), ending in an EOF token, and the diagnostics.
    A comment does not advance the column, so an EOF right after one
    keeps the column of its '%'."""
    tokens, diags = [], []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(("ARROW", "->", line, col))
            i += 2
            col += 2
            continue
        if c in _PUNCT:
            tokens.append((_PUNCT[c], c, line, col))
            i += 1
            col += 1
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "exists":
                tokens.append(("EXISTS", word, line, col))
            elif word[0].isupper():
                tokens.append(("UIDENT", word, line, col))
            else:
                tokens.append(("LIDENT", word, line, col))
            col += j - i
            i = j
            continue
        diags.append(Diagnostic(line, col, f"unexpected character {c!r}"))
        i += 1
        col += 1
    tokens.append(("EOF", "", line, col))
    return tokens, diags


_KINDS = {**_PUNCT, "->": "ARROW", "exists": "EXISTS", "": "EOF"}


def lexed(text):
    """The output of the parser's `_lex` in the form `reference_lex`
    gives: each token as (kind, text, line, col), the diagnostics as
    Diagnostics.  Line and column are counted from the offset here, not
    by the parser's own conversion."""
    def position(offset):
        return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)

    def kind(token):
        return _KINDS.get(token) or ("UIDENT" if token[0].isupper() else "LIDENT")

    tokens, offsets, bad = _lex(text)
    return (
        [(kind(t), t, *position(o)) for t, o in zip(tokens, offsets)],
        [Diagnostic(*position(o), message) for o, message in bad],
    )
