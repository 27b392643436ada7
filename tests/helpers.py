"""Term and atom-set helpers that only the tests use."""

from eqchase import EQ, STAR, Atom, AtomSet, Constant, Functional
from eqchase.model import _map_atom


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
