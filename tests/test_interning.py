"""Symbols and terms are interned, so equality between them is identity.

For each of `Predicate`, `SkolemSymbol`, `Constant`, `Variable` and
`Functional`: equal fields give the same object and unequal fields never
do; `copy`, `deepcopy` and `pickle` give that object back; an invalid
construction still raises once a valid one with the same name exists;
and a table entry goes once its last reference is dropped.  A constant
and a variable of one name stay distinct objects, whichever is built
first.
"""

import copy
import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqchase import Constant, Functional, Predicate, SkolemSymbol, Variable

_names = st.sampled_from(["a", "b", "P", "f", "X", "*", "eq"])
_predicate = st.tuples(_names, st.integers(1, 3)).filter(lambda f: f[0] != "eq" or f[1] == 2)
_symbol = st.tuples(_names, st.integers(1, 2))
_leaf = st.one_of(st.builds(Constant, _names), st.builds(Variable, _names))


@st.composite
def _functional(draw):
    fn = SkolemSymbol(*draw(_symbol))
    return fn, tuple(draw(st.lists(_leaf, min_size=fn.arity, max_size=fn.arity)))


# Each class with a strategy for its constructor's fields.
_CASES = {
    "Predicate": (Predicate, _predicate),
    "SkolemSymbol": (SkolemSymbol, _symbol),
    "Constant": (Constant, st.tuples(_names)),
    "Variable": (Variable, st.tuples(_names)),
    "Functional": (Functional, _functional()),
}


@pytest.mark.parametrize("name", list(_CASES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_equal_fields_give_the_same_object(name, data):
    cls, fields = _CASES[name]
    f, g = data.draw(fields), data.draw(fields)
    x, y = cls(*f), cls(*g)
    assert (x is y) == (f == g)
    assert (x == y) == (f == g)
    if f == g:
        assert hash(x) == hash(y)
    for back in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert back is x


@pytest.mark.parametrize("constant_first", [True, False])
@pytest.mark.parametrize("name", ["a", "X", "*", "eq", "f_W__2"])
def test_a_constant_and_a_variable_of_one_name_stay_apart(name, constant_first):
    # The second name is built first here, in this order.
    for n in (name, f"{name}#{constant_first}"):
        if constant_first:
            c, v = Constant(n), Variable(n)
        else:
            v, c = Variable(n), Constant(n)
        assert type(c) is Constant and type(v) is Variable and c is not v
        assert Constant(n) is c and Variable(n) is v
        for t in (c, v):
            for back in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
                assert back is t
        assert c.order_key == (1, 0, n) and v.order_key == (1, 1, n)
        assert repr(c) == f"Constant({n!r})" and repr(v) == f"Variable({n!r})"


def test_invalid_predicate_raises_after_a_valid_one_exists():
    valid = Predicate("P", 2)
    with pytest.raises(ValueError):
        Predicate("P", 0)
    assert Predicate("P", 2) is valid
    eq = Predicate("eq", 2)
    for arity in (1, 3):
        with pytest.raises(ValueError):
            Predicate("eq", arity)
    assert Predicate("eq", 2) is eq


def test_invalid_skolem_symbol_raises_after_a_valid_one_exists():
    """A Skolem term has at least one argument, so a symbol of arity 0 or
    less is rejected when it is made, not when a term is built from it."""
    valid = SkolemSymbol("f", 1)
    for arity in (0, -1):
        with pytest.raises(ValueError, match="arity >= 1"):
            SkolemSymbol("f", arity)
    assert SkolemSymbol("f", 1) is valid
    assert ("f", 0) not in SkolemSymbol._interned


def test_functional_with_the_wrong_argument_count_raises_after_a_valid_one():
    fn = SkolemSymbol("f", 1)
    valid = Functional(fn, [Constant("a")])
    with pytest.raises(ValueError):
        Functional(fn, [Constant("a"), Constant("a")])
    assert Functional(fn, (Constant("a"),)) is valid


def test_a_table_entry_goes_with_its_last_reference():
    name = "only-in-test-interning"
    # The Functional's key holds its symbol and arguments, which are kept.
    fn, args = SkolemSymbol(name + "-fn", 1), (Constant(name + "-arg"),)
    made = [
        (Predicate, (name, 1), Predicate(name, 1)),
        (SkolemSymbol, (name, 2), SkolemSymbol(name, 2)),
        (Constant, name, Constant(name)),
        (Variable, name, Variable(name)),
        (Functional, (fn, args), Functional(fn, args)),
    ]
    refs = []
    for cls, key, obj in made:
        assert cls._interned[key] is obj
        refs.append((cls, key, weakref.ref(obj)))
    del made, obj
    gc.collect()
    for cls, key, ref in refs:
        assert ref() is None
        assert key not in cls._interned
