"""A fixed pure-Python kernel that measures how fast this machine runs
Python right now, independent of the code under test.

The kernel is a naive transitive closure over a fixed graph, written in
the style of the library: slotted objects with Python-level __eq__ and
__hash__, a first-argument index, and a recursive generator join.  That
keeps its slowdown under contention close to the slowdown of the jobs.
"""

from __future__ import annotations

import time


class _Fact:
    __slots__ = ("pred", "args", "_hash")

    def __init__(self, pred: str, args: tuple):
        self.pred = pred
        self.args = args
        self._hash = hash((pred, args))

    def __eq__(self, other) -> bool:
        return self.pred == other.pred and self.args == other.args

    def __hash__(self) -> int:
        return self._hash


def _join(body, index, binding, i):
    if i == len(body):
        yield binding
        return
    pred, (a, b) = body[i]
    first = binding.get(a)
    for fact in index.get((pred, first), ()) if first is not None else index.get(pred, ()):
        x, y = fact.args
        bound = binding.get(b)
        if bound is not None and bound != y:
            continue
        trail = [v for v, t in ((a, x), (b, y)) if v not in binding]
        binding[a], binding[b] = x, y
        yield from _join(body, index, binding, i + 1)
        for v in trail:
            del binding[v]


def _closure(n: int) -> int:
    facts: dict[_Fact, None] = {}
    index: dict = {}

    def add(f: _Fact) -> bool:
        if f in facts:
            return False
        facts[f] = None
        index.setdefault(f.pred, []).append(f)
        index.setdefault((f.pred, f.args[0]), []).append(f)
        return True

    for i in range(n):
        for j in ((i * 7 + 1) % n, (i * 3 + 2) % n):
            add(_Fact("E", (i, j)))
            add(_Fact("T", (i, j)))
    body = (("T", ("X", "Y")), ("E", ("Y", "Z")))
    changed = True
    while changed:
        changed = False
        new = [_Fact("T", (b["X"], b["Z"])) for b in _join(body, index, {}, 0)]
        for f in new:
            changed |= add(f)
    return len(facts)


def kernel_ms() -> float:
    """Wall time of one kernel run, in ms."""
    t0 = time.perf_counter()
    _closure(10)
    return (time.perf_counter() - t0) * 1000.0
