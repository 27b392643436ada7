"""The chase-egd benchmark instances keep their pinned outputs.

Runs `eqchase chase --format json --no-timing` in-process on every
instance of the benchmark pool (`perfbench/workloads.egd_instance`) and
checks steps, atom count and the digest of stdout against
`perfbench/reference/chase_egd.json`, which is only read.  The chase's
semantics fix which (rule, substitution) pairs fire, so a change to the
engine must leave all three unchanged.
"""

from __future__ import annotations

import json

import pytest

from eqchase.cli import main
from perfbench_loader import load_workloads

w = load_workloads()
PINNED = json.loads(w.EGD_REFERENCE.read_text())
POOL = [(n, v) for n in w.EGD_SIZES for v in range(w.EGD_VARIANTS)]


def test_the_pool_is_the_pinned_one():
    assert sorted(f"egd-n{n}-v{v}" for n, v in POOL) == sorted(PINNED)


@pytest.mark.parametrize("n,v", POOL, ids=[f"egd-n{n}-v{v}" for n, v in POOL])
def test_chase_egd_output_matches_the_pin(n, v, tmp_path):
    path = tmp_path / "instance.rules"
    path.write_text(w.egd_instance(n, v))
    code, out, err = w.run_cli(main, [w.EGD_ARGV[0], str(path), *w.EGD_ARGV[1:]])
    assert code == w.EXIT_OK, err
    doc = json.loads(out)
    got = {"steps": doc["steps"], "atoms": doc["atom_count"], "digest": w.digest(out)}
    assert got == PINNED[f"egd-n{n}-v{v}"]
