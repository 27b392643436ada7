"""Pin the chase-egd references: steps, atom count and stdout digest of
every instance in the pool, as the current code produces them.

Run from the repository root at the commit whose outputs are the
reference (the benchmark was pinned at the seed commit):

    python3 perfbench/pin.py

A later change keeps these values: the chase's semantics fix which
(rule, substitution) pairs fire, so steps, atoms and output bytes must not
move.  Re-pinning is only right when a change alters that on purpose.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from eqchase.cli import main  # noqa: E402

import workloads as w  # noqa: E402


def pin() -> dict:
    pinned = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for n in w.EGD_SIZES:
            for v in range(w.EGD_VARIANTS):
                name = f"egd-n{n}-v{v}"
                path = Path(tmp) / f"{name}.rules"
                path.write_text(w.egd_instance(n, v))
                code, out, err = w.run_cli(main, [w.EGD_ARGV[0], str(path), *w.EGD_ARGV[1:]])
                if code != w.EXIT_OK:
                    sys.exit(f"{name}: exit {code}: {err}")
                doc = json.loads(out)
                pinned[name] = {"steps": doc["steps"], "atoms": doc["atom_count"],
                                "digest": w.digest(out)}
    return pinned


if __name__ == "__main__":
    w.EGD_REFERENCE.parent.mkdir(exist_ok=True)
    w.EGD_REFERENCE.write_text(json.dumps(pin(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {w.EGD_REFERENCE.relative_to(ROOT)}")
