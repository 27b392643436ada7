r"""The chase-egd, query, check, derivation and parse pins and the engine's
differential cases, run without pytest.

For an interpreter that has no pytest installed, e.g. to try the
generated join kernels (built with `exec`, nested as deep as CPython
allows) or the lexer (whose `\w`, `\s` and `str.isalpha` follow the
interpreter's Unicode tables) on another Python version:

    PYTHONPATH=src python3.13 tests/run_pins.py

Calls the pin tests of `test_bench_pins.py`, `test_query_pins.py`,
`test_check_pins.py`, `test_derivation_pins.py` and `test_parse_pins.py`
once per case, the first three through `eqchase.cli.main`, and checks
each case of `differential.py`: the engine selects the naive run's step
sequence and stops on its limit.  Prints one line per suite and exits 1 if any case misses.
"""

from __future__ import annotations

import sys
import tempfile
import traceback
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    import pytest  # noqa: F401
except ImportError:
    # The pin files only decorate their tests with `pytest.mark.parametrize`.
    stub = types.ModuleType("pytest")
    stub.mark = types.SimpleNamespace(parametrize=lambda *args, **kwargs: lambda fn: fn)
    sys.modules["pytest"] = stub

import differential  # noqa: E402
import test_bench_pins  # noqa: E402
import test_check_pins  # noqa: E402
import test_derivation_pins  # noqa: E402
import test_parse_pins  # noqa: E402
import test_query_pins  # noqa: E402

DIFFERENTIAL = list(differential._differential_cases())


def differential_case_count() -> None:
    assert len(DIFFERENTIAL) == differential.CASES


# (name, checks of the case list, the pin test, its arguments per case;
# each test also takes a scratch directory)
SUITES = [
    ("chase-egd", [test_bench_pins.test_the_pool_is_the_pinned_one],
     test_bench_pins.test_chase_egd_output_matches_the_pin, test_bench_pins.POOL),
    ("query", [test_query_pins.test_the_cases_are_the_pinned_ones],
     test_query_pins.test_query_output_matches_the_pin,
     [(case,) for case in sorted(test_query_pins.CASES)]),
    ("check", [test_check_pins.test_the_cases_are_the_pinned_ones],
     test_check_pins.test_check_output_matches_the_pin,
     [(case,) for case in sorted(test_check_pins.CASES)]),
    ("derivation", [test_derivation_pins.test_the_cases_are_the_pinned_ones],
     lambda case, tmp: test_derivation_pins.test_derivations_match_the_pin(case),
     [(case,) for case in sorted(test_derivation_pins.CASES)]),
    ("parse", [test_parse_pins.test_the_cases_are_the_pinned_ones,
               test_parse_pins.test_the_pins_cover_both_outcomes],
     lambda case, tmp: test_parse_pins.test_parse_matches_the_pin(case),
     [(case,) for case in sorted(test_parse_pins.CASES)]),
    ("differential", [differential_case_count],
     lambda i, tmp: differential.check_case(*DIFFERENTIAL[i]),
     [(i,) for i in range(len(DIFFERENTIAL))]),
]


def main() -> int:
    failed = 0
    for name, checks, test, cases in SUITES:
        bad = []
        for check in checks:
            try:
                check()
            except AssertionError:
                bad.append(check.__name__)
        with tempfile.TemporaryDirectory() as tmp:
            for case in cases:
                try:
                    test(*case, Path(tmp))
                except AssertionError:
                    bad.append(str(case))
                    traceback.print_exc()
        print(f"{name}: {len(cases) - len(bad)} of {len(cases)} cases match"
              + (f"; failed: {', '.join(bad)}" if bad else ""))
        failed += len(bad)
    print(f"Python {sys.version.split()[0]}: {'FAILED' if failed else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
