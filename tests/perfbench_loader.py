"""Read-only access to the benchmark's modules.

`perfbench/` is not a package, so its `workloads.py` and `tracer.py` are
loaded from their files.  Each module is loaded once per process and
shared by every test that imports it.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(stem: str):
    name = f"perfbench_{stem}"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{stem}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return module


def load_workloads():
    """The module `perfbench/workloads.py`."""
    return _load("workloads")


def load_tracer():
    """The module `perfbench/tracer.py`."""
    return _load("tracer")
