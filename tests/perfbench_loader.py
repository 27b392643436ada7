"""Read-only access to the benchmark's job definitions.

`perfbench/` is not a package, so its `workloads.py` is loaded from its
file.  The module is loaded once per process and shared by every test
that imports it.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_NAME = "perfbench_workloads"


def load_workloads():
    """The module `perfbench/workloads.py`."""
    module = sys.modules.get(_NAME)
    if module is None:
        spec = importlib.util.spec_from_file_location(_NAME, PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[_NAME] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return module
