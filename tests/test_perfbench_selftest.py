"""The benchmark's own self-test, run with the package's tests.

perfbench/selftest.py is loaded by path and its test cases are collected
here unchanged.  Among them is the tracer test that pins what a kernel
change must keep: four v1_hat sweeps per grid_cauchy cut, one u1_field per
field and point, and a1_hat spans present.
"""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_selftest", _PATH)
selftest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(selftest)

WorkloadsRunTiny = selftest.WorkloadsRunTiny
ChecksRejectFaults = selftest.ChecksRejectFaults
TracerAndRunner = selftest.TracerAndRunner
