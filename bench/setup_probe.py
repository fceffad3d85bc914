"""Time one cold set-up of a workload in a fresh interpreter.

Usage: ``python3 bench/setup_probe.py <src-dir> [<scenario>]``

Prints the seconds from before ``import blindmm.cli`` (which imports numpy)
to the end of ``scenarios.resolve_cases(<scenario>)``, which builds the
scenario's models through ``scenarios.preset``. Without a scenario only the
import is timed (the identity-check workload builds no model).
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import blindmm.cli  # noqa: E402
from blindmm import scenarios  # noqa: E402

if len(sys.argv) > 2:
    scenarios.resolve_cases(sys.argv[2])
print(repr(time.perf_counter() - t0))
