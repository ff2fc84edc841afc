"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 setup_probe.py WORKLOAD SEED

The clock starts before otfusion is imported, so the figure covers
import, config parsing and the workload's construction (task generation
and model assembly where it has them). Prints the set-up time in seconds.
"""

import sys
import time

start = time.perf_counter()

import benchenv  # noqa: E402

benchenv.configure()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(time.perf_counter() - start)
