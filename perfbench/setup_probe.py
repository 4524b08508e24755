"""Time one cold set-up: import the package, build the gate set and goals.

run.py starts this in a fresh interpreter several times and reports the
median as `setup_s`:  python3 perfbench/setup_probe.py WORKLOAD
"""
import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

workloads.setup(workloads.WORKLOADS[sys.argv[1]])
print(repr(time.perf_counter() - t0))
