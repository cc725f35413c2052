"""One set-up sample: a fresh interpreter imports nullity and builds one
workload's rings (with their array tables) and groups, then exits.

    PYTHONPATH=src python3 perfbench/probe.py census-prime 0

``run.py`` times the whole process from outside; the probe prints the
time its import of nullity took.
"""

import sys
import time

import workloads

wl = workloads.WORKLOADS[sys.argv[1]]
t0 = time.perf_counter()
wl.import_modules()
print(time.perf_counter() - t0)
wl.setup(sys.argv[2] == "1")
