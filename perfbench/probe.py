"""A set-up probe: one fresh interpreter doing one workload's set-up.

    python3 perfbench/probe.py WORKLOAD

Prints the CPU ns from interpreter start to the end of set-up (without the
kernel runs), then the total ns and the number of runs of the reference
kernel before and after the set-up.
The set-up of cli-cold is `import tamewild.cli` alone; that of the
in-process workloads is their imports, field contexts, GF tables and warm
oracle pivots.
"""

import os
import sys
import time

import speed

started = time.process_time_ns()  # interpreter start up to here
before = speed.sample(25_000_000)
start = time.process_time_ns()
if sys.argv[1] == "cli-cold":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    import tamewild.cli  # noqa: F401
else:
    import program
    from workloads import WORKLOADS
    program.import_timed()
    WORKLOADS[sys.argv[1]]().setup()
end = time.process_time_ns()
after = speed.sample(25_000_000)
print(started + end - start, *before, *after)
