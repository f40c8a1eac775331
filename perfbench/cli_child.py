"""One tamewild command under the tracer, for the traced cli-cold round.

    python3 perfbench/cli_child.py DUMP ARG...

Runs `tamewild ARG...` as the console script would, with the import of
sympy and of tamewild.cli timed on the CPU clock before the tracer is
installed, and writes the import and dispatch times, the counts, the self
times and the spans to the JSON file DUMP.
"""

import sys
import time

import program

imports = program.import_timed()

import json  # noqa: E402 - after the timed imports

import tracing  # noqa: E402
from tamewild import cli  # noqa: E402

tracer = tracing.Tracer()
tracer.install()
start = time.process_time_ns()
code = cli.dispatch(sys.argv[2:])
dispatch_ms = (time.process_time_ns() - start) / 1e6
tracer.uninstall()
sys.stdout.flush()
with open(sys.argv[1], "w") as fh:
    json.dump({"import_ms": imports["cli.import_ms"],
               "import_sympy_ms": imports["cli.import_sympy_ms"],
               "dispatch_ms": dispatch_ms,
               "counts": tracer.counts, "self_ns": tracer.self_ns,
               "spans": tracer.span_rows()}, fh)
sys.exit(code)
