"""Locating, importing and running the program from a checkout's sources."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def present():
    """Whether the checkout holds tamewild's sources."""
    return os.path.isfile(os.path.join(SRC, "tamewild", "cli.py"))


def child_env():
    """The environment of a child interpreter that runs the program from
    source, with the precision default left at the program's own."""
    env = dict(os.environ)
    env.pop("TAMEWILD_PRECISION", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def import_timed():
    """Import sympy, then tamewild.cli (which loads every layer), on the
    process CPU clock; returns the two costs in ms."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    t0 = time.process_time_ns()
    import sympy  # noqa: F401
    t1 = time.process_time_ns()
    import tamewild.cli  # noqa: F401
    t2 = time.process_time_ns()
    return {"cli.import_ms": (t2 - t0) / 1e6,
            "cli.import_sympy_ms": (t1 - t0) / 1e6}


OUT = os.path.join(ROOT, "perfbench", "out")


class Child(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    cpu_s: float  # user + system CPU time of the child
    wall_s: float
    rss_kb: int   # peak resident set of the child


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_child(argv, timeout=120):
    """Run argv to its end in the checkout and take its resource usage from
    wait4; a child still running after `timeout` seconds is killed."""
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, \
            tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read(), err.read(),
                     usage.ru_utime + usage.ru_stime, wall, usage.ru_maxrss)
