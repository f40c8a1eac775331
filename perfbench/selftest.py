"""The checkers' self-test: every check accepts the program's real outputs
and rejects corrupted copies of them.

For each in-process workload one operation runs for real; each corruption
in the workload's CORRUPTIONS list (a flipped sign, an exponent off by one,
a table value replaced) is applied to the output of every part (field)
that has the corrupted key, and verify_part() must report an error each
time.  For cli-cold every
command of one round runs once: the good ones must pass, the two faulty
ones must fail, and each corruption of a result document must be rejected.

    python3 perfbench/run.py --selftest
"""

from __future__ import annotations

import json
import random

import clicold
import program
from workloads import WORKLOADS


def _inprocess(problems):
    for name, cls in WORKLOADS.items():
        wl = cls()
        wl.setup()
        tried = {what: 0 for what, _, _ in cls.CORRUPTIONS}
        for part in wl.parts(random.Random(0)):
            out = wl.run_part(part)
            errors = wl.verify_part(part, out)
            if errors:
                problems.append(f"{name}: real output rejected: {errors}")
            for what, key, corrupt in cls.CORRUPTIONS:
                if key is not None and key not in out:
                    continue
                tried[what] += 1
                if not wl.verify_part(part, corrupt(part, out)):
                    problems.append(f"{name} {part['label']}: {what} "
                                    "accepted")
        for what, n in tried.items():
            if not n:
                problems.append(f"{name}: {what} never tried")
            print(f"# {name}: {what}: rejected in {n} outputs")


def _cli(problems):
    cmds = clicold.commands(random.Random(0))
    results = {}
    for i, cmd in enumerate(cmds):
        child = program.run_child(clicold.argv_of(cmd[1]))
        failed, errors = clicold.verify(cmd, child.code, child.stdout)
        faulty = i >= len(cmds) - clicold.FAULTY
        if failed != faulty or (errors and not failed):
            problems.append(f"cli-cold {cmd[0]}: failed={failed} "
                            f"errors={errors}")
        if not failed and cmd[2] == 0:
            results[cmd[0]] = (cmd, json.loads(child.stdout)["result"])
        # a different exit code is always a failure
        if not clicold.verify(cmd, cmd[2] + 1, child.stdout)[0]:
            problems.append(f"cli-cold {cmd[0]}: wrong exit code accepted")
    for name, what, corrupt in clicold.CORRUPTIONS:
        cmd, res = results[name]
        if not cmd[3](corrupt(res)):
            problems.append(f"cli-cold {name}: {what} accepted")
        print(f"# cli-cold: {name}: {what}: rejected")


def main():
    program.import_timed()
    problems = []
    _inprocess(problems)
    _cli(problems)
    for p in problems:
        print(f"FAIL {p}")
    print(f"checker self-test: {len(problems)} problems")
    return 1 if problems else 0
