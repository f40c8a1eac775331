"""Run one workload over several seeds and print each metric's median and
quartile spread (the distance between the first and third quartile as a
share of the median), the figures the README's reference tables record.

    python3 perfbench/spread.py WORKLOAD SECONDS SEED[,SEED...] [TRACE]

Runs one at a time, each in its own process, from the checkout root.
"""

import json
import os
import statistics
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main():
    workload, seconds, seeds = sys.argv[1], sys.argv[2], sys.argv[3]
    trace = sys.argv[4] if len(sys.argv) > 4 else "0"
    values, runs = {}, []
    start = time.perf_counter()
    for seed in seeds.split(","):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", seed,
             "--seconds", seconds, "--trace", trace],
            capture_output=True, text=True, check=False)
        if proc.returncode:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append((res["attempted"], res["failed"], res["correct"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{workload}: (attempted, failed, correct) per run {runs}, "
          f"{time.perf_counter() - start:.0f} s")
    for name, vals in values.items():
        med = statistics.median(vals)
        line = f"  {name:34s} median {med:<12.6g}"
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            line += f" spread {100 * (q3 - q1) / med:5.2f}%"
        print(line + f"  [{min(vals):.6g} .. {max(vals):.6g}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
