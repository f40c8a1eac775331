"""tamewild's benchmark: four closed-loop workloads timed on the CPU clock.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --selftest

One process with one thread generates each workload from the seed and
hands the program only the generated inputs; every operation runs to its
end before the next starts (a closed loop with one client).  A run attempts
whole rounds until `--seconds` of wall time have passed and checks every
output (see README.md).  CPU times are scaled to a reference speed
(speed.py), so that load on the host does not read as a change of the
program.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

import clicold
import program
import speed
import tracing
from workloads import WORKLOADS

NAMES = list(WORKLOADS) + ["cli-cold"]
SETUP_PROBES = 5  # fresh interpreters whose median set-up CPU is setup_s


def _median_ms(ns):
    return statistics.median(ns) / 1e6


def _tail(wall_ns):
    """Wall-clock p50, and p90 where at least 100 operations ran; neither
    is bounded."""
    info = {"wall_p50_ms": _median_ms(wall_ns)}
    if len(wall_ns) >= 100:
        info["wall_p90_ms"] = statistics.quantiles(wall_ns, n=10)[-1] / 1e6
    return info


def setup_seconds(name):
    """The median over SETUP_PROBES fresh interpreters (probe.py) of the CPU
    time from interpreter start to the end of the workload's set-up, at the
    reference speed; and the raw CPU times."""
    argv = [sys.executable, os.path.join(os.path.dirname(__file__),
                                         "probe.py"), name]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        child = program.run_child(argv)
        if child.code != 0:
            raise RuntimeError(f"set-up of {name} failed: "
                               f"{child.stderr.decode(errors='replace')}")
        cpu_ns, *kernel = map(int, child.stdout.split()[-5:])
        scaled.append(speed.scale(cpu_ns, kernel[:2], kernel[2:]) / 1e9)
        raw.append(cpu_ns / 1e9)
    return statistics.median(scaled), raw


# ---------------------------------------------------------------------------
# untraced runs: the end-to-end metrics
# ---------------------------------------------------------------------------

class Tally:
    """Attempted, failed and wrong operations of one run, with their CPU
    times at the reference speed, raw CPU times and wall times in ns.
    `errors` names wrong results, `failures` the operations that failed;
    only the first make a run incorrect."""

    def __init__(self):
        self.cpu, self.raw, self.wall = [], [], []
        self.attempted = self.failed = 0
        self.errors, self.failures = [], []

    def add(self, cpu, wall_ns, failed=False, errors=()):
        """cpu is the (scaled, raw) pair from timed()."""
        self.attempted += 1
        self.failed += failed
        self.cpu.append(cpu[0])
        self.raw.append(cpu[1])
        self.wall.append(wall_ns)
        (self.failures if failed else self.errors).extend(errors)

    def metrics(self, setup_s, peak_rss_kb):
        ops = self.attempted - self.failed
        return {
            "ops_per_cpu_s": {"value": ops / (sum(self.cpu) / 1e9),
                              "unit": "1/s"},
            "op_cpu_p50_ms": {"value": _median_ms(self.cpu), "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_kb / 1024, "unit": "MB"},
        }


def _scaled(raw_ns, before):
    """(CPU ns at the reference speed, raw CPU ns) of work that ran just
    after the kernel sample `before`; the sample after it is at least 5% of
    the work's CPU time long."""
    return speed.scale(raw_ns, before, speed.sample(raw_ns // 20)), raw_ns


def timed(fn, *args):
    """(fn(*args) or the exception it raised, (scaled, raw) CPU ns, wall
    ns), on this process's CPU clock."""
    before = speed.sample()
    w0, c0 = time.perf_counter_ns(), time.process_time_ns()
    try:
        result = fn(*args)
    except Exception as exc:  # the caller counts a failed operation
        result = exc
    c1, w1 = time.process_time_ns(), time.perf_counter_ns()
    return result, _scaled(c1 - c0, before), w1 - w0


def run_op(wl, op, tally):
    """Time one in-process operation, then check it untimed."""
    out, cpu, wall = timed(wl.run, op)
    if isinstance(out, Exception):
        tally.add(cpu, wall, failed=True,
                  errors=[f"{op['label']}: failed: {out!r}"])
        return
    try:
        errors = wl.verify(op, out)
    except Exception as exc:  # a check the program could not answer
        errors = [f"{op['label']}: check raised {exc!r}"]
    tally.add(cpu, wall, errors=errors)


def measure_inprocess(name, seed, seconds):
    setup_s, probes = setup_seconds(name)
    program.import_timed()
    wl = WORKLOADS[name]()
    wl.setup()
    rng = random.Random(seed)
    tally = Tally()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for op in wl.round(rng):
            run_op(wl, op, tally)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return tally, tally.metrics(setup_s, rss), {"raw_setup_probes_s": probes}


def run_commands(cmds, tally, first=None, argv_of=clicold.argv_of):
    """Run one round of CLI commands; returns the largest child RSS."""
    rss = 0
    for i, cmd in enumerate(cmds):
        before = speed.sample()
        child = program.run_child(argv_of(cmd[1]))
        cpu = _scaled(int(child.cpu_s * 1e9), before)
        failed, errors = clicold.verify(cmd, child.code, child.stdout)
        if first is not None and not failed:
            if first.setdefault(i, child.stdout) != child.stdout:
                errors.append(f"{cmd[0]}: stdout differs from the first "
                              "round for the same argv")
        tally.add(cpu, int(child.wall_s * 1e9), failed=failed,
                  errors=errors)
        rss = max(rss, child.rss_kb)
    return rss


def measure_cli(seed, seconds):
    setup_s, probes = setup_seconds("cli-cold")
    cmds = clicold.commands(random.Random(seed))
    tally = Tally()
    first, rss = {}, 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        rss = max(rss, run_commands(cmds, tally, first))
    return tally, tally.metrics(setup_s, rss), {"raw_setup_probes_s": probes}


# ---------------------------------------------------------------------------
# traced runs: the per-layer metrics
# ---------------------------------------------------------------------------

def _unit(name):
    if name.endswith("_pct"):
        return "%"
    return "ms" if name.endswith("_ms") else "count"


def _trace_file(name, seed, rows):
    path = os.path.join(program.OUT, f"trace-{name}-seed{seed}.csv")
    with open(path, "w") as fh:
        fh.write("id,parent,op,name,start_ns,end_ns\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")
    return path


def trace_inprocess(name, seed):
    """Set-up and a fixed number of rounds under the tracer, after the same
    rounds untraced for the overhead; counts repeat exactly per seed."""
    layers = program.import_timed()
    wl = WORKLOADS[name]()
    tr = tracing.Tracer()
    tr.install()
    wl.setup()
    tr.uninstall()
    rng = random.Random(seed)
    ops = [op for _ in range(wl.TRACE_ROUNDS) for op in wl.round(rng)]
    plain = Tally()
    for op in ops:
        run_op(wl, op, plain)
    traced = Tally()
    tr.install()
    for i, op in enumerate(ops):
        tr.op = i
        out, cpu, wall = timed(tr.span("op", wl.run), op)
        traced.add(cpu, wall, failed=isinstance(out, Exception))
    tr.uninstall()
    traced.errors = plain.errors
    layers.update(tracing.layer_metrics(tr.counts, tr.self_ns))
    layers["cli.dispatch_ms"] = 0.0
    return plain, traced, layers, tr.span_rows()


def trace_cli(seed):
    cmds = clicold.commands(random.Random(seed))
    plain = Tally()
    run_commands(cmds, plain, {})
    traced = Tally()
    child_script = os.path.join(os.path.dirname(__file__), "cli_child.py")
    dumps = []

    def argv_of(argv):
        dump = os.path.join(program.OUT, f"cli-child-{len(dumps)}.json")
        dumps.append(dump)
        return [sys.executable, child_script, dump] + argv

    run_commands(cmds, traced, None, argv_of)
    counts, self_ns, rows = {}, {}, []
    imports, sympy_ms, dispatch = [], [], []
    for i, path in enumerate(dumps):
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            d = json.load(fh)
        os.remove(path)
        for src, dst in ((d["counts"], counts), (d["self_ns"], self_ns)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        rows += [(sid, parent, i, nm, s, e)
                 for sid, parent, _, nm, s, e in d["spans"]]
        imports.append(d["import_ms"])
        sympy_ms.append(d["import_sympy_ms"])
        dispatch.append(d["dispatch_ms"])
    layers = tracing.layer_metrics(counts, self_ns)
    layers.update({"cli.import_ms": statistics.median(imports),
                   "cli.import_sympy_ms": statistics.median(sympy_ms),
                   "cli.dispatch_ms": statistics.median(dispatch)})
    return plain, traced, layers, rows


def traced_run(name, seed):
    if name == "cli-cold":
        plain, traced, layers, rows = trace_cli(seed)
    else:
        plain, traced, layers, rows = trace_inprocess(name, seed)
    # the layers' times at the reference speed, like the end-to-end ones
    factor = sum(traced.cpu) / sum(traced.raw)
    layers = {k: v * factor if _unit(k) == "ms" else v
              for k, v in layers.items()}
    layers["trace.overhead_pct"] = (sum(traced.cpu) / sum(plain.cpu) - 1) * 100
    path = _trace_file(name, seed, rows)
    metrics = {k: {"value": v, "unit": _unit(k)}
               for k, v in sorted(layers.items())}
    return traced, metrics, {"spans": len(rows), "trace_file": path,
                             "untraced_cpu_s": sum(plain.cpu) / 1e9,
                             "traced_cpu_s": sum(traced.cpu) / 1e9}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def report(name, seed, trace, tally, metrics, info):
    result = {"correct": not tally.errors, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    ops = tally.attempted - tally.failed
    info = {"workload": name, "seed": seed, "trace": trace,
            "raw_ops_per_cpu_s": ops / (sum(tally.raw) / 1e9),
            "raw_op_cpu_p50_ms": _median_ms(tally.raw),
            "speed": sum(tally.raw) / sum(tally.cpu), **_tail(tally.wall),
            **info, "errors": tally.errors[:20],
            "failures": sorted(set(tally.failures))}
    os.makedirs(program.OUT, exist_ok=True)
    path = os.path.join(program.OUT, f"result-{name}-seed{seed}-trace{trace}"
                                     ".json")
    with open(path, "w") as fh:
        json.dump({"result": result, "info": info}, fh, indent=1)
    for err in tally.errors[:20] + sorted(set(tally.failures)):
        print(f"# {err}", file=sys.stderr)
    for k, m in metrics.items():
        print(f"# {name}: {k} = {m['value']:.6g} {m['unit']}")
    tail = f", wall p50 {info['wall_p50_ms']:.4g} ms"
    if "wall_p90_ms" in info:
        tail += f", wall p90 {info['wall_p90_ms']:.4g} ms"
    print(f"# {name}: attempted {tally.attempted}, failed {tally.failed}"
          f"{tail}")
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own process, one after another."""
    import subprocess
    results, ok = {}, True
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True,
            timeout=900, check=False)
        sys.stdout.write(proc.stdout.rpartition("\n{")[0] + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            ok = False
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and results[name]["correct"]
    print(json.dumps(results))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that every checker rejects corrupted "
                             "results")
    args = parser.parse_args()
    if not program.present():
        print(f"error: no tamewild sources under {program.SRC}",
              file=sys.stderr)
        return 2
    if args.selftest:
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    name = args.workload
    if args.trace:
        tally, metrics, info = traced_run(name, args.seed)
    elif name == "cli-cold":
        tally, metrics, info = measure_cli(args.seed, args.seconds)
    else:
        tally, metrics, info = measure_inprocess(name, args.seed,
                                                 args.seconds)
    report(name, args.seed, args.trace, tally, metrics, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
