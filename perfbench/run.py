#!/usr/bin/env python3
"""Benchmark for the ``scrambles`` package: time to exact answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                   # every workload, one process each

With ``--workload`` it runs one workload in this single process: it
writes the seeded inputs, times set-up (import ``scrambles`` from
``src/`` and parse every input file) at least nine times, then runs
rounds of the workload's operations, each operation once per round,
until the next round would end after ``--seconds`` (always at least one
round), checks every output with code that never imports the package,
and prints one JSON object as its last line of standard output.  Times
are divided by the slow-down that ``Gauge`` measures alongside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
one untraced round, then wraps the package's public functions
(``tracing.py``), parses every input file once more and runs every
operation once more, traced; it reports the per-layer metrics, writes
the spans to ``perfbench/out/`` and takes the difference between the
traced and the untraced round as ``trace.overhead_s``.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# set-up is timed at least SETUP_REPS times and for at least SETUP_MIN_S
SETUP_REPS = 9
SETUP_MIN_S = 1.0
# About the fastest time the gauge loop was seen to take on the machine
# the README's figures come from, and how often a run times the loop.
GAUGE_REF_S = 0.0017
GAUGE_EVERY_S = 0.05

import tracing  # noqa: E402  (the script's own directory is on sys.path)
from workloads import FAULT_MESSAGE, WORKLOADS  # noqa: E402


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def fresh_import():
    """Import ``scrambles`` from this checkout's ``src/``, dropping any
    copy imported before."""
    for name in [m for m in sys.modules if m == "scrambles" or m.startswith("scrambles.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("scrambles")
    if Path(pkg.__file__).resolve().parent != SRC / "scrambles":
        fail(f"imported scrambles from {pkg.__file__}, not from {SRC}")
    for layer in tracing.LAYERS:
        importlib.import_module(f"scrambles.{layer}")
    return pkg


def parse_files(pkg, files):
    parsed = {}
    for path, kind, graph in files:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if kind == "graph":
            parsed[path] = pkg.graphs.parse_edge_list(text)
        elif kind == "scramble":
            parsed[path] = pkg.scramble.parse_scramble(text, parsed[graph])
        else:
            parsed[path] = pkg.chipfiring.parse_divisor(text, parsed[graph].n)
    return parsed


def gauge_loop():
    """Fixed pure-Python work of about 2 ms: integer arithmetic and dict
    stores, like the package's own inner loops."""
    total, table = 0, {}
    for i in range(16000):
        total += i * i % 7
        table[i & 1023] = total
    return total


def gauge_time():
    start = time.perf_counter()
    gauge_loop()
    return time.perf_counter() - start


class Gauge:
    """How much slower than when its tenants leave it alone the machine
    runs, over one round.

    On a machine whose vCPUs are shared with other tenants, for stretches of
    seconds to minutes every call runs up to twice as slowly, partly as
    steal time and partly not, and a stretch can cover a whole run.  So
    a round times ``gauge_loop``, at most every GAUGE_EVERY_S seconds;
    the loop's fastest time in the round against GAUGE_REF_S is the
    round's slow-down, by which every time measured in the round is
    divided."""

    def __init__(self):
        self.last = float("-inf")
        self.wall = self.cpu = float("inf")

    def tick(self):
        if time.perf_counter() - self.last < GAUGE_EVERY_S:
            return
        wall0, cpu0 = time.perf_counter(), time.process_time()
        gauge_loop()
        self.last = time.perf_counter()
        self.wall = min(self.wall, self.last - wall0)
        self.cpu = min(self.cpu, time.process_time() - cpu0)

    def slow_down(self):
        """(wall, cpu) slow-down of the round."""
        return self.wall / GAUGE_REF_S, self.cpu / GAUGE_REF_S


def setup(files):
    """Median of the timed set-ups, each divided by the slow-down that
    ``gauge_loop`` shows just before and just after it (their mean time
    against GAUGE_REF_S), and the median as measured.  The last set-up's
    objects are the ones the operations use."""
    gauges, times = [gauge_time()], []
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S:
        gc.collect()
        start = time.perf_counter()
        pkg = fresh_import()
        parsed = parse_files(pkg, files)
        times.append(time.perf_counter() - start)
        gauges.append(gauge_time())
    scaled = statistics.median(t * 2 * GAUGE_REF_S / (a + b) for t, a, b in zip(times, gauges, gauges[1:]))
    return scaled, statistics.median(times), pkg, parsed


def run_round(ops):
    """Run every operation once.  Each execution is timed from outside
    the call and starts after a full collection, so that the collector's
    work inside it does not depend on what ran before.  Returns the
    round's slow-down (``Gauge``) and, per operation, (wall, cpu, output
    or the exception)."""
    gauge = Gauge()
    executions = []
    for op in ops:
        gauge.tick()
        gc.collect()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result = op.run()
        except Exception as exc:  # noqa: BLE001 - an operation that fails is counted, not fatal
            result = exc
        executions.append((time.perf_counter() - wall0, time.process_time() - cpu0, result))
    return gauge.slow_down(), executions


def op_times(rounds, scale=True):
    """(wall, cpu) per operation: the fastest of its executions, one per
    round, each divided by its round's slow-down unless ``scale`` is
    false.  The fastest execution picks the moments in a run when the
    machine's tenants leave it alone; the slow-down takes out what they
    take even then."""
    times = []
    for i in range(len(rounds[0][1])):
        runs = [(ex[i][0] / (slow if scale else 1), ex[i][1] / (slow_cpu if scale else 1))
                for (slow, slow_cpu), ex in rounds]
        times.append((min(w for w, _ in runs), min(c for _, c in runs)))
    return times


def verdict(workload, ops, rounds):
    """(correct, failed, problems) over every execution.  Only the known
    round-cap fault may fail; every other output is checked, the first
    one in full and the others for equality with it."""
    problems = []
    failed = 0
    first = {}
    for _, round_ in rounds:
        for op, (_, _, result) in zip(ops, round_):
            if isinstance(result, Exception):
                failed += 1
                known = op.fault and isinstance(result, RuntimeError) and FAULT_MESSAGE in str(result)
                if not known:
                    problems.append(f"{op.label}: unexpected {type(result).__name__}: {result}")
                if not isinstance(first.setdefault(op.label, result), Exception):
                    problems.append(f"{op.label}: failed only in some executions")
            elif op.label not in first:
                first[op.label] = result
            elif first[op.label] != result:
                problems.append(f"{op.label}: output changed between executions")
    outputs = {label: out for label, out in first.items() if not isinstance(out, Exception)}
    try:
        problems += workload.check(outputs)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        problems.append(f"output could not be read: {type(exc).__name__}: {exc}")
    return not problems, failed, problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args):
    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        setup_s, setup_measured, pkg, parsed = setup(workload.files)
        ops = workload.ops(pkg, parsed)
        # the collections before each execution then skip the set-up's objects
        gc.freeze()

        rounds = []
        began = time.perf_counter()
        while True:
            start = time.perf_counter()
            rounds.append(run_round(ops))
            now = time.perf_counter()
            if args.trace or now - began + (now - start) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if args.trace:
            tracer = tracing.Tracer(pkg)
            tracer.install()
            parse_files(pkg, workload.files)
            rounds.append(run_round(workload.ops(pkg, parsed)))
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct, failed, problems = verdict(workload, ops, rounds)
    for line in problems:
        print(f"check: {line}", file=sys.stderr)
    if args.trace:
        untraced, traced = (sum(wall for wall, _, _ in round_) / slow for (slow, _), round_ in rounds)
        metrics, calls = tracer.per_layer(traced - untraced)
        outdir = HERE / "out"
        outdir.mkdir(exist_ok=True)
        tracer.write(outdir / f"trace-{args.workload}-{args.seed}.json")
        print(json.dumps({"calls": calls}), file=sys.stderr)
    else:
        times = op_times(rounds)
        measured = op_times(rounds, scale=False)
        slow = statistics.median(slow for (slow, _), _ in rounds)
        print(f"{args.workload}: median slow-down {slow:.3f}; as measured: "
              f"solve_s {sum(w for w, _ in measured):.4f}, op_p50_s {statistics.median(w for w, _ in measured):.6f}, "
              f"setup_s {setup_measured:.4f}", file=sys.stderr)
        metrics = {
            "solve_s": metric(sum(w for w, _ in times), "s"),
            "solve_cpu_s": metric(sum(c for _, c in times), "s"),
            "op_p50_s": metric(statistics.median(w for w, _ in times), "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    print(f"{args.workload}: {len(rounds)} round(s) of {len(ops)} operations", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(round_) for _, round_ in rounds),
        "failed": failed,
        "metrics": metrics,
    }))


def run_all(args):
    """Each workload in its own fresh process; print a table of results."""
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}")
            continue
        report = json.loads(lines[-1])
        print(f"{name}: correct={report['correct']} attempted={report['attempted']} failed={report['failed']}")
        for key, m in report["metrics"].items():
            print(f"  {key:48} {m['value']:>14.6g} {m['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-check")
    args = parser.parse_args()
    if not (SRC / "scrambles" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'scrambles'}")
    sys.path.insert(0, str(SRC))
    # set-up is timed with the package's bytecode cached, as after an
    # install, whatever PYTHONDONTWRITEBYTECODE says
    sys.dont_write_bytecode = False
    if args.workload is None:
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
