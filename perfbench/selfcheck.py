#!/usr/bin/env python3
"""Fast self-check of the benchmark (about half a minute).

    python3 perfbench/selfcheck.py

1. The checker, the input generator and the workload definitions load
   without importing ``scrambles``.
2. The checker's exhaustive figures agree with explicit egg-set searches
   on small seeded graphs, and its chip-firing tests accept and reject
   known divisors.
3. Each workload, on its tiny inputs: the package's outputs pass the
   checks, and an output with one number changed by 100 fails them.
4. Each workload, on its tiny inputs, through the real command: the last
   line has the report's shape and every metric BENCHMARK.json names;
   two traced runs give the same exact work counters.
5. In a directory holding only BENCHMARK.json and the benchmark, the
   command fails without printing a result.
"""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check_independence():
    assert "scrambles" not in sys.modules, "checker or workloads imported scrambles"


def check_checker():
    rng = random.Random(11)
    for i in range(12):
        n, edges = inputs.random_multigraph(rng, rng.randint(4, 8), parallel=i % 2 == 0)
        g = checker.Graph(n, edges)
        figures = checker.uniform_numbers(g)
        for k in range(1, n + 1):
            eggs = inputs.connected_sets(n, edges, k)
            if not eggs:
                continue
            assert figures["hitting"][k] == checker.hitting_exhaustive(n, eggs)
            assert figures["egg_cut"][k] == checker.egg_cut_exhaustive(g, eggs)
    n, edges = inputs.hypercube(3)
    g = checker.Graph(n, edges)
    assert checker.has_positive_rank(g, (0, 0, 0, 0, 0, 0, 2, 2))
    assert not checker.has_positive_rank(g, (0, 0, 0, 0, 0, 1, 1, 1))
    D = (2, -1, 0, 3, 0, 1, 0, 0)
    fired = list(D)
    for v in (1, 3, 5, 7):
        for w in g.mult[v]:
            if w not in (1, 3, 5, 7):
                fired[v] -= 1
                fired[w] += 1
    assert checker.lattice_equivalent(g, D, fired)
    assert not checker.lattice_equivalent(g, D, (3, -1, 0, 2, 0, 1, 0, 0))
    assert not checker.is_q_reduced(g, (0, 1, 1, 1, 1, 1, 1, 1), 0)
    assert checker.is_q_reduced(g, (5, 0, 0, 0, 0, 0, 0, 0), 0)


def corrupt(value):
    """The same output with one number raised by 100: the last number of
    a command's text, the first of a returned value."""
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], str):
        code, text = value
        numbers = list(re.finditer(r"\d+", text))
        if not numbers:
            return value
        last = numbers[-1]
        return code, text[:last.start()] + str(int(last.group()) + 100) + text[last.end():]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float)):
        return value + 100
    if isinstance(value, (tuple, list)) and value:
        return type(value)([corrupt(value[0]), *value[1:]])
    return value


def check_verdicts():
    sys.path.insert(0, str(ROOT / "src"))
    import run

    for name, cls in WORKLOADS.items():
        workdir = HERE / "work" / f"selfcheck-{name}"
        try:
            workload = cls(3, True, workdir)
            _, _, pkg, parsed = run.setup(workload.files)
            ops = workload.ops(pkg, parsed)
            _, executions = run.run_round(ops)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        outputs = {op.label: out for op, (_, _, out) in zip(ops, executions) if not isinstance(out, Exception)}
        assert workload.check(outputs) == [], (name, workload.check(outputs))
        for label in outputs:
            broken = dict(outputs)
            broken[label] = corrupt(outputs[label])
            if broken[label] == outputs[label]:
                continue
            try:
                caught = workload.check(broken)
            except (ValueError, KeyError, IndexError, TypeError):
                caught = ["unreadable"]
            assert caught, f"{name}: changed output of {label!r} passed the checks"
        print(f"verdicts: {name} ok ({len(outputs)} outputs)")


def command(workload, trace, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def report_of(proc):
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True, proc.stderr
    assert isinstance(report["attempted"], int) and report["attempted"] >= 1
    assert isinstance(report["failed"], int)
    return report


def check_reports():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert layers == dict(tracing.per_layer_names()), "BENCHMARK.json per_layer differs from tracing.py"
    for name in WORKLOADS:
        report = report_of(command(name, 0))
        assert {k: m["unit"] for k, m in report["metrics"].items()} == e2e
        assert all(m["value"] > 0 for m in report["metrics"].values())
        traced = [report_of(command(name, 1)) for _ in range(2)]
        for report in traced:
            assert {k: m["unit"] for k, m in report["metrics"].items()} == layers
        for counter in tracing.EXACT:
            a, b = (r["metrics"][counter]["value"] for r in traced)
            assert a == b, f"{name}: {counter} {a} != {b}"
        print(f"report: {name} ok (failed {traced[0]['failed']} of {traced[0]['attempted']})")


def check_without_source():
    bare = HERE / "work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
        proc = command("random-survey", 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare directory: fails without a result")


def main():
    check_independence()
    check_checker()
    print("checker: ok")
    check_verdicts()
    check_reports()
    check_without_source()
    print("self-check passed")


if __name__ == "__main__":
    main()
