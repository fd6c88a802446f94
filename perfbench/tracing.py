"""Spans and counters recorded around calls into the package, from
outside it.

``Tracer.install`` replaces every public module-level function of every
``scrambles`` module with a timing wrapper, in each namespace that binds
it.  A name another module rebinds with ``from .x import y`` (for
example ``scramble.min_separating_cut``) gets the same wrapper as the
original, so calls made inside the package are traced too.  Generator
functions are left alone: their work happens in the caller's span.

Spans stay in memory until ``write`` stores them at the end of a run.
Counters are taken at the same wrappers, from the arguments and return
values of the calls.
"""

import functools
import inspect
import json
import math
import time

LAYERS = ("graphs", "flow", "invariants", "scramble", "chipfiring", "verify", "cli")

# Functions whose inclusive and self times are reported as per-layer
# metrics, with the extra counters recorded at their wrappers.
TIMED = (
    "graphs.parse_edge_list",
    "graphs.enumerate_connected_subsets",
    "flow.min_separating_cut",
    "invariants.restricted_edge_connectivity",
    "invariants.max_component_independent_set",
    "scramble.parse_scramble",
    "scramble.uniform_scramble",
    "scramble.hitting_search",
    "scramble.egg_cut_number",
    "scramble.scramble_order",
    "chipfiring.gonality_bruteforce",
    "chipfiring.q_reduce",
    "chipfiring.gonality_upper_by_separator",
    "verify.verify_main",
    "verify.verify_bipartite",
    "cli.run_cli",
)
CALLS = (
    "flow.min_separating_cut",
    "invariants.restricted_edge_connectivity",
    "invariants.max_component_independent_set",
    "scramble.scramble_order",
    "chipfiring.q_reduce",
)
# Work counters that must repeat exactly between runs of one seed.
EXACT = (
    "flow.min_separating_cut.calls",
    "scramble.hitting_search.nodes",
    "chipfiring.divisors_tested",
    "graphs.enumerate_connected_subsets.sets",
    "invariants.lambda_masks",
)


def per_layer_names():
    """Every per-layer metric with its unit, in report order."""
    names = []
    for fn in TIMED:
        names.append((f"{fn}.s", "s"))
        names.append((f"{fn}.self_s", "s"))
    for fn in CALLS:
        names.append((f"{fn}.calls", "count"))
    names += [
        ("graphs.enumerate_connected_subsets.sets", "count"),
        ("flow.improved_ratio", "ratio"),
        ("invariants.lambda_masks", "count"),
        ("scramble.hitting_search.nodes", "count"),
        ("scramble.hitting_nodes_per_s", "1/s"),
        ("scramble.egg_pairs_disjoint", "count"),
        ("chipfiring.divisors_tested", "count"),
        ("chipfiring.q_reduce.failed", "count"),
        ("verify.cross_checks_run", "count"),
        ("verify.cross_checks_skipped", "count"),
    ]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names.append(("trace.overhead_s", "s"))
    return names


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def divisors_tested(n, result):
    """Effective divisors ``gonality_bruteforce`` enumerates before it
    stops: all of each degree below the answer, then those of the
    answer's degree up to the witness in ascending lexicographic order;
    every degree up to the cap when it runs out."""

    def of_degree(length, d):
        return math.comb(d + length - 1, length - 1) if length else int(d == 0)

    if result.exceeded_cap:
        return sum(of_degree(n, d) for d in range(result.max_degree + 1))
    d = result.value
    total = sum(of_degree(n, j) for j in range(d))
    left = d
    for i, chips in enumerate(result.witness[:-1]):
        for smaller in range(chips):
            total += of_degree(n - i - 1, left - smaller)
        left -= chips
    return total + 1


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self.stack = []
        self.active = {}
        self.counts = {}
        self.pending_scrambles = []
        self.saved = []

    def _bump(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _observe(self, name, args, kwargs, result, error):
        if name == "graphs.enumerate_connected_subsets" and error is None:
            self._bump("graphs.enumerate_connected_subsets.sets", len(result))
        elif name == "flow.min_separating_cut" and error is None:
            limit = _arg(args, kwargs, 3, "limit")
            self._bump("flow.improved", int(limit is None or result < limit))
        elif name == "invariants.restricted_edge_connectivity" and error is None:
            G, k = args[0], _arg(args, kwargs, 1, "k")
            if 2 * k <= G.n:
                self._bump("invariants.lambda_masks", 1 << (G.n - 1))
        elif name == "scramble.hitting_search" and error is None:
            self._bump("scramble.hitting_search.nodes", result.nodes)
        elif name == "scramble.egg_cut_number":
            self.pending_scrambles.append(args[0])
        elif name == "chipfiring.gonality_bruteforce" and error is None:
            self._bump("chipfiring.divisors_tested", divisors_tested(args[0].n, result))
        elif name == "chipfiring.q_reduce" and error is not None:
            self._bump("chipfiring.q_reduce.failed")
        elif name in ("verify.verify_main", "verify.verify_bipartite") and error is None:
            status = result.cross_check.status
            self._bump("verify.cross_checks_skipped" if status == "skipped" else "verify.cross_checks_run")

    def _wrap(self, name, fn):
        spans, stack, active = self.spans, self.stack, self.active
        observe = self._observe
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = active.get(name, 0)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, depth == 0]
            stack.append(len(spans))
            spans.append(span)
            active[name] = depth + 1
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[3] = clock()
                span[2] = start
                stack.pop()
                active[name] = depth
                observe(name, args, kwargs, result, error)

        return traced

    def install(self):
        """Wrap the public functions of every module of the package."""
        pkg = self.package.__name__
        modules = [self.package] + [getattr(self.package, layer) for layer in LAYERS]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith(pkg + "."):
                    continue
                if inspect.isgeneratorfunction(value):
                    continue
                if id(value) not in wrappers:
                    name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                    wrappers[id(value)] = self._wrap(name, value)
                self.saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def uninstall(self):
        for module, attr, value in reversed(self.saved):
            setattr(module, attr, value)
        self.saved = []

    def per_layer(self, overhead_s):
        """Per-layer metrics: inclusive time of outermost calls, self time
        (a span minus its traced children), call counts and counters."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive, own, calls, module_self = {}, {}, {}, {}
        for i, (name, _, start, end, outer) in enumerate(self.spans):
            took = end - start
            if outer:
                inclusive[name] = inclusive.get(name, 0.0) + took
            own[name] = own.get(name, 0.0) + took - child[i]
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            module_self[layer] = module_self.get(layer, 0.0) + took - child[i]

        pairs = 0
        for S in self.pending_scrambles:
            masks = [sum(1 << v for v in egg) for egg in S.eggs]
            for i, a in enumerate(masks):
                for b in masks[i + 1:]:
                    if not a & b:
                        pairs += 1
        flows = calls.get("flow.min_separating_cut", 0)
        hitting_s = inclusive.get("scramble.hitting_search", 0.0)
        values = dict(self.counts)
        values.pop("flow.improved", None)
        for fn in TIMED:
            values[f"{fn}.s"] = inclusive.get(fn, 0.0)
            values[f"{fn}.self_s"] = own.get(fn, 0.0)
        for fn in CALLS:
            values[f"{fn}.calls"] = calls.get(fn, 0)
        values["flow.improved_ratio"] = self.counts.get("flow.improved", 0) / flows if flows else 0.0
        values["scramble.egg_pairs_disjoint"] = pairs
        nodes = self.counts.get("scramble.hitting_search.nodes", 0)
        values["scramble.hitting_nodes_per_s"] = nodes / hitting_s if hitting_s else 0.0
        for layer in LAYERS:
            values[f"{layer}.self_s"] = module_self.get(layer, 0.0)
        values["trace.overhead_s"] = overhead_s
        return {
            name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in per_layer_names()
        }, {name: calls[name] for name in sorted(calls)}

    def write(self, path):
        """Store the spans as JSON: one [name, parent, start, end] row each,
        with start and end in seconds from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [
            [name, parent, round(start - origin, 7), round(end - origin, 7)]
            for name, parent, start, end, _ in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle, separators=(",", ":"))
