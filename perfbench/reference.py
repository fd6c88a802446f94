#!/usr/bin/env python3
"""Recompute the stored reference figures for the named graphs.

Uses only ``checker`` and ``inputs``, never ``scrambles``:

- hitting and egg-cut numbers of every uniform scramble, lambda_k and
  alpha_c, by exhaustive search over all vertex sets;
- gonality, pinned from both sides: the best uniform order is a lower
  bound, and a smallest strong separator whose indicator divisor has
  positive rank (tested by chip-firing) is an upper bound.  The figure
  is stored only when the two meet.

The five-cube is too large for these searches.  Its only stored figure
is alpha_5(Q5) = 16: the checker proves >= 16 itself (a colour class is
independent), and <= 16 follows from the 6-uniform hitting number being
at least 16, which ``scripts/q5_hitting_search.py`` proves in about 93 s.

    python3 perfbench/reference.py            # rewrite reference.json
    python3 perfbench/reference.py --check    # compare, exit 1 on change
"""

import argparse
import json
import sys

import checker
import inputs
from workloads import REFERENCE

NAMED = ("herschel", "q3", "q4", "fq4", "crown6", "crown7")


def count(value):
    return "inf" if value == checker.INF else value


def figures(name):
    n, edges = inputs.named_graph(name)
    g = checker.Graph(n, edges)
    numbers = checker.uniform_numbers(g)
    uniform = {
        str(k): {
            "hitting": numbers["hitting"][k],
            "egg_cut": count(numbers["egg_cut"][k]),
            "lambda": count(numbers["lambda"][k]),
        }
        for k in range(1, n + 1)
    }
    best_order = max(min(numbers["hitting"][k], numbers["egg_cut"][k]) for k in range(1, n + 1))
    separator = checker.smallest_strong_separator(g)
    indicator = [1 if v in separator else 0 for v in range(n)]
    entry = {
        "n": n,
        "uniform": uniform,
        "alpha": {str(c): numbers["alpha"][c] for c in range(n + 1)},
        "best_uniform_order": best_order,
        "separator_bound": len(separator),
    }
    if checker.has_positive_rank(g, indicator) and len(separator) == best_order:
        entry["gonality"] = best_order
    return entry


def compute():
    graphs = {name: figures(name) for name in NAMED}
    graphs["q5"] = {"n": 32, "alpha": {"5": 16}}
    return {"graphs": graphs}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true", help="compare with the stored file")
    args = parser.parse_args()
    fresh = compute()
    text = json.dumps(fresh, indent=1, sort_keys=True) + "\n"
    if args.check:
        with open(REFERENCE, encoding="utf-8") as handle:
            same = json.load(handle) == fresh
        print("reference figures match" if same else "reference figures differ")
        return 0 if same else 1
    REFERENCE.write_text(text, encoding="utf-8")
    print(f"wrote {REFERENCE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
