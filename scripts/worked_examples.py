#!/usr/bin/env python3
"""Survey the named graphs: uniform scramble orders against gonality.

One row per graph: the k-uniform hitting and egg-cut numbers, the
resulting order, brute-force gonality, and the tree-separator upper
bound.  The order column never exceeds the gonality column, and on most
of these examples the two meet.
"""

import argparse
from collections import namedtuple

from scrambles.chipfiring import gonality_bruteforce, gonality_upper_by_separator
from scrambles.graphs import (
    complete_bipartite,
    crown,
    cycle_graph,
    fmt_count,
    herschel_graph,
    hypercube,
)
from scrambles.scramble import uniform_egg_cut_number, uniform_hitting_number


Example = namedtuple("Example", "name graph egg_size")


EXAMPLES = [
    Example("herschel", herschel_graph(), 3),
    Example("cube", hypercube(3), 2),
    Example("four-cube", hypercube(4), 3),
    Example("crown-4", crown(4), 2),
    Example("K_{3,3}", complete_bipartite(3, 3), 2),
    Example("K_{4,4}", complete_bipartite(4, 4), 2),
    Example("C_8", cycle_graph(8), 2),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--skip-gonality",
        action="store_true",
        help="scramble columns only; skips the brute-force search",
    )
    args = parser.parse_args()

    header = (
        f"{'graph':<10} {'n':>3} {'k':>2} {'hitting':>8} {'egg-cut':>8}"
        f" {'order':>6} {'gonality':>9} {'sep':>4}"
    )
    print(header)
    print("-" * len(header))
    for ex in EXAMPLES:
        G = ex.graph
        h = uniform_hitting_number(G, ex.egg_size)
        e = uniform_egg_cut_number(G, ex.egg_size)
        order = min(h, e)
        if args.skip_gonality:
            gon = bound = "-"
        else:
            gon = gonality_bruteforce(G, lower=order).value
            bound = gonality_upper_by_separator(G).size
        print(
            f"{ex.name:<10} {G.n:>3} {ex.egg_size:>2} {h:>8} {fmt_count(e):>8}"
            f" {fmt_count(order):>6} {gon:>9} {bound:>4}"
        )


if __name__ == "__main__":
    main()
