#!/usr/bin/env python3
"""How tight is the best uniform scramble order as a gonality bound?

Draws a seeded corpus of small connected multigraphs, takes the largest
k-uniform order over all egg sizes as the lower bound, and compares it
with brute-force gonality.  Prints the gap distribution and a few edge
lists where the bound falls short.
"""

import argparse
import collections
import random

from scrambles.chipfiring import gonality_bruteforce
from scrambles.graphs import random_connected_multigraph
from scrambles.scramble import best_uniform_order


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--show", type=int, default=5, help="how many gap examples to print"
    )
    args = parser.parse_args()

    rng = random.Random(args.seed)
    gaps = collections.Counter()
    examples = []
    for trial in range(args.trials):
        n = rng.randint(2, args.max_n)
        G = random_connected_multigraph(
            rng, n, extra_edges=rng.randint(0, n), allow_parallel=trial % 3 == 0
        )
        bound = best_uniform_order(G)
        gap = gonality_bruteforce(G, lower=bound).value - bound
        gaps[gap] += 1
        if gap > 0 and len(examples) < args.show:
            examples.append((gap, sorted(G.edge_list())))

    print(f"trials: {args.trials} (n <= {args.max_n}, seed {args.seed})")
    for gap in sorted(gaps):
        share = 100.0 * gaps[gap] / args.trials
        print(f"gap {gap}: {gaps[gap]:>4} ({share:.1f}%)")
    for gap, edges in examples:
        print(f"gap {gap} example: {edges}")


if __name__ == "__main__":
    main()
