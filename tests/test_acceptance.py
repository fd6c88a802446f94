"""Headline-number gate.

Each test here pins one advertised result to its exact value and holds
the computation to a wall-clock budget.  Every criterion prints a single
summary line on the real stdout so the verdicts are visible in any run.
Criterion 05 runs the full hitting search of the 6-uniform scramble of
the 32-vertex cube, deepening on alpha_5 with no egg built, and then
the three-line summary; criterion 13 runs its component independence
numbers at c = 5 and 6, and criterion 14 the order of its 25,312
connected 6-sets read from a file.
"""

import functools
import random
import sys
import time

import oracles
from scrambles.chipfiring import (
    degree,
    fire_subset,
    gonality_bruteforce,
    gonality_upper_by_separator,
    has_positive_rank,
    is_equivalent,
    q_reduce,
)
from scrambles.cli import run_cli
from scrambles.flow import min_edge_cut
from scrambles.graphs import (
    crown,
    cycle_graph,
    herschel_graph,
    hypercube,
    random_connected_multigraph,
)
from scrambles.invariants import (
    component_independence_number,
    min_connected_outdegree,
    restricted_edge_connectivity,
)
from scrambles.scramble import (
    egg_cut_number,
    hitting_number,
    scramble_order,
    uniform_order_via_invariants,
    uniform_scramble,
)
from scrambles.verify import verify_bipartite


# one line per criterion; echoed live under -s and again in the
# terminal summary section wired up in conftest.py
VERDICTS = []


def _verdict(number, label, verdict, elapsed):
    line = f"criterion {number:02d} {label}: {verdict} ({elapsed:.1f}s)"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


def criterion(number, label, budget):
    """Time the body, print its one-line verdict, enforce the budget."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                _verdict(number, label, "FAIL", time.perf_counter() - started)
                raise
            elapsed = time.perf_counter() - started
            _verdict(number, label, "PASS" if elapsed < budget else "FAIL", elapsed)
            assert elapsed < budget, f"budget {budget}s exceeded: {elapsed:.1f}s"

        return run

    return wrap


@criterion(1, "herschel uniform-3 scramble meets gonality", 10.0)
def test_criterion_01():
    G = herschel_graph()
    S = uniform_scramble(G, 3)
    assert hitting_number(S) == 5
    assert egg_cut_number(S) == 5
    assert scramble_order(S) == 5
    assert gonality_bruteforce(G).value == 5


@criterion(2, "herschel connected outdegrees", 1.0)
def test_criterion_02():
    G = herschel_graph()
    assert min_connected_outdegree(G, 3) == 5
    assert min_connected_outdegree(G, 4) == 5
    assert min_connected_outdegree(G, 5) == 6


@criterion(3, "cube gonality and uniform-2 order both ways", 5.0)
def test_criterion_03():
    G = hypercube(3)
    assert gonality_bruteforce(G).value == 4
    assert scramble_order(uniform_scramble(G, 2)) == 4
    assert uniform_order_via_invariants(G, 2) == 4


@criterion(4, "four-cube scramble number equals gonality 8", 60.0)
def test_criterion_04():
    G = hypercube(4)
    assert restricted_edge_connectivity(G, 3) == 8
    S = uniform_scramble(G, 3)
    assert hitting_number(S) == 8
    assert scramble_order(S) == 8
    # one chip per even-weight vertex moves anywhere, so gonality <= 8,
    # and the order-8 scramble pins it from below
    even = tuple(1 - bin(v).count("1") % 2 for v in range(16))
    assert degree(even) == 8
    assert has_positive_rank(G, even)
    assert gonality_bruteforce(G).value == 8
    assert gonality_bruteforce(G, max_degree=7).exceeded_cap


@criterion(5, "five-cube hitting number and order", 120.0)
def test_criterion_05_five_cube_hitting_number(tmp_path, capsys):
    """The full hitting search on the 6-uniform scramble of the 32-vertex
    cube, an alpha_5 decision at each size from 1 up (no egg built),
    finishes within its budget and prints the exact value, 16; the
    three-line summary then gives hitting number, egg-cut number (lambda_6)
    and order, all 16."""
    path = tmp_path / "q5.edges"
    assert run_cli(["gen", "hypercube", "5", "-o", str(path)]) == 0
    code = run_cli(
        [
            "scramble", "uniform", "6", str(path),
            "--hitting", "--long-running", "--budget", "120",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "16"
    assert run_cli(["scramble", "uniform", "6", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "hitting number: 16",
        "egg-cut number: 16",
        "order: 16",
    ]


@criterion(6, "crown graph bipartite condition", 30.0)
def test_criterion_06():
    G = crown(4)
    report = verify_bipartite(G, "bipartite1")
    assert report.applicable
    assert report.conclusion_value == 4
    assert report.cross_check.status == "verified"
    assert gonality_bruteforce(G).value == 4


@criterion(7, "octagon falls outside the bipartite condition", 1.0)
def test_criterion_07():
    G = cycle_graph(8)
    assert gonality_bruteforce(G).value == 2
    assert not verify_bipartite(G, "bipartite1").applicable


@criterion(8, "uniform order formula on 500 random graphs", 600.0)
def test_criterion_08():
    rng = random.Random(80808)
    for trial in range(500):
        n = rng.randint(2, 8)
        G = random_connected_multigraph(
            rng, n, extra_edges=rng.randint(0, n), allow_parallel=trial % 2 == 0
        )
        edges = list(G.edge_list())
        for k in range(1, n + 1):
            S = uniform_scramble(G, k)
            direct = scramble_order(S)
            lam = restricted_edge_connectivity(G, k)
            alpha = component_independence_number(G, k - 1)
            assert direct == min(lam, n - alpha), (sorted(edges), k)
            # the egg cut inside scramble_order and lambda_k share one
            # split search; the pair-scan oracle shares nothing with it
            e = oracles.egg_cut_pair_scan(n, edges, S.eggs)
            assert egg_cut_number(S) == lam == e, (sorted(edges), k)


@criterion(9, "minimum cuts match exhaustive bipartitions", 60.0)
def test_criterion_09():
    rng = random.Random(90909)
    for _ in range(200):
        n = rng.randint(2, 8)
        G = random_connected_multigraph(
            rng, n, extra_edges=rng.randint(0, 2 * n), allow_parallel=True
        )
        computed = min(min_edge_cut(G, 0, t) for t in range(1, n))
        edges = list(G.edge_list())
        # odd masks: every proper bipartition with vertex 0 on the low side
        exhaustive = min(
            sum(1 for u, v in edges if (mask >> u & 1) != (mask >> v & 1))
            for mask in range(1, (1 << n) - 1, 2)
        )
        assert computed == exhaustive, sorted(edges)


@criterion(10, "chip-firing fundamentals", 120.0)
def test_criterion_10():
    rng = random.Random(101010)
    for _ in range(60):
        n = rng.randint(2, 8)
        G = random_connected_multigraph(
            rng, n, extra_edges=rng.randint(0, n), allow_parallel=True
        )
        D = tuple(rng.randint(-3, 4) for _ in range(n))
        subset = rng.sample(range(n), rng.randint(1, n - 1))
        assert degree(fire_subset(G, D, subset)) == degree(D)
        q = rng.randrange(n)
        reduced = q_reduce(G, D, q)
        assert q_reduce(G, reduced, q) == reduced
        assert degree(reduced) == degree(D)
    for _ in range(40):
        n = rng.randint(2, 5)
        G = random_connected_multigraph(
            rng, n, extra_edges=rng.randint(0, n), allow_parallel=True
        )
        edges = list(G.edge_list())
        D1 = tuple(rng.randint(-2, 3) for _ in range(n))
        D2 = tuple(rng.randint(-2, 3) for _ in range(n))
        assert is_equivalent(G, D1, D2) == oracles.divisors_equivalent(n, edges, D1, D2)
    for n in range(2, 11):
        tree = random_connected_multigraph(rng, n)
        assert gonality_bruteforce(tree).value == 1
    for n in range(3, 11):
        assert gonality_bruteforce(cycle_graph(n)).value == 2


@criterion(11, "scramble orders sandwich gonality", 600.0)
def test_criterion_11():
    rng = random.Random(111111)
    for trial in range(150):
        n = rng.randint(2, 7)
        G = random_connected_multigraph(
            rng, n, extra_edges=rng.randint(0, n), allow_parallel=trial % 3 == 0
        )
        lower = max(scramble_order(uniform_scramble(G, k)) for k in range(1, n + 1))
        gon = gonality_bruteforce(G).value
        bound = gonality_upper_by_separator(G).size
        assert lower <= gon <= bound, (sorted(G.edge_list()), lower, gon, bound)


@criterion(12, "five-cube 6-restricted edge connectivity", 60.0)
def test_criterion_12(tmp_path, capsys):
    path = tmp_path / "q5.edges"
    assert run_cli(["gen", "hypercube", "5", "-o", str(path)]) == 0
    capsys.readouterr()
    assert run_cli(["invariant", "lambda-k", "6", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "16"


@criterion(13, "five-cube component independence", 60.0)
def test_criterion_13():
    """alpha_5 of the 32-vertex cube is 32 minus criterion 05's hitting
    number of the 6-uniform scramble; alpha_6 is two larger."""
    Q5 = hypercube(5)
    assert component_independence_number(Q5, 5) == 32 - 16
    assert component_independence_number(Q5, 6) == 18


@criterion(14, "five-cube order from an explicit egg file", 120.0)
def test_criterion_14_five_cube_explicit_order(tmp_path, capsys):
    """``scramble order`` on the 25,312 connected 6-sets of the 32-vertex
    cube, read from a file: the egg cut takes the split search, and the
    hitting search stops once it proves the cut, 16, as a lower bound."""
    graph = tmp_path / "q5.edges"
    assert run_cli(["gen", "hypercube", "5", "-o", str(graph)]) == 0
    eggs = uniform_scramble(hypercube(5), 6).eggs
    assert len(eggs) == 25312
    rows = [" ".join(map(str, sorted(egg))) for egg in eggs]
    random.Random(141414).shuffle(rows)
    path = tmp_path / "q5-6eggs.txt"
    path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    capsys.readouterr()
    assert run_cli(["scramble", "order", str(graph), str(path)]) == 0
    assert capsys.readouterr().out.strip() == "16"
