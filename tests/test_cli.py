"""End-to-end command tests driven through run_cli."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from scrambles import (
    Multigraph,
    chipfiring,
    complete_graph,
    cycle_graph,
    egg_cut_number,
    generate,
    hypercube,
    invariants,
    scramble_order,
    uniform_scramble,
)
from scrambles.cli import run_cli
from scrambles.graphs import fmt_count, format_edge_list
from strategies import plain_edges


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture
def graph_file(tmp_path):
    """Generate a named graph into a file via the gen command itself."""

    def _generate(family, *params):
        path = tmp_path / f"{family}{'-'.join(str(p) for p in params)}.edges"
        code = run_cli(["gen", family, *[str(p) for p in params], "-o", str(path)])
        assert code == 0
        return str(path)

    return _generate


class TestGen:
    def test_writes_header_and_edges_to_stdout(self, capsys):
        assert run_cli(["gen", "cycle", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "4 4"
        assert len(lines) == 5

    def test_output_file_round_trips_through_info(self, graph_file, capsys):
        path = graph_file("complete", "4")
        capsys.readouterr()
        assert run_cli(["info", path]) == 0
        out = capsys.readouterr().out
        assert "vertices: 4" in out
        assert "edges: 6" in out

    def test_unknown_family_is_a_usage_error(self, capsys):
        assert run_cli(["gen", "moebius", "3"]) == 1
        assert "unknown family" in capsys.readouterr().err

    def test_wrong_parameter_count(self, capsys):
        assert run_cli(["gen", "complete-bipartite", "2"]) == 1
        assert "parameter" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family, param", [("hypercube", "7"), ("complete", "65"), ("crown", "33")]
    )
    def test_more_than_64_vertices_is_a_usage_error(self, family, param, capsys):
        # the edge-list reader refuses such a graph, so gen writes none
        assert run_cli(["gen", family, param]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "more than 64 vertices" in captured.err

    @pytest.mark.parametrize("target", ["missing/x.edges", "."])
    def test_unwritable_output_is_a_write_fault(self, tmp_path, target, capsys):
        # a missing directory, then a directory in place of a file
        assert run_cli(["gen", "hypercube", "3", "-o", str(tmp_path / target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot write output: ")

    def test_64_vertices_round_trip_through_info(self, graph_file, capsys):
        path = graph_file("hypercube", "6")
        capsys.readouterr()
        assert run_cli(["info", path]) == 0
        assert "vertices: 64" in capsys.readouterr().out


class TestInfo:
    def test_summary_lines(self, graph_file, capsys):
        path = graph_file("herschel")
        capsys.readouterr()
        assert run_cli(["info", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "vertices: 11" in lines
        assert "edges: 18" in lines
        assert "simple: yes" in lines
        assert "connected: yes" in lines
        assert "min valence: 3" in lines
        assert "max valence: 4" in lines
        assert "girth: 4" in lines
        assert "bipartite: yes (6 + 5)" in lines

    def test_odd_cycle_is_not_bipartite(self, graph_file, capsys):
        path = graph_file("cycle", "5")
        capsys.readouterr()
        assert run_cli(["info", path]) == 0
        assert "bipartite: no" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert run_cli(["info", "/nonexistent/graph.edges"]) == 2
        assert "cannot read input" in capsys.readouterr().err

    def test_malformed_file(self, write, capsys):
        path = write("bad.edges", "3 1\n0 9\n")
        assert run_cli(["info", path]) == 2
        assert "invalid input" in capsys.readouterr().err

    def test_non_utf8_file_is_invalid_input(self, tmp_path, capsys):
        path = tmp_path / "binary.edges"
        path.write_bytes(b"3 2\n0 1\n\xff")
        assert run_cli(["info", str(path)]) == 2
        assert "invalid input" in capsys.readouterr().err


class TestInvariant:
    def test_restricted_connectivity(self, graph_file, capsys):
        path = graph_file("hypercube", "4")
        capsys.readouterr()
        assert run_cli(["invariant", "lambda-k", "3", path]) == 0
        assert capsys.readouterr().out.strip() == "8"
        path = graph_file("herschel")
        capsys.readouterr()
        assert run_cli(["invariant", "lambda-k", "3", path]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_infinite_value_prints_inf(self, graph_file, capsys):
        path = graph_file("complete", "3")
        capsys.readouterr()
        assert run_cli(["invariant", "lambda-k", "2", path]) == 0
        assert capsys.readouterr().out.strip() == "inf"

    def test_connected_outdegree(self, graph_file, capsys):
        path = graph_file("herschel")
        capsys.readouterr()
        assert run_cli(["invariant", "xi-k", "5", path]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_connected_outdegree_beyond_n_is_inf(self, graph_file, capsys):
        path = graph_file("path", "3")
        capsys.readouterr()
        assert run_cli(["invariant", "xi-k", "4", path]) == 0
        assert capsys.readouterr().out.strip() == "inf"

    def test_component_independence(self, graph_file, capsys):
        path = graph_file("herschel")
        capsys.readouterr()
        assert run_cli(["invariant", "alpha-c", "2", path]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_component_independence_at_zero(self, graph_file, capsys):
        path = graph_file("cycle", "6")
        capsys.readouterr()
        assert run_cli(["invariant", "alpha-c", "0", path]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_girth_takes_no_parameter(self, graph_file, capsys):
        path = graph_file("herschel")
        capsys.readouterr()
        assert run_cli(["invariant", "girth", path]) == 0
        assert capsys.readouterr().out.strip() == "4"
        assert run_cli(["invariant", "girth", "3", path]) == 1

    def test_parameter_must_be_integer(self, graph_file, capsys):
        path = graph_file("cycle", "4")
        capsys.readouterr()
        assert run_cli(["invariant", "lambda-k", "two", path]) == 1
        assert "integer" in capsys.readouterr().err

    def test_missing_parameter(self, graph_file):
        path = graph_file("cycle", "4")
        assert run_cli(["invariant", "lambda-k", path]) == 1

    def test_unknown_kind_is_a_usage_error(self, graph_file, capsys):
        path = graph_file("cycle", "4")
        capsys.readouterr()
        assert run_cli(["invariant", "nope", "1", path]) == 1
        assert capsys.readouterr().err.startswith("error: argument kind: invalid choice")


class TestScrambleUniform:
    def test_default_prints_all_three_quantities(self, graph_file, capsys):
        path = graph_file("herschel")
        capsys.readouterr()
        assert run_cli(["scramble", "uniform", "3", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "hitting number: 5",
            "egg-cut number: 5",
            "order: 5",
        ]

    def test_single_quantity_flags(self, graph_file, capsys):
        path = graph_file("herschel")
        capsys.readouterr()
        for flag in ("--order", "--hitting", "--eggcut"):
            assert run_cli(["scramble", "uniform", "3", path, flag]) == 0
            assert capsys.readouterr().out.strip() == "5"

    def test_disconnected_graph_keeps_the_egg_level_cut(self, write, capsys):
        path = write("triangles.edges", "6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
        capsys.readouterr()
        assert run_cli(["scramble", "uniform", "2", path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "hitting number: 4",
            "egg-cut number: 0",
            "order: 0",
        ]
        for flag in ("--order", "--eggcut"):
            assert run_cli(["scramble", "uniform", "2", path, flag]) == 0
            assert capsys.readouterr().out.strip() == "0"

    @pytest.mark.parametrize(
        "family, params, k",
        [("cycle", ["7"], 3), ("crown", ["4"], 2), ("complete-bipartite", ["2", "3"], 2),
         ("hypercube", ["3"], 3), ("herschel", [], 5), ("path", ["5"], 3)],
    )
    def test_egg_cut_matches_the_egg_level_engine(self, graph_file, capsys, family, params, k):
        S = uniform_scramble(generate(family, [int(p) for p in params]), k)
        path = graph_file(family, *params)
        capsys.readouterr()
        assert run_cli(["scramble", "uniform", str(k), path, "--eggcut"]) == 0
        assert capsys.readouterr().out.strip() == fmt_count(egg_cut_number(S))
        # the command's lambda_k and egg_cut_number share one split search
        assert egg_cut_number(S) == oracles.egg_cut_pair_scan(*plain_edges(S.graph), S.eggs)
        assert run_cli(["scramble", "uniform", str(k), path, "--order"]) == 0
        assert capsys.readouterr().out.strip() == fmt_count(scramble_order(S))

    def test_egg_cut_on_a_connected_graph_builds_no_eggs(self, graph_file, capsys, monkeypatch):
        path = graph_file("hypercube", "5")
        capsys.readouterr()

        def no_eggs(G, k):
            raise AssertionError("uniform scramble built")

        monkeypatch.setattr("scrambles.scramble.uniform_scramble", no_eggs)
        assert run_cli(["scramble", "uniform", "6", path, "--eggcut"]) == 0
        assert capsys.readouterr().out.strip() == "16"
        # hitting number 32 - alpha_2 = 16, egg-cut number lambda_3 = 11
        assert run_cli(["scramble", "uniform", "3", path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "hitting number: 16",
            "egg-cut number: 11",
            "order: 11",
        ]
        assert run_cli(["scramble", "uniform", "3", path, "--order"]) == 0
        assert capsys.readouterr().out.strip() == "11"

    @pytest.mark.parametrize(
        "second, k, cut",
        [(complete_graph(2), 3, "8"), (cycle_graph(3), 3, "0"), (complete_graph(2), 9, "inf")],
        ids=["one-part-holds-eggs", "both-parts-hold-eggs", "eggs-in-one-part-meet"],
    )
    def test_egg_cut_on_a_disjoint_union_builds_no_eggs(
        self, write, capsys, monkeypatch, second, k, cut
    ):
        # the four-cube beside a second part: lambda_k of the four-cube when
        # only it holds a connected k-set, else 0
        first = hypercube(4)
        shifted = [(u + first.n, v + first.n) for u, v in second.edge_list()]
        G = Multigraph(first.n + second.n, first.edge_list() + shifted)
        path = write("union.edges", format_edge_list(G))
        capsys.readouterr()

        def no_eggs(G, k):
            raise AssertionError("uniform scramble built")

        monkeypatch.setattr("scrambles.scramble.uniform_scramble", no_eggs)
        assert run_cli(["scramble", "uniform", str(k), path, "--eggcut"]) == 0
        assert capsys.readouterr().out.strip() == cut

    def test_no_connected_k_set_is_an_empty_scramble(self, write, capsys):
        path = write("triangles.edges", "6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
        capsys.readouterr()
        for flags in ([], ["--order"], ["--eggcut"], ["--hitting"]):
            assert run_cli(["scramble", "uniform", "4", path, *flags]) == 1
            assert capsys.readouterr().err.strip() == "error: empty scramble"

    @pytest.mark.parametrize("k", ["0", "9"])
    def test_egg_size_out_of_range(self, graph_file, capsys, k):
        path = graph_file("hypercube", "3")
        capsys.readouterr()
        for flags in ([], ["--eggcut"], ["--order"], ["--hitting"]):
            assert run_cli(["scramble", "uniform", k, path, *flags]) == 1
            assert capsys.readouterr().err.strip() == (
                f"error: subset size {k} out of range for 8 vertices"
            )

    def test_unrecognized_argument_is_a_usage_error(self, graph_file, capsys):
        path = graph_file("cycle", "4")
        capsys.readouterr()
        assert run_cli(["scramble", "uniform", "2", path, "--bogus"]) == 1
        assert capsys.readouterr().err.startswith("error: unrecognized arguments: --bogus")

    def test_quantity_flags_are_exclusive(self, graph_file, capsys):
        path = graph_file("cycle", "4")
        capsys.readouterr()
        assert run_cli(["scramble", "uniform", "2", path, "--order", "--eggcut"]) == 1

    def test_long_running_needs_hitting(self, graph_file, capsys):
        path = graph_file("cycle", "4")
        capsys.readouterr()
        assert run_cli(["scramble", "uniform", "2", path, "--long-running"]) == 1
        assert "--long-running" in capsys.readouterr().err

    def test_search_flags_need_hitting(self, graph_file, capsys):
        path = graph_file("cycle", "4")
        capsys.readouterr()
        for flags in (["--budget", "5"], ["--order", "--prove-at-least", "2"]):
            assert run_cli(["scramble", "uniform", "2", path, *flags]) == 1
            assert flags[-2] in capsys.readouterr().err

    def test_budget_applies_without_long_running(self, graph_file, capsys):
        path = graph_file("cycle", "3")
        capsys.readouterr()
        code = run_cli(
            ["scramble", "uniform", "2", path, "--hitting", "--budget", "0"]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out.strip() == "hitting number >= 1 (search incomplete)"
        assert captured.err == ""

    @pytest.mark.parametrize("budget", ["nan", "-1"])
    def test_budget_must_be_a_non_negative_number(self, graph_file, capsys, budget):
        path = graph_file("cycle", "3")
        capsys.readouterr()
        code = run_cli(["scramble", "uniform", "2", path, "--hitting", "--budget", budget])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "budget must be a number of seconds >= 0" in captured.err

    def test_long_running_finds_the_optimum(self, graph_file, capsys):
        path = graph_file("hypercube", "3")
        capsys.readouterr()
        code = run_cli(
            ["scramble", "uniform", "2", path, "--hitting", "--long-running"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_long_running_reports_level_progress(self, graph_file, capsys):
        path = graph_file("cycle", "3")
        capsys.readouterr()
        code = run_cli(
            ["scramble", "uniform", "2", path, "--hitting", "--long-running"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "2"
        assert "size 1" in captured.err

    def test_zero_budget_exits_with_resource_code(self, graph_file, capsys):
        path = graph_file("cycle", "3")
        capsys.readouterr()
        code = run_cli(
            [
                "scramble", "uniform", "2", path,
                "--hitting", "--long-running", "--budget", "0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out.strip() == "hitting number >= 1 (search incomplete)"

    def test_prove_at_least_stops_early(self, graph_file, capsys):
        path = graph_file("cycle", "3")
        capsys.readouterr()
        code = run_cli(
            [
                "scramble", "uniform", "2", path,
                "--hitting", "--long-running", "--prove-at-least", "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "hitting number >= 1"

    def test_hitting_floor_builds_no_eggs(self, graph_file, capsys, monkeypatch):
        path = graph_file("hypercube", "5")
        capsys.readouterr()

        def no_eggs(*args):
            raise AssertionError("eggs built")

        monkeypatch.setattr("scrambles.scramble.uniform_scramble", no_eggs)
        for name in ("graphs", "scramble", "invariants"):
            monkeypatch.setattr(f"scrambles.{name}.enumerate_connected_subsets", no_eggs)
        code = run_cli(
            ["scramble", "uniform", "6", path, "--hitting", "--prove-at-least", "8"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "hitting number >= 8"

    def test_long_running_reports_every_level_from_one(self, graph_file, capsys):
        path = graph_file("hypercube", "4")
        capsys.readouterr()
        code = run_cli(
            ["scramble", "uniform", "5", path, "--hitting", "--long-running"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "8"
        levels = [
            line.split(" (")[0]
            for line in captured.err.splitlines()
            if line.startswith("no hitting set")
        ]
        assert levels == [
            f"no hitting set of size {s}: number is >= {s + 1}" for s in range(1, 8)
        ]


class TestScrambleFiles:
    def test_order_of_an_explicit_scramble(self, graph_file, write, capsys):
        gpath = graph_file("cycle", "4")
        spath = write("eggs.txt", "0\n2\n")
        capsys.readouterr()
        assert run_cli(["scramble", "order", gpath, spath]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_finite_egg_cut_names_a_disjoint_pair(self, graph_file, write, capsys):
        gpath = graph_file("cycle", "4")
        spath = write("eggs.txt", "# two opposite corners\n0\n2\n")
        capsys.readouterr()
        assert run_cli(["scramble", "finite", gpath, spath]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "yes"
        assert sorted(lines[1:]) == ["egg: 0", "egg: 2"]

    def test_single_egg_has_no_cut(self, graph_file, write, capsys):
        gpath = graph_file("cycle", "4")
        spath = write("eggs.txt", "0 1\n")
        capsys.readouterr()
        assert run_cli(["scramble", "finite", gpath, spath]) == 0
        assert capsys.readouterr().out.strip() == "no"

    def test_egg_outside_graph_is_invalid_input(self, graph_file, write, capsys):
        gpath = graph_file("cycle", "4")
        spath = write("eggs.txt", "0 9\n")
        capsys.readouterr()
        assert run_cli(["scramble", "order", gpath, spath]) == 2
        assert "invalid input" in capsys.readouterr().err

    def test_scramble_file_without_eggs_is_invalid_input(self, graph_file, write, capsys):
        gpath = graph_file("cycle", "4")
        spath = write("eggs.txt", "# no eggs yet\n\n")
        capsys.readouterr()
        assert run_cli(["scramble", "order", gpath, spath]) == 2
        assert "no content lines" in capsys.readouterr().err


class TestGonality:
    def test_brute_force_with_witness(self, graph_file, capsys):
        path = graph_file("hypercube", "3")
        capsys.readouterr()
        assert run_cli(["gonality", "brute", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "4"
        assert lines[1].startswith("witness: ")
        chips = [int(tok) for tok in lines[1].split(":")[1].split()]
        assert len(chips) == 8 and sum(chips) == 4

    @pytest.mark.parametrize("family", ["hypercube", "folded-cube"])
    def test_brute_force_on_four_dimensional_cubes(self, graph_file, capsys, family):
        path = graph_file(family, "4")
        capsys.readouterr()
        assert run_cli(["gonality", "brute", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "8"
        witness = [int(tok) for tok in lines[1].removeprefix("witness: ").split()]
        assert sum(witness) == 8
        assert oracles.has_positive_rank_dhar(*plain_edges(generate(family, (4,))), witness)

    @pytest.mark.parametrize(
        "params, witness",
        [
            (("hypercube", "3"), "3 0 0 0 0 0 0 1"),
            (("herschel",), "3 0 0 0 0 1 0 0 0 0 1"),
            (("crown", "6"), "5 0 0 0 0 0 1 0 0 0 0 0"),
            (("crown", "7"), "6 0 0 0 0 0 0 1 0 0 0 0 0 0"),
        ],
    )
    def test_brute_force_prints_the_pinned_witness(self, graph_file, capsys, params, witness):
        # the library's unbounded search pins the same witnesses
        path = graph_file(*params)
        capsys.readouterr()
        assert run_cli(["gonality", "brute", path]) == 0
        captured = capsys.readouterr()
        value = sum(map(int, witness.split()))
        assert captured.out == f"{value}\nwitness: {witness}\n"
        assert captured.err == ""

    def test_brute_force_stops_at_the_uniform_lower_bound(self, graph_file, capsys, monkeypatch):
        # unseeded, the search spends 8,589 and 52,071 rank tests here,
        # nearly all of them refuting a degree below the gonality
        results = []
        search = chipfiring.gonality_bruteforce

        def spy(*args, **kwargs):
            results.append(search(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(chipfiring, "gonality_bruteforce", spy)
        for params in (("crown", "7"), ("hypercube", "4")):
            assert run_cli(["gonality", "brute", graph_file(*params)]) == 0
        assert [r.value for r in results] == [7, 8]
        assert [r.rank_tests for r in results] == [29, 3529]

    def test_degree_cap_exhausted(self, graph_file, capsys):
        path = graph_file("hypercube", "3")
        capsys.readouterr()
        assert run_cli(["gonality", "brute", path, "--max-degree", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "degree 1" in captured.err

    def test_degree_cap_stops_the_uniform_bound(self, graph_file, capsys, monkeypatch):
        # at k = 1 the bound is min(32, lambda_1 = 5) = 5, already above
        # the cap, so no alpha_{k-1} with k >= 2 is computed
        path = graph_file("hypercube", "5")
        capsys.readouterr()
        limits = []
        search = invariants.max_component_independent_set

        def spy(G, limit, *args, **kwargs):
            limits.append(limit)
            return search(G, limit, *args, **kwargs)

        monkeypatch.setattr(invariants, "max_component_independent_set", spy)
        assert run_cli(["gonality", "brute", path, "--max-degree", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "no positive-rank divisor up to degree 3\n"
        assert limits == [0]

    def test_check_positive_rank(self, graph_file, write, capsys):
        path = graph_file("complete-bipartite", "2", "3")
        good = write("good.div", "0 0 0 0 2\n")
        bad = write("bad.div", "1 0 0 0 0\n")
        capsys.readouterr()
        assert run_cli(["gonality", "check", path, good]) == 0
        assert capsys.readouterr().out.strip() == "positive rank: yes"
        assert run_cli(["gonality", "check", path, bad]) == 0
        assert capsys.readouterr().out.strip() == "positive rank: no"

    def test_separator_upper_bound(self, graph_file, capsys):
        path = graph_file("herschel")
        capsys.readouterr()
        assert run_cli(["gonality", "upper", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "5"
        assert lines[1] == "separator: 2 3 4 5 10"

    def test_wrong_divisor_length(self, graph_file, write, capsys):
        path = graph_file("cycle", "4")
        div = write("short.div", "1 2\n")
        capsys.readouterr()
        assert run_cli(["gonality", "check", path, div]) == 2
        assert "invalid input" in capsys.readouterr().err


class TestReduce:
    def test_path_sends_all_chips_home(self, graph_file, write, capsys):
        path = graph_file("path", "4")
        div = write("d.div", "0 0 0 3\n")
        capsys.readouterr()
        assert run_cli(["reduce", path, div, "0"]) == 0
        assert capsys.readouterr().out.strip() == "3 0 0 0"

    def test_cycle_collects_spread_chips(self, graph_file, write, capsys):
        path = graph_file("cycle", "4")
        div = write("d.div", "0 1 0 1\n")
        capsys.readouterr()
        assert run_cli(["reduce", path, div, "0"]) == 0
        assert capsys.readouterr().out.strip() == "2 0 0 0"

    def test_sink_out_of_range(self, graph_file, write, capsys):
        path = graph_file("path", "4")
        div = write("d.div", "0 0 0 3\n")
        capsys.readouterr()
        assert run_cli(["reduce", path, div, "9"]) == 1


class TestVerify:
    def test_main_theorem_text_report(self, graph_file, capsys):
        path = graph_file("herschel")
        capsys.readouterr()
        assert run_cli(["verify", "main:4", path]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "main (parameter 4): applicable"
        assert "upper bound: gonality <= 5" in out
        assert "conclusion: scramble number = gonality = 5" in out
        assert "brute-force gonality: 5 (verified)" in out

    def test_not_applicable_still_reports_bound(self, graph_file, capsys):
        path = graph_file("cycle", "8")
        capsys.readouterr()
        assert run_cli(["verify", "bipartite1", path]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "bipartite1: not applicable"
        assert "brute-force gonality: 2 (informational)" in out

    def test_girth_family(self, graph_file, capsys):
        path = graph_file("complete-bipartite", "4", "4")
        capsys.readouterr()
        assert run_cli(["verify", "girth4b", path]) == 0
        assert "scramble number = gonality = 4" in capsys.readouterr().out

    def test_order_agreement(self, graph_file, capsys):
        path = graph_file("herschel")
        capsys.readouterr()
        assert run_cli(["verify", "order-ek:3", path]) == 0
        out = capsys.readouterr().out
        assert "uniform order = 5 (scramble) / 5 (invariants)" in out
        assert "agreement: verified" in out

    def test_json_output_is_canonical(self, graph_file, capsys):
        path = graph_file("herschel")
        capsys.readouterr()
        assert run_cli(["verify", "main:4", path, "--json"]) == 0
        out = capsys.readouterr().out
        decoded = json.loads(out)
        assert decoded["applicable"] is True
        assert decoded["upper_bound"] == {"finite": True, "value": 5}
        assert out == json.dumps(decoded, indent=2, sort_keys=True) + "\n"

    def test_parameterized_theorems_need_parameters(self, graph_file, capsys):
        path = graph_file("cycle", "4")
        capsys.readouterr()
        assert run_cli(["verify", "main", path]) == 1
        assert run_cli(["verify", "order-ek", path]) == 1
        assert run_cli(["verify", "order-ek:x", path]) == 1

    def test_json_has_no_conclusion_unless_applicable(self, graph_file, capsys):
        path = graph_file("cycle", "8")
        capsys.readouterr()
        assert run_cli(["verify", "main:4", path, "--json"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["applicable"] is False
        assert decoded["conclusion"] is None
        assert decoded["conclusion_value"] is None

    @pytest.mark.parametrize(
        "token, graph",
        [("main:4", ("complete", "2")), ("main:10", ("complete-bipartite", "1", "3")), ("main:6", ("complete", "4"))],
    )
    def test_main_parameter_above_order_plus_one(self, token, graph, graph_file, capsys):
        path = graph_file(*graph)
        capsys.readouterr()
        assert run_cli(["verify", token, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "out of range" in captured.err

    @pytest.mark.parametrize("token", ["bipartite1:3", "girth3:9", "girth5:0"])
    def test_parameterless_tokens_reject_a_parameter(self, token, graph_file, capsys):
        path = graph_file("cycle", "8")
        capsys.readouterr()
        assert run_cli(["verify", token, path]) == 1
        name = token.partition(":")[0]
        assert capsys.readouterr().err == f"error: {name} takes no parameter\n"

    def test_missing_parameter_message(self, graph_file, capsys):
        path = graph_file("cycle", "4")
        capsys.readouterr()
        assert run_cli(["verify", "main", path]) == 1
        assert capsys.readouterr().err == "error: main needs a parameter, e.g. main:4\n"
        assert run_cli(["verify", "order_ek", path]) == 1
        assert capsys.readouterr().err == "error: order-ek needs a parameter, e.g. order-ek:3\n"

    def test_unknown_theorem(self, graph_file, capsys):
        path = graph_file("cycle", "4")
        capsys.readouterr()
        assert run_cli(["verify", "fermat", path]) == 1
        assert "unknown theorem" in capsys.readouterr().err

    def test_hypothesis_violations_are_usage_errors(self, write, capsys):
        path = write("double.edges", "2 2\n0 1\n0 1\n")
        capsys.readouterr()
        assert run_cli(["verify", "girth3", path]) == 1
        assert "parallel edges" in capsys.readouterr().err


# Full text reports of every theorem token on K_{3,3}, where most of them
# apply, and on C_8, where none but order-ek does.
VERIFY_TOKENS = [
    "main:4", "girth3", "girth4a", "girth4b", "girth5", "bipartite1", "bipartite2", "order-ek:3"
]
PINNED_REPORTS = {
    ("complete-bipartite", "3", "3"): """\
main (parameter 4): applicable
  [ok  ] girth_at_least_parameter  [girth=4]
  [ok  ] restricted_connectivity_at_least_bound  [{'lambda': '5', 'bound': 3}]
  upper bound: gonality <= 3
  conclusion: scramble number = gonality = 3
  brute-force gonality: 3 (verified)
girth3: not applicable
  [ok  ] adjacent_valence_sums_at_least_n
  [fail] nonadjacent_valence_sums_at_least_n_plus_1  [[0, 1, 6]]
  brute-force gonality: 3 (informational)
girth4a: not applicable
  [ok  ] triangle_free  [girth=4]
  [ok  ] min_valence_at_least_3  [delta=3]
  [fail] xi3_at_least_n_plus_1  [{'xi3': '5', 'needed': 7}]
  brute-force gonality: 3 (informational)
girth4b: applicable
  [ok  ] triangle_free  [girth=4]
  [ok  ] order_at_least_6  [n=6]
  [ok  ] min_valence_above_third  [{'delta': 3, 'needed_thirds': 9}]
  conclusion: scramble number = gonality = 3
  brute-force gonality: 3 (verified)
girth5: not applicable
  [fail] girth_at_least_5  [girth=4]
  [fail] order_at_least_8  [n=6]
  [fail] min_valence_at_least_half_bound  [{'delta': 3, 'needed_halves': 7}]
  brute-force gonality: 3 (informational)
bipartite1: applicable
  [ok  ] simple
  [ok  ] order_at_least_4  [n=6]
  [ok  ] min_valence_at_least_half_bound  [{'delta': 3, 'needed_halves': 5}]
  conclusion: scramble number = gonality = 3
  [ok  ] lemma independence_number_equals_larger_side  [{'alpha': 3, 'larger_side': 3}]
  brute-force gonality: 3 (verified)
bipartite2: applicable
  [ok  ] simple
  [ok  ] order_at_least_6  [n=6]
  [ok  ] nonadjacent_valence_sums_at_least_bound  [{'needed': 5}]
  conclusion: scramble number = gonality = 3
  [ok  ] lemma independence_number_equals_larger_side  [{'alpha': 3, 'larger_side': 3}]
  brute-force gonality: 3 (verified)
order_ek (parameter 3): applicable
  conclusion: uniform order = 3 (scramble) / 3 (invariants)
  agreement: verified
""",
    ("cycle", "8"): """\
main (parameter 4): not applicable
  [ok  ] girth_at_least_parameter  [girth=8]
  [fail] restricted_connectivity_at_least_bound  [{'lambda': '2', 'bound': 3}]
  upper bound: gonality <= 3
  brute-force gonality: 2 (informational)
girth3: not applicable
  [fail] adjacent_valence_sums_at_least_n  [[0, 1, 4]]
  [fail] nonadjacent_valence_sums_at_least_n_plus_1  [[0, 2, 4]]
  brute-force gonality: 2 (informational)
girth4a: not applicable
  [ok  ] triangle_free  [girth=8]
  [fail] min_valence_at_least_3  [delta=2]
  [fail] xi3_at_least_n_plus_1  [{'xi3': '2', 'needed': 9}]
  brute-force gonality: 2 (informational)
girth4b: not applicable
  [ok  ] triangle_free  [girth=8]
  [ok  ] order_at_least_6  [n=8]
  [fail] min_valence_above_third  [{'delta': 2, 'needed_thirds': 11}]
  brute-force gonality: 2 (informational)
girth5: not applicable
  [ok  ] girth_at_least_5  [girth=8]
  [ok  ] order_at_least_8  [n=8]
  [fail] min_valence_at_least_half_bound  [{'delta': 2, 'needed_halves': 8}]
  brute-force gonality: 2 (informational)
bipartite1: not applicable
  [ok  ] simple
  [ok  ] order_at_least_4  [n=8]
  [fail] min_valence_at_least_half_bound  [{'delta': 2, 'needed_halves': 6}]
  [ok  ] lemma independence_number_equals_larger_side  [{'alpha': 4, 'larger_side': 4}]
  brute-force gonality: 2 (informational)
bipartite2: not applicable
  [ok  ] simple
  [ok  ] order_at_least_6  [n=8]
  [fail] nonadjacent_valence_sums_at_least_bound  [[0, 2, 4]]
  [ok  ] lemma independence_number_equals_larger_side  [{'alpha': 4, 'larger_side': 4}]
  brute-force gonality: 2 (informational)
order_ek (parameter 3): applicable
  conclusion: uniform order = 2 (scramble) / 2 (invariants)
  agreement: verified
""",
}


@pytest.mark.parametrize("graph", list(PINNED_REPORTS))
def test_every_token_prints_its_pinned_report(graph, graph_file, capsys):
    path = graph_file(*graph)
    capsys.readouterr()
    for token in VERIFY_TOKENS:
        assert run_cli(["verify", token, path]) == 0
    assert capsys.readouterr().out == PINNED_REPORTS[graph]


class TestTopLevel:
    def test_no_arguments(self, capsys):
        assert run_cli([]) == 1

    def test_runs_as_a_module(self, graph_file):
        path = graph_file("cycle", "4")
        result = subprocess.run(
            [sys.executable, "-m", "scrambles.cli", "info", path],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("vertices: 4\n")

    def test_help_exits_cleanly(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "scramble" in capsys.readouterr().out
