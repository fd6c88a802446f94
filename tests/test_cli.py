"""End-to-end command tests driven through run_cli."""

import json

import pytest

from scrambles import egg_cut_number, generate, scramble_order, uniform_scramble
from scrambles.cli import run_cli
from scrambles.graphs import fmt_count


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

    def test_degree_cap_exhausted(self, graph_file, capsys):
        path = graph_file("hypercube", "3")
        capsys.readouterr()
        assert run_cli(["gonality", "brute", path, "--max-degree", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "degree 1" in captured.err

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


class TestTopLevel:
    def test_no_arguments(self, capsys):
        assert run_cli([]) == 1

    def test_help_exits_cleanly(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "scramble" in capsys.readouterr().out
