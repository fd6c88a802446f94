"""Theorem hypothesis checkers and their reports."""

import inspect
import json

import pytest
from hypothesis import given, settings

import oracles
from scrambles import (
    INF,
    CrossCheck,
    HypothesisCheck,
    TheoremReport,
    Multigraph,
    complete_bipartite,
    complete_graph,
    crown,
    cycle_graph,
    egg_cut_number,
    folded_cube,
    gonality_bruteforce,
    herschel_graph,
    hypercube,
    independence_number,
    invariants,
    path_graph,
    render_report,
    report_to_json,
    verify_bipartite,
    verify_girth_family,
    verify_main,
    uniform_scramble,
    verify,
    verify_order_ek,
)
from scrambles.verify import _gonality_cross_check
from strategies import connected_multigraphs, plain_edges, simple_connected_graphs


class TestMain:
    def test_herschel_at_4(self):
        report = verify_main(herschel_graph(), 4)
        assert isinstance(report, TheoremReport)
        assert all(isinstance(check, HypothesisCheck) for check in report.hypotheses)
        assert isinstance(report.cross_check, CrossCheck)
        assert report.applicable
        assert report.conclusion_value == 5
        assert report.upper_bound == 5
        assert report.cross_check.status == "verified"
        assert report.cross_check.value == 5

    def test_q4_at_4_is_above_brute_cap(self):
        report = verify_main(hypercube(4), 4, brute_cap=12)
        assert report.applicable
        assert report.conclusion_value == 8
        assert report.cross_check.status == "skipped"

    def test_q4_at_4_is_cross_checked_by_default(self):
        report = verify_main(hypercube(4), 4)
        assert report.conclusion_value == 8
        assert report.cross_check.status == "verified"
        assert report.cross_check.value == 8

    @pytest.mark.parametrize("G, lam", [(hypercube(5), "11"), (folded_cube(5), "14")])
    def test_32_vertex_cubes_at_4(self, G, lam):
        report = verify_main(G, 4)
        assert report.hypotheses[1].witness == {"lambda": lam, "bound": 16}
        assert not report.applicable
        assert report.cross_check.status == "skipped"

    def test_triangle_fails_girth(self):
        report = verify_main(complete_graph(4), 4)
        assert not report.applicable
        assert report.hypotheses[0].holds is False
        assert report.conclusion_value is None
        assert report.upper_bound is None

    def test_parameter_floor(self):
        with pytest.raises(ValueError, match="at least 3"):
            verify_main(cycle_graph(4), 2)

    def test_disconnected_rejected(self):
        G = Multigraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            verify_main(G, 3)

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError, match="at least 2 vertices"):
            verify_main(Multigraph(1, []), 3)

    @pytest.mark.parametrize(
        "G, l", [(complete_graph(2), 4), (complete_bipartite(1, 3), 10), (complete_graph(4), 6)]
    )
    def test_parameter_ceiling_is_order_plus_one(self, G, l):
        # main:L needs a connected (L-1)-set; the range check runs before girth
        with pytest.raises(ValueError, match=f"subset size {l - 1} out of range"):
            verify_main(G, l)

    def test_brute_cap_is_a_number(self):
        G = complete_graph(5)
        assert verify_main(G, 3).cross_check.status == "verified"
        assert verify_main(G, 3, brute_cap=0).cross_check.status == "skipped"
        with pytest.raises(TypeError):
            verify_main(G, 3, brute_cap=None)

    def test_top_of_parameter_range(self):
        # L = n + 1 takes the whole star as the one egg: bound n - alpha_{n-1} = 1
        report = verify_main(complete_bipartite(1, 3), 5)
        assert report.upper_bound == 1
        assert report.hypotheses[1].witness == {"lambda": "inf", "bound": 1}

    def test_no_conclusion_when_not_applicable(self):
        # C_8 passes girth but fails lambda_3 >= 3: nothing is concluded
        report = verify_main(cycle_graph(8), 4)
        assert not report.applicable
        assert report.conclusion is None
        data = json.loads(report_to_json(report))
        assert data["applicable"] is False
        assert data["conclusion"] is None
        assert data["conclusion_value"] is None
        assert data["upper_bound"] == {"finite": True, "value": 3}

    @given(simple_connected_graphs(max_n=7))
    @settings(deadline=None, max_examples=40)
    def test_level_3_bound_always_present_on_simple_graphs(self, G):
        report = verify_main(G, 3, brute_cap=0)
        assert report.hypotheses[0].holds
        assert report.upper_bound == G.n - independence_number(G)

    @given(simple_connected_graphs(max_n=6))
    @settings(deadline=None, max_examples=30)
    def test_applicable_conclusion_matches_bruteforce(self, G):
        report = verify_main(G, 3, brute_cap=0)
        if report.applicable:
            assert report.conclusion_value == gonality_bruteforce(G).value


class TestGirthFamilies:
    def test_complete_graph_satisfies_girth3(self):
        report = verify_girth_family(complete_graph(5), "girth3")
        assert report.applicable
        assert report.conclusion_value == 4
        assert report.cross_check.status == "verified"

    def test_square_fails_girth3_on_nonadjacent_sum(self):
        report = verify_girth_family(cycle_graph(4), "girth3")
        assert not report.applicable
        failed = {c.name: c for c in report.hypotheses if not c.holds}
        assert "nonadjacent_valence_sums_at_least_n_plus_1" in failed

    def test_girth3_adjacent_pair_witness(self):
        # P_4's end edges have valence sum 1 + 2 = 3 < n
        report = verify_girth_family(path_graph(4), "girth3")
        assert report.hypotheses[0].holds is False
        assert report.hypotheses[0].witness == [0, 1, 3]

    def test_girth3_rejects_multigraphs(self):
        G = Multigraph(2, [(0, 1), (0, 1)])
        with pytest.raises(ValueError, match="simple"):
            verify_girth_family(G, "girth3")

    def test_herschel_fails_girth4a_on_xi3(self):
        report = verify_girth_family(herschel_graph(), "girth4a")
        assert not report.applicable
        held = {c.name: c.holds for c in report.hypotheses}
        assert held["triangle_free"]
        assert held["min_valence_at_least_3"]
        assert not held["xi3_at_least_n_plus_1"]

    def test_k55_satisfies_girth4a(self):
        report = verify_girth_family(complete_bipartite(5, 5), "girth4a")
        assert report.applicable
        assert report.conclusion_value == 5
        assert report.cross_check.status == "verified"

    def test_k44_satisfies_girth4b(self):
        report = verify_girth_family(complete_bipartite(4, 4), "girth4b")
        assert report.applicable
        assert report.conclusion_value == 4
        assert report.cross_check.status == "verified"

    def test_c8_fails_girth4b_on_valence(self):
        report = verify_girth_family(cycle_graph(8), "girth4b")
        assert not report.applicable

    def test_q4_fails_girth4b_on_valence(self):
        report = verify_girth_family(hypercube(4), "girth4b")
        assert not report.applicable
        held = {c.name: c.holds for c in report.hypotheses}
        assert not held["min_valence_above_third"]

    def test_c8_fails_girth5_on_valence(self):
        report = verify_girth_family(cycle_graph(8), "girth5")
        held = {c.name: c.holds for c in report.hypotheses}
        assert held["girth_at_least_5"]
        assert held["order_at_least_8"]
        assert not held["min_valence_at_least_half_bound"]
        assert not report.applicable

    def test_petersen_fails_girth5_on_valence(self):
        # 3-regular girth-5 graph on 10 vertices
        edges = [(v, (v + 1) % 5) for v in range(5)]
        edges += [(v, v + 5) for v in range(5)]
        edges += [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
        petersen = Multigraph(10, edges)
        assert petersen.girth() == 5
        report = verify_girth_family(petersen, "girth5")
        assert not report.applicable

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown"):
            verify_girth_family(cycle_graph(4), "girth6")


class TestBipartite:
    def test_crown_satisfies_variant1(self):
        report = verify_bipartite(crown(4), "bipartite1")
        assert report.applicable
        assert report.conclusion_value == 4
        assert report.cross_check.status == "verified"

    def test_c8_fails_variant1_with_informational_gonality(self):
        report = verify_bipartite(cycle_graph(8), "bipartite1")
        assert not report.applicable
        assert report.cross_check.status == "informational"
        assert report.cross_check.value == 2

    def test_k33_satisfies_variant1(self):
        report = verify_bipartite(complete_bipartite(3, 3), "bipartite1")
        assert report.applicable
        assert report.conclusion_value == 3
        assert report.cross_check.status == "verified"

    def test_k33_satisfies_variant2(self):
        report = verify_bipartite(complete_bipartite(3, 3), "bipartite2")
        assert report.applicable
        assert report.conclusion_value == 3

    def test_k23_fails_variant2_on_order(self):
        report = verify_bipartite(complete_bipartite(2, 3), "bipartite2")
        assert not report.applicable
        held = {c.name: c.holds for c in report.hypotheses}
        assert not held["order_at_least_6"]

    def test_independence_lemma_checked_when_dense(self):
        report = verify_bipartite(complete_bipartite(3, 3), "bipartite1")
        assert report.lemma_checks
        lemma = report.lemma_checks[0]
        assert lemma.name == "independence_number_equals_larger_side"
        assert lemma.holds

    def test_sparse_graphs_skip_the_lemma(self):
        # the star has minimum valence 1 < n/4, below the lemma premise
        report = verify_bipartite(complete_bipartite(1, 4), "bipartite1")
        assert report.lemma_checks == ()

    def test_boundary_density_triggers_the_lemma(self):
        # C_8 sits exactly on the premise: 4 * delta = n
        report = verify_bipartite(cycle_graph(8), "bipartite1")
        assert report.lemma_checks
        assert report.lemma_checks[0].holds

    def test_odd_cycle_rejected(self):
        with pytest.raises(ValueError, match="bipartite"):
            verify_bipartite(cycle_graph(5), "bipartite1")

    def test_multigraph_reported_in_hypotheses(self):
        G = Multigraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)])
        report = verify_bipartite(G, "bipartite1")
        held = {c.name: c.holds for c in report.hypotheses}
        assert not held["simple"]
        assert not report.applicable


class TestOrderEk:
    def test_herschel_pair_agrees(self):
        report = verify_order_ek(herschel_graph(), 3)
        assert report.applicable
        assert report.conclusion_value == (5, 5)
        assert report.cross_check.status == "verified"
        assert report.cross_check.value == 5

    def test_q3_pair_agrees(self):
        report = verify_order_ek(hypercube(3), 2)
        assert report.conclusion_value == (4, 4)
        assert report.cross_check.status == "verified"

    def test_whole_graph_egg(self):
        report = verify_order_ek(cycle_graph(5), 5)
        assert report.conclusion_value == (1, 1)

    def test_k_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            verify_order_ek(cycle_graph(5), 6)

    @given(connected_multigraphs(max_n=7))
    @settings(deadline=None)
    def test_direct_side_matches_exhaustive_oracles(self, G):
        # every transversal and every bipartition, by enumeration: no code
        # shared with the pair scan or with the split search
        n, edges = plain_edges(G)
        for k in range(1, n + 1):
            eggs = oracles.connected_ksubsets(n, edges, k)
            order = min(
                oracles.hitting_exhaustive(n, eggs), oracles.egg_cut_bipartition(n, edges, eggs)
            )
            assert verify_order_ek(G, k).conclusion_value[0] == order

    def test_direct_side_does_not_run_the_split_engine(self, monkeypatch):
        # a wrong split search reaches lambda_k and the egg-level cut
        # alike, so only a direct side of its own can catch it
        G = herschel_graph()
        monkeypatch.setattr(invariants, "_min_split", lambda *args, **kwargs: 1)
        assert egg_cut_number(uniform_scramble(G, 3)) == 1
        report = verify_order_ek(G, 3)
        assert report.conclusion_value == (5, 1)
        assert report.cross_check.status == "mismatch"
        assert report.cross_check.value is None


class TestReports:
    def test_applicable_equals_hypothesis_conjunction(self):
        reports = [
            verify_main(herschel_graph(), 4),
            verify_main(complete_graph(4), 4),
            verify_girth_family(cycle_graph(8), "girth4b"),
            verify_bipartite(crown(4), "bipartite1"),
        ]
        for report in reports:
            assert report.applicable == all(c.holds for c in report.hypotheses)

    def test_reports_are_values_with_no_default_lemmas(self):
        first, second = TheoremReport("main", []), TheoremReport("main", [])
        assert first.lemma_checks == second.lemma_checks == ()
        assert TheoremReport._fields == (
            "theorem_id",
            "hypotheses",
            "conclusion_value",
            "parameter",
            "upper_bound",
            "lemma_checks",
            "cross_check",
        )
        for field in TheoremReport._fields:
            with pytest.raises(AttributeError):
                setattr(first, field, None)
        assert '"lemma_checks": []' in report_to_json(first)

    @pytest.mark.parametrize(
        "G",
        [herschel_graph(), crown(6), complete_bipartite(3, 3)],
        ids=["herschel", "crown6", "k33"],
    )
    def test_every_verifier_reports_tuples(self, G):
        # a list inside a report could be changed after the report is made
        for token, theorem in verify.THEOREMS.items():
            argument = token if theorem.example is None else theorem.example
            report = getattr(verify, theorem.verifier)(G, argument)
            assert type(report.hypotheses) is tuple, token
            assert type(report.lemma_checks) is tuple, token

    def test_json_reserializes_byte_identically(self):
        for report in (
            verify_main(herschel_graph(), 4),
            verify_bipartite(cycle_graph(8), "bipartite1"),
            verify_order_ek(hypercube(3), 2),
        ):
            text = report_to_json(report)
            assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text

    @pytest.mark.parametrize("claimed, found", [(3, 2), (1, None)])
    def test_wrong_claim_is_a_mismatch(self, claimed, found):
        # C_4 has gonality 2; a search capped below it finds nothing
        check = _gonality_cross_check(cycle_graph(4), claimed, 16)
        assert check.status == "mismatch"
        assert check.value == found

    def test_cross_check_passes_no_lower_bound(self, monkeypatch):
        # the brute force checks values that the scramble engines give,
        # so it must not start from a bound that they computed
        calls = []

        def spy(*args, **kwargs):
            calls.append(inspect.signature(gonality_bruteforce).bind(*args, **kwargs).arguments)
            return gonality_bruteforce(*args, **kwargs)

        monkeypatch.setattr(verify, "gonality_bruteforce", spy)
        assert _gonality_cross_check(herschel_graph(), 5, 16).status == "verified"
        assert _gonality_cross_check(herschel_graph(), None, 16).status == "informational"
        assert verify_main(herschel_graph(), 4).cross_check.status == "verified"
        assert len(calls) == 3
        assert all("lower" not in arguments for arguments in calls)

    def test_json_encodes_infinite_counts(self):
        # a tree has infinite girth, so the main check reports girth=inf
        report = verify_main(Multigraph(4, [(0, 1), (1, 2), (1, 3)]), 3)
        data = json.loads(report_to_json(report))
        assert data["hypotheses"][0]["witness"] == "girth=inf"

    def test_render_marks_hypotheses(self):
        text = render_report(verify_main(herschel_graph(), 4))
        assert "main (parameter 4): applicable" in text
        assert "[ok  ]" in text
        assert "conclusion: scramble number = gonality = 5" in text

    def test_render_marks_failures(self):
        text = render_report(verify_main(complete_graph(4), 4))
        assert "not applicable" in text
        assert "[fail]" in text

    def test_render_notes_skipped_cross_check(self):
        text = render_report(verify_main(hypercube(4), 4, brute_cap=12))
        assert "not independently verified" in text

    def test_render_skip_without_conclusion_asserts_nothing(self):
        text = render_report(verify_main(hypercube(5), 4))
        assert "brute-force gonality: skipped (not applicable, so no conclusion to check)" in text
        assert "asserted" not in text

    def test_upper_bound_reported_even_when_not_applicable(self):
        # C_8 can drop every third vertex: five survivors in runs of <= 2
        report = verify_main(cycle_graph(8), 4)
        assert not report.applicable
        assert report.upper_bound == 3
        text = render_report(report)
        assert "upper bound: gonality <= 3" in text
