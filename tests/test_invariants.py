"""Restricted edge connectivity, connected outdegrees, and component
independence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scrambles import (
    INF,
    Multigraph,
    complete_bipartite,
    complete_graph,
    component_independence_number,
    compute_invariant,
    cycle_graph,
    egg_cut_number,
    folded_cube,
    herschel_graph,
    hitting_number,
    hypercube,
    independence_number,
    max_component_independent_set,
    min_connected_outdegree,
    path_graph,
    random_connected_multigraph,
    restricted_edge_connectivity,
    uniform_scramble,
)
from strategies import connected_multigraphs, disjoint_unions, plain_edges, vertex_set


class TestRestrictedConnectivity:
    def test_k1_is_plain_edge_connectivity(self):
        assert restricted_edge_connectivity(cycle_graph(5), 1) == 2
        assert restricted_edge_connectivity(path_graph(4), 1) == 1
        assert restricted_edge_connectivity(complete_graph(4), 1) == 3

    def test_small_graphs_have_no_balanced_split(self):
        assert restricted_edge_connectivity(complete_graph(3), 2) == INF
        assert restricted_edge_connectivity(path_graph(3), 2) == INF

    def test_cycle_split_into_arcs(self):
        assert restricted_edge_connectivity(cycle_graph(6), 2) == 2
        assert restricted_edge_connectivity(cycle_graph(6), 3) == 2

    def test_hypercube_values(self):
        assert restricted_edge_connectivity(hypercube(3), 2) == 4
        assert restricted_edge_connectivity(hypercube(4), 3) == 8

    def test_herschel_lambda3(self):
        assert restricted_edge_connectivity(herschel_graph(), 3) == 5

    def test_multiplicity_counts(self):
        doubled = [(v, (v + 1) % 4) for v in range(4)] * 2
        assert restricted_edge_connectivity(Multigraph(4, doubled), 2) == 4

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            restricted_edge_connectivity(cycle_graph(4), 0)

    def test_disconnected_rejected(self):
        G = Multigraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            restricted_edge_connectivity(G, 1)

    @given(connected_multigraphs(max_n=6, max_extra=3), st.data())
    @settings(deadline=None, max_examples=40)
    def test_matches_deletion_oracle(self, G, data):
        n, edges = plain_edges(G)
        if len(edges) > 10:
            return
        k = data.draw(st.integers(1, n))
        assert restricted_edge_connectivity(G, k) == oracles.lambda_k_by_deletion(
            n, edges, k
        )

    @given(connected_multigraphs(max_n=12, max_extra=12))
    @settings(deadline=None, max_examples=40)
    def test_matches_mask_oracle_at_every_k(self, G):
        n, edges = plain_edges(G)
        for k in range(1, n + 1):
            assert restricted_edge_connectivity(G, k) == oracles.lambda_k_by_masks(
                n, edges, k
            )

    def test_five_cube_values(self):
        Q5 = hypercube(5)
        assert [restricted_edge_connectivity(Q5, k) for k in (2, 3, 4)] == [8, 11, 12]
        assert egg_cut_number(uniform_scramble(Q5, 2)) == 8


class TestConnectedOutdegree:
    def test_herschel_xi_values(self):
        H = herschel_graph()
        assert min_connected_outdegree(H, 3) == 5
        assert min_connected_outdegree(H, 4) == 5
        assert min_connected_outdegree(H, 5) == 6

    def test_single_vertex_is_min_valence(self):
        H = herschel_graph()
        assert min_connected_outdegree(H, 1) == 3

    def test_no_connected_k_subset_is_infinite(self):
        # two disjoint edges have no connected 3-set
        assert min_connected_outdegree(Multigraph(4, [(0, 1), (2, 3)]), 3) == INF

    def test_herschel_is_lambda3_optimal(self):
        # lambda_3 is realised by the edges around one connected 3-set
        H = herschel_graph()
        assert restricted_edge_connectivity(H, 3) == min_connected_outdegree(H, 3)

    def test_cycle_not_lambda2_suboptimal(self):
        # both sides of any 2-restricted cut of C_6 are arcs, so the
        # outdegree of a connected pair already achieves lambda_2
        C6 = cycle_graph(6)
        assert restricted_edge_connectivity(C6, 2) == min_connected_outdegree(C6, 2)

    @given(connected_multigraphs(max_n=7), st.data())
    @settings(deadline=None)
    def test_is_min_over_enumerated_subsets(self, G, data):
        from scrambles import enumerate_connected_subsets

        k = data.draw(st.integers(1, max(1, G.n - 1)))
        subsets = [s for s in map(vertex_set, enumerate_connected_subsets(G, k)) if len(s) < G.n]
        if not subsets:
            return
        assert min_connected_outdegree(G, k) == min(G.outdegree(s) for s in subsets)


class TestComponentIndependence:
    def test_cycle_values(self):
        C6 = cycle_graph(6)
        assert component_independence_number(C6, 1) == 3
        assert component_independence_number(C6, 2) == 4
        assert component_independence_number(C6, 3) == 4
        assert component_independence_number(C6, 5) == 5

    def test_limit_zero_forces_empty(self):
        assert component_independence_number(cycle_graph(4), 0) == 0

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            max_component_independent_set(cycle_graph(4), -1)

    def test_herschel_values(self):
        H = herschel_graph()
        assert independence_number(H) == 6
        assert component_independence_number(H, 2) == 6

    def test_complete_bipartite(self):
        G = complete_bipartite(3, 3)
        assert independence_number(G) == 3
        assert component_independence_number(G, 2) == 3

    def test_whole_graph_when_limit_reaches_n(self):
        G = cycle_graph(5)
        assert component_independence_number(G, 5) == 5
        assert component_independence_number(G, 4) == 4

    def test_witness_is_valid(self):
        H = herschel_graph()
        witness = max_component_independent_set(H, 2)
        assert len(witness) == 6
        for comp in H.connected_components(witness):
            assert len(comp) <= 2

    @pytest.mark.parametrize(
        "c, witness",
        [
            (1, {0, 1, 6, 7, 8, 9}),
            (2, {0, 1, 6, 7, 8, 9}),
            (3, {0, 1, 2, 8, 9, 10}),
            (4, {0, 1, 4, 5, 6, 7, 8, 9}),
        ],
    )
    def test_herschel_witnesses(self, c, witness):
        assert max_component_independent_set(herschel_graph(), c) == witness

    def test_32_vertex_cube_values(self):
        Q5 = hypercube(5)
        assert component_independence_number(Q5, 2) == 16
        assert component_independence_number(Q5, 3) == 16
        assert component_independence_number(folded_cube(5), 2) == 16

    def test_hitting_number_identity(self):
        # the uniform k-scramble's hitting number is n - alpha_{k-1},
        # computed here by the independent hitting-set search
        rng = random.Random(1307)
        for trial in range(12):
            n = rng.randint(13, 16)
            G = random_connected_multigraph(
                rng, n, extra_edges=rng.randint(0, n), allow_parallel=trial % 2 == 0
            )
            for k in range(1, n + 1):
                assert n - component_independence_number(G, k - 1) == hitting_number(
                    uniform_scramble(G, k)
                ), (sorted(G.edge_list()), k)

    @given(connected_multigraphs(max_n=11, max_extra=12), st.data())
    @settings(deadline=None)
    def test_matches_exhaustive_oracle(self, G, data):
        ell = data.draw(st.integers(0, G.n))
        n, edges = plain_edges(G)
        assert component_independence_number(G, ell) == (
            oracles.alpha_component_exhaustive(n, edges, ell)
        )

    @given(connected_multigraphs(max_n=11, max_extra=12), st.data())
    @settings(deadline=None)
    def test_witness_components_respect_limit(self, G, data):
        ell = data.draw(st.integers(0, G.n))
        witness = max_component_independent_set(G, ell)
        assert len(witness) == component_independence_number(G, ell)
        for comp in G.connected_components(witness):
            assert len(comp) <= ell


class TestComponentIndependenceDecision:
    @given(
        st.one_of(connected_multigraphs(max_n=10, max_extra=12), disjoint_unions()),
        st.sampled_from([1, 2, 3]),
        st.data(),
    )
    @settings(deadline=None, max_examples=150)
    def test_decision_matches_exhaustive_oracle(self, G, c, data):
        n, edges = plain_edges(G)
        alpha = oracles.alpha_component_exhaustive(n, edges, c)
        floor = data.draw(st.one_of(st.integers(-1, n), st.integers(alpha - 2, alpha + 1)))
        found = max_component_independent_set(G, c, floor=floor)
        assert (found is None) == (alpha <= floor)
        if found is not None:
            assert len(found) > floor
            assert all(len(comp) <= c for comp in oracles.components(n, edges, found))

    def test_limit_zero_holds_only_the_empty_set(self):
        assert max_component_independent_set(cycle_graph(4), 0, floor=-1) == frozenset()
        assert max_component_independent_set(cycle_graph(4), 0, floor=0) is None

    def test_stops_at_the_first_set_above_the_floor(self):
        # herschel's alpha_4 is 8; a floor of 5 is met by the first leaf,
        # the greedy set, with no search for a larger one
        H = herschel_graph()
        ticks = []
        found = max_component_independent_set(H, 4, floor=5, tick=lambda: ticks.append(1))
        assert len(found) > 5
        assert len(ticks) < 12

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    def test_tick_leaves_the_witness_alone(self, c):
        ticks = []
        ticked = max_component_independent_set(herschel_graph(), c, tick=lambda: ticks.append(1))
        assert ticked == max_component_independent_set(herschel_graph(), c)
        assert ticks

    def test_tick_can_end_the_search(self):
        class Stop(Exception):
            pass

        def tick():
            raise Stop

        with pytest.raises(Stop):
            max_component_independent_set(hypercube(4), 2, floor=7, tick=tick)


class TestMonotonicity:
    @given(connected_multigraphs(max_n=10, max_extra=12))
    @settings(deadline=None, max_examples=40)
    def test_lambda_k_and_alpha_c_never_decrease(self, G):
        # a larger k admits fewer splits, and a larger c more sets, so the
        # best uniform order max_k min(lambda_k, n - alpha_{k-1}) sits
        # where the two sequences cross
        lam = [restricted_edge_connectivity(G, k) for k in range(1, G.n + 1)]
        alpha = [component_independence_number(G, c) for c in range(G.n + 1)]
        assert lam == sorted(lam), lam
        assert alpha == sorted(alpha), alpha


class TestComputeInvariant:
    def test_dispatch(self):
        H = herschel_graph()
        assert compute_invariant(H, "lambda-k", 3) == 5
        assert compute_invariant(H, "xi-k", 5) == 6
        assert compute_invariant(H, "alpha-c", 2) == 6
        assert compute_invariant(H, "girth") == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            compute_invariant(cycle_graph(4), "treewidth", 1)
