"""Divisors, firing moves, q-reduction, gonality search, and strong
separators."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scrambles import (
    INF,
    DivisorFileError,
    GonalityResult,
    Multigraph,
    SeparatorBound,
    StrongSeparatorReport,
    check_strong_separator,
    chipfiring,
    complete_bipartite,
    complete_graph,
    crown,
    cycle_graph,
    degree,
    fire_subset,
    fire_vertex,
    format_divisor,
    gonality_bruteforce,
    gonality_upper_by_separator,
    has_positive_rank,
    herschel_graph,
    hypercube,
    is_equivalent,
    parse_divisor,
    path_graph,
    q_reduce,
)
from strategies import connected_multigraphs, disjoint_unions, divisors_for, plain_edges


@st.composite
def graph_and_divisor(draw, max_n=6, low=-3, high=4):
    G = draw(connected_multigraphs(max_n=max_n))
    D = draw(divisors_for(G.n, low, high))
    return G, D


@st.composite
def graphs_with_parallel_edges(draw, max_n=7):
    """A connected multigraph with one to three more copies of its edges,
    so that some vertex may burn only by an edge's multiplicity."""
    G = draw(connected_multigraphs(max_n=max_n))
    edges = G.edge_list()
    edges += draw(st.lists(st.sampled_from(edges), min_size=1, max_size=3))
    return Multigraph(G.n, edges)


class TestFiring:
    def test_fire_vertex_triangle(self):
        G = complete_graph(3)
        assert fire_vertex(G, (2, 0, 0), 0) == (0, 1, 1)

    def test_fire_vertex_multiplicity(self):
        G = Multigraph(2, [(0, 1), (0, 1)])
        assert fire_vertex(G, (2, 0), 0) == (0, 2)

    def test_fire_subset_moves_boundary_chips_only(self):
        G = cycle_graph(4)
        assert fire_subset(G, (1, 1, 0, 0), {0, 1}) == (0, 0, 1, 1)

    def test_fire_subset_rejects_empty_and_full(self):
        G = cycle_graph(4)
        with pytest.raises(ValueError, match="empty"):
            fire_subset(G, (0, 0, 0, 0), set())
        with pytest.raises(ValueError, match="proper"):
            fire_subset(G, (0, 0, 0, 0), {0, 1, 2, 3})

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            fire_vertex(cycle_graph(4), (0, 0), 0)

    @given(graph_and_divisor(), st.data())
    @settings(deadline=None)
    def test_subset_firing_is_composition(self, pair, data):
        G, D = pair
        subset = data.draw(
            st.sets(st.integers(0, G.n - 1), min_size=1, max_size=G.n - 1)
        )
        stepped = D
        for v in sorted(subset):
            stepped = fire_vertex(G, stepped, v)
        assert fire_subset(G, D, subset) == stepped
        assert list(stepped) == oracles.fire_set(G.edge_list(), D, subset)

    @given(graph_and_divisor(), st.data())
    @settings(deadline=None)
    def test_firing_everything_is_identity(self, pair, data):
        G, D = pair
        v = data.draw(st.integers(0, G.n - 1))
        rest = set(range(G.n)) - {v}
        out = fire_vertex(G, D, v)
        if rest:
            out = fire_subset(G, out, rest)
        assert out == D

    @given(graph_and_divisor(), st.data())
    @settings(deadline=None)
    def test_degree_is_conserved(self, pair, data):
        G, D = pair
        v = data.draw(st.integers(0, G.n - 1))
        assert degree(fire_vertex(G, D, v)) == degree(D)


class TestReduction:
    def test_tree_collects_at_base(self):
        G = path_graph(4)
        assert q_reduce(G, (0, 0, 0, 3), 0) == (3, 0, 0, 0)

    def test_triangle(self):
        assert q_reduce(complete_graph(3), (0, 1, 1), 0) == (2, 0, 0)

    def test_square(self):
        assert q_reduce(cycle_graph(4), (0, 1, 0, 1), 0) == (2, 0, 0, 0)

    def test_debt_is_cleared(self):
        G = cycle_graph(5)
        reduced = q_reduce(G, (-2, 1, 4, 0, -1), 1)
        assert all(reduced[v] >= 0 for v in range(5) if v != 1)
        assert degree(reduced) == 2

    def test_connectivity_required(self):
        G = Multigraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            q_reduce(G, (0, 0, 0, 0), 0)

    @given(connected_multigraphs(max_n=9, max_extra=6), st.data())
    @settings(deadline=None)
    def test_bfs_order_is_by_distance_then_index(self, G, data):
        q = data.draw(st.integers(0, G.n - 1))
        dist = oracles.distances_from(*plain_edges(G), q)
        assert chipfiring._bfs_order(G, q) == sorted(range(G.n), key=lambda v: (dist[v], v))

    def test_long_burning_phase_on_hypercube(self):
        # debt clearing leaves the chips far from q, so the burning phase
        # needs many firings of the same surviving sets
        G = hypercube(4)
        D = (4, -1, 6, 0, 7, 6, 8, 6, 5, 3, -5, 8, 2, 7, -2, 5)
        n, edges = plain_edges(G)
        reduced = q_reduce(G, D, 4)
        assert oracles.is_q_reduced(n, edges, reduced, 4)
        assert oracles.divisors_equivalent(n, edges, D, reduced)
        assert is_equivalent(G, D, reduced)
        # Riemann-Roch: rank >= degree - genus = 59 - 17
        assert has_positive_rank(G, D)

    @given(graph_and_divisor(), st.data())
    @settings(deadline=None)
    def test_idempotent(self, pair, data):
        G, D = pair
        q = data.draw(st.integers(0, G.n - 1))
        once = q_reduce(G, D, q)
        assert q_reduce(G, once, q) == once

    @given(graph_and_divisor(), st.data())
    @settings(deadline=None)
    def test_invariant_under_firing(self, pair, data):
        G, D = pair
        q = data.draw(st.integers(0, G.n - 1))
        v = data.draw(st.integers(0, G.n - 1))
        assert q_reduce(G, fire_vertex(G, D, v), q) == q_reduce(G, D, q)

    @given(graph_and_divisor(max_n=5), st.data())
    @settings(deadline=None, max_examples=60)
    def test_reduced_form_satisfies_definition(self, pair, data):
        G, D = pair
        q = data.draw(st.integers(0, G.n - 1))
        reduced = q_reduce(G, D, q)
        assert oracles.is_q_reduced(*plain_edges(G), reduced, q)

    @given(graph_and_divisor(max_n=5), st.data())
    @settings(deadline=None, max_examples=60)
    def test_reduction_stays_in_class(self, pair, data):
        G, D = pair
        q = data.draw(st.integers(0, G.n - 1))
        n, edges = plain_edges(G)
        assert oracles.divisors_equivalent(n, edges, D, q_reduce(G, D, q))


class TestBurn:
    def test_multiplicity_burns_what_one_edge_cannot(self):
        # vertex 1 holds a chip against a double edge to the fire, vertex 2
        # one chip against a single edge
        G = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
        burnt, incoming, count = chipfiring._burn(G._pairs, (0, 1, 1), 0)
        assert burnt == [True, True, False]
        assert count == 2
        assert incoming[2] == 1

    @given(graphs_with_parallel_edges(), st.data())
    @settings(deadline=None, max_examples=150)
    def test_matches_fixpoint_oracle(self, G, data):
        q = data.draw(st.integers(0, G.n - 1))
        chips = data.draw(divisors_for(G.n, 0, 4))
        n, edges = plain_edges(G)
        want = oracles.dhar_burnt(n, edges, chips, q)
        burnt, incoming, count = chipfiring._burn(G._pairs, chips, q)
        assert (count == n) == (len(want) == n)
        if count < n:
            # all burnt may stop early; a surviving set is read in full
            assert {v for v in range(n) if burnt[v]} == want
            assert count == len(want)
            for v in set(range(n)) - want:
                assert incoming[v] == oracles.heat_into(edges, v, want)


class TestEquivalence:
    def test_unequal_degrees_never_equivalent(self):
        G = cycle_graph(4)
        assert not is_equivalent(G, (1, 0, 0, 0), (1, 1, 0, 0))

    def test_square_alternating_classes_differ(self):
        G = cycle_graph(4)
        assert not is_equivalent(G, (1, 0, 1, 0), (0, 1, 0, 1))

    def test_firing_stays_equivalent(self):
        G = cycle_graph(4)
        D = (2, 1, 0, 0)
        assert is_equivalent(G, D, fire_vertex(G, D, 1))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="graph has no vertices"):
            is_equivalent(Multigraph(0), (), ())

    @given(graph_and_divisor(max_n=5), st.data())
    @settings(deadline=None, max_examples=60)
    def test_matches_lattice_oracle(self, pair, data):
        G, D1 = pair
        D2 = data.draw(divisors_for(G.n))
        # half the time compare against a genuine firing image
        if data.draw(st.booleans()):
            D2 = fire_vertex(G, D1, data.draw(st.integers(0, G.n - 1)))
        n, edges = plain_edges(G)
        assert is_equivalent(G, D1, D2) == oracles.divisors_equivalent(n, edges, D1, D2)


class TestPositiveRank:
    def test_zero_divisor_has_none(self):
        assert not has_positive_rank(path_graph(2), (0, 0))

    def test_negative_degree_has_none(self):
        assert not has_positive_rank(path_graph(2), (-1, 0))

    def test_single_chip_on_tree(self):
        assert has_positive_rank(path_graph(3), (0, 1, 0))

    def test_cycle_needs_two_chips(self):
        C5 = cycle_graph(5)
        assert not has_positive_rank(C5, (1, 0, 0, 0, 0))
        assert has_positive_rank(C5, (0, 0, 0, 0, 2))

    def test_disconnected_graph_rejected(self):
        G = Multigraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="graph must be connected"):
            has_positive_rank(G, (1, 0, 1, 0))
        # connectivity is checked before the negative-degree shortcut,
        # and after the divisor's length
        with pytest.raises(ValueError, match="graph must be connected"):
            has_positive_rank(G, (-1, 0, 0, 0))
        with pytest.raises(ValueError, match="3 entries for a 4-vertex graph"):
            has_positive_rank(G, (1, 0, 1))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="graph has no vertices"):
            has_positive_rank(Multigraph(0), ())

    @given(graph_and_divisor(max_n=4, low=-1, high=2))
    @settings(deadline=None, max_examples=40)
    def test_matches_lattice_oracle(self, pair):
        G, D = pair
        assert has_positive_rank(G, D) == oracles.has_positive_rank_lattice(
            *plain_edges(G), D
        )

    @given(graph_and_divisor(max_n=7, low=-2, high=3))
    @settings(deadline=None, max_examples=60)
    def test_matches_dhar_oracle(self, pair):
        G, D = pair
        assert has_positive_rank(G, D) == oracles.has_positive_rank_dhar(
            *plain_edges(G), D
        )

    @given(graph_and_divisor(max_n=7, low=0, high=4))
    @settings(deadline=None, max_examples=80)
    def test_early_exit_rank_test_matches_dhar_oracle(self, pair):
        # D is tested as drawn, not 0-reduced first, so sets fire
        G, D = pair
        keeps = all(chipfiring._keeps_chip(G._pairs, D, q) for q in range(G.n))
        assert keeps == oracles.has_positive_rank_dhar(*plain_edges(G), D)


class TestGonality:
    def test_known_values(self):
        assert gonality_bruteforce(path_graph(5)).value == 1
        assert gonality_bruteforce(cycle_graph(5)).value == 2
        assert gonality_bruteforce(complete_graph(4)).value == 3
        assert gonality_bruteforce(complete_bipartite(2, 3)).value == 2

    def test_witness_has_positive_rank(self):
        result = gonality_bruteforce(cycle_graph(6))
        assert result.value == 2
        assert has_positive_rank(cycle_graph(6), result.witness)
        assert degree(result.witness) == 2

    def test_degree_cap_reported(self):
        result = gonality_bruteforce(cycle_graph(4), max_degree=1)
        assert result.exceeded_cap
        assert result.value is None
        assert result.witness is None
        assert result.max_degree == 1

    def test_no_cap_is_inf_not_none(self):
        G = cycle_graph(5)
        assert gonality_bruteforce(G, max_degree=INF) == gonality_bruteforce(G)
        assert gonality_bruteforce(G).max_degree == 5
        assert gonality_bruteforce(G, max_degree=9).max_degree == 5
        # any number caps the degree, at its floor
        assert gonality_bruteforce(G, max_degree=2.5) == gonality_bruteforce(G, max_degree=2)
        assert gonality_bruteforce(G, max_degree=3.0).value == 2
        with pytest.raises(TypeError):
            gonality_bruteforce(G, max_degree=None)

    def test_negative_degree_cap_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            gonality_bruteforce(cycle_graph(4), max_degree=-1)
        with pytest.raises(ValueError, match="non-negative"):
            gonality_bruteforce(cycle_graph(4), max_degree=math.nan)

    def test_disconnected_graph_rejected(self):
        G = Multigraph(4, [(0, 1), (2, 3)])
        D = (1, 0, 0, 0)
        with pytest.raises(ValueError, match="graph must be connected"):
            q_reduce(G, D, 0)
        with pytest.raises(ValueError, match="graph must be connected"):
            is_equivalent(G, D, D)
        # connectivity is checked before the unequal-degree shortcut, and
        # after the divisors' lengths
        with pytest.raises(ValueError, match="graph must be connected"):
            is_equivalent(G, D, (2, 0, 0, 0))
        with pytest.raises(ValueError, match="3 entries for a 4-vertex graph"):
            q_reduce(G, (1, 0, 0), 0)
        with pytest.raises(ValueError, match="3 entries for a 4-vertex graph"):
            is_equivalent(G, D, (1, 0, 0))
        with pytest.raises(ValueError, match="graph must be connected"):
            gonality_bruteforce(G)

    @given(connected_multigraphs(max_n=4, max_extra=3))
    @settings(deadline=None, max_examples=25)
    def test_matches_lattice_oracle(self, G):
        got = gonality_bruteforce(G).value
        assert got == oracles.gonality_lattice(*plain_edges(G))

    def test_single_vertex(self):
        G = Multigraph(1, [])
        result = gonality_bruteforce(G)
        assert result.value == 1
        assert result.witness == (1,)
        assert gonality_bruteforce(G, max_degree=0).exceeded_cap

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="no vertices"):
            gonality_bruteforce(Multigraph(0, []))

    def test_tree_below_one_chip_exceeds_cap(self):
        result = gonality_bruteforce(path_graph(4), max_degree=0)
        assert result.exceeded_cap
        assert result.value is None

    @given(connected_multigraphs(min_n=1, max_n=7, max_extra=6))
    @settings(deadline=None, max_examples=60)
    def test_matches_lexicographic_oracle(self, G):
        n, edges = plain_edges(G)
        value, _ = oracles.gonality_lexicographic(n, edges, n)
        result = gonality_bruteforce(G)
        assert result.value == value
        assert min(result.witness) >= 0
        assert degree(result.witness) == value
        assert oracles.has_positive_rank_dhar(n, edges, result.witness)
        capped = gonality_bruteforce(G, max_degree=value - 1)
        assert capped.exceeded_cap
        assert capped.value is None

    def test_named_witnesses_are_pinned(self):
        assert gonality_bruteforce(hypercube(3)).witness == (3, 0, 0, 0, 0, 0, 0, 1)
        assert gonality_bruteforce(herschel_graph()).witness == (3, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)
        for m in (6, 7):
            want = [0] * (2 * m)
            want[0], want[m] = m - 1, 1
            assert gonality_bruteforce(crown(m)).witness == tuple(want)

    def test_no_superstability_burn_below_the_edge_connectivity(self):
        # crown 7 is 6-regular with lambda = 6, and a search for
        # gonality 7 places at most 5 chips off vertex 0
        result = gonality_bruteforce(crown(7))
        assert result.value == 7
        assert result.superstable_burns == 0
        assert result.rank_tests > 0

    @given(connected_multigraphs(min_n=1, max_n=7, max_extra=6))
    @settings(deadline=None, max_examples=40)
    def test_zero_edge_connectivity_changes_nothing(self, G):
        want = gonality_bruteforce(G)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chipfiring, "restricted_edge_connectivity", lambda G, k: 0)
            got = gonality_bruteforce(G)
        assert (got.value, got.witness) == (want.value, want.witness)
        assert got.superstable_burns >= want.superstable_burns

    def test_zero_edge_connectivity_changes_nothing_on_named_graphs(self, monkeypatch):
        graphs = [hypercube(3), herschel_graph(), crown(6), crown(7)]
        want = [gonality_bruteforce(G) for G in graphs]
        monkeypatch.setattr(chipfiring, "restricted_edge_connectivity", lambda G, k: 0)
        got = [gonality_bruteforce(G) for G in graphs]
        assert [(r.value, r.witness) for r in got] == [(r.value, r.witness) for r in want]
        # lambda = 3, 3, 5, 6: only Herschel's search reaches lambda chips
        assert [r.superstable_burns for r in want] == [0, 220, 0, 0]
        assert [r.superstable_burns for r in got] == [42, 360, 1815, 11622]
        assert [r.rank_tests for r in got] == [r.rank_tests for r in want] == [43, 288, 1383, 8589]

    @given(connected_multigraphs(min_n=1, max_n=7, max_extra=6))
    @settings(deadline=None, max_examples=40)
    def test_a_lower_bound_changes_no_answer(self, G):
        want = gonality_bruteforce(G)
        for lower in range(want.value + 1):
            got = gonality_bruteforce(G, lower=lower)
            assert (got.value, got.witness) == (want.value, want.witness)
            assert got.rank_tests <= want.rank_tests
        capped = gonality_bruteforce(G, max_degree=want.value - 1, lower=want.value)
        assert capped.exceeded_cap
        assert (capped.rank_tests, capped.superstable_burns) == (0, 0)

    def test_a_lower_bound_skips_the_refutation_on_named_graphs(self):
        graphs = [hypercube(3), herschel_graph(), crown(6), crown(7)]
        want = [gonality_bruteforce(G) for G in graphs]
        got = [gonality_bruteforce(G, lower=r.value) for G, r in zip(graphs, want)]
        assert [(r.value, r.witness) for r in got] == [(r.value, r.witness) for r in want]
        assert [r.rank_tests for r in got] == [15, 61, 25, 29]

    def test_a_cap_below_the_lower_bound_tests_nothing(self):
        result = gonality_bruteforce(hypercube(3), max_degree=1, lower=4)
        assert result == GonalityResult(None, None, True, 1, 0, 0)
        assert (result.rank_tests, result.superstable_burns) == (0, 0)
        with pytest.raises(ValueError, match="non-negative"):
            gonality_bruteforce(hypercube(3), max_degree=-1, lower=4)

    @given(connected_multigraphs(min_n=1, max_n=6, max_extra=6))
    @settings(deadline=None, max_examples=40)
    def test_skipping_every_burn_keeps_the_value(self, G):
        # with no burn at all the walk also visits divisors that are not
        # 0-reduced; the rank test stays exact on them
        n, edges = plain_edges(G)
        value, _ = oracles.gonality_lexicographic(n, edges, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chipfiring, "restricted_edge_connectivity", lambda G, k: G.n * G.n)
            result = gonality_bruteforce(G)
        assert result.value == value
        assert result.superstable_burns == 0
        assert oracles.has_positive_rank_dhar(n, edges, result.witness)


class TestStrongSeparators:
    def test_square_diagonal_is_valid(self):
        report = check_strong_separator(cycle_graph(4), {0, 2})
        assert isinstance(report, StrongSeparatorReport)
        assert report.valid
        assert report.violating_component is None

    def test_single_square_vertex_is_not(self):
        report = check_strong_separator(cycle_graph(4), {0})
        assert not report.valid
        assert report.violating_component == {1, 2, 3}

    def test_cycle_component_is_not_a_tree(self):
        # a pendant vertex on C_6; removing it leaves the cycle, which
        # fails the tree condition
        G = cycle_graph(6)
        H = Multigraph(7, [(u, v) for u, v, _ in G.edges()] + [(0, 6)])
        report = check_strong_separator(H, {6})
        assert not report.valid

    def test_multiplicity_violates_single_edge_rule(self):
        G = Multigraph(2, [(0, 1), (0, 1)])
        report = check_strong_separator(G, {0})
        assert not report.valid
        assert report.violating_component == {1}

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            check_strong_separator(cycle_graph(4), set())

    def test_bound_on_small_graphs(self):
        assert gonality_upper_by_separator(cycle_graph(4)).size == 2
        assert gonality_upper_by_separator(path_graph(5)).size == 1
        assert gonality_upper_by_separator(complete_graph(4)).size == 3

    def test_herschel_bound(self):
        bound = gonality_upper_by_separator(herschel_graph())
        assert isinstance(bound, SeparatorBound)
        assert bound.size == 5
        assert bound.separator == {2, 3, 4, 5, 10}

    @given(connected_multigraphs(max_n=6))
    @settings(deadline=None, max_examples=50)
    def test_bound_is_a_valid_separator_above_gonality(self, G):
        bound = gonality_upper_by_separator(G)
        assert check_strong_separator(G, bound.separator).valid
        assert gonality_bruteforce(G).value <= bound.size

    @given(st.one_of(connected_multigraphs(max_n=7), disjoint_unions()))
    @settings(deadline=None, max_examples=60)
    def test_bound_matches_oracles_on_one_or_two_components(self, G):
        n, edges = plain_edges(G)
        largest = max(map(len, oracles.components(n, edges)))
        limit = min(oracles.girth_bfs(n, edges) - 2, largest - 1)
        bound = gonality_upper_by_separator(G)
        assert bound.component_limit == limit
        assert bound.size == n - oracles.alpha_component_exhaustive(n, edges, limit)
        assert check_strong_separator(G, bound.separator).valid

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="no vertices"):
            gonality_upper_by_separator(Multigraph(0))


class TestDivisorDocuments:
    def test_roundtrip(self):
        D = (3, -1, 0, 2)
        assert parse_divisor(format_divisor(D), 4) == D

    def test_comments_allowed(self):
        assert parse_divisor("# chips\n1 2 3\n", 3) == (1, 2, 3)

    def test_wrong_arity(self):
        with pytest.raises(DivisorFileError, match="expected 4"):
            parse_divisor("1 2 3\n", 4)

    def test_bad_token(self):
        with pytest.raises(DivisorFileError, match="integers"):
            parse_divisor("1 x 3\n", 3)

    def test_extra_lines(self):
        with pytest.raises(DivisorFileError, match="single line") as info:
            parse_divisor("1 2\n3 4\n", 2)
        assert info.value.line == 2

    def test_empty_document(self):
        with pytest.raises(DivisorFileError, match="no content"):
            parse_divisor("# nothing\n", 3)

    def test_lines_end_only_at_newline_and_carriage_return(self):
        # a vertical tab is a blank inside its line, not a line end
        assert parse_divisor("1 2\x0b3\n", 3) == (1, 2, 3)
        with pytest.raises(DivisorFileError, match="single line") as info:
            parse_divisor("1 2 3\r\n\r4 5 6\n", 3)
        assert info.value.line == 3
