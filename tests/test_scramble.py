"""Hitting numbers, egg cuts, and scramble orders."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from scrambles import (
    INF,
    ScrambleFileError,
    complete_graph,
    cycle_graph,
    egg_cut_number,
    enumerate_connected_subsets,
    folded_cube,
    has_finite_egg_cut,
    herschel_graph,
    hitting_number,
    hitting_search,
    hypercube,
    make_scramble,
    minimum_hitting_set,
    parse_scramble,
    path_graph,
    scramble_order,
    uniform_egg_cut_number,
    uniform_hitting_number,
    uniform_order_via_invariants,
    uniform_scramble,
)
from scrambles.scramble import Scramble
from strategies import connected_multigraphs, disjoint_unions, plain_edges


def assert_masks_match_eggs(S):
    assert len(S.masks) == len(S.eggs)
    for egg, mask in zip(S.eggs, S.masks):
        assert mask == sum(1 << v for v in egg)


@st.composite
def scrambles_on(draw, max_n=6, max_eggs=8):
    G = draw(connected_multigraphs(max_n=max_n))
    pool = []
    for k in range(1, G.n + 1):
        pool.extend(enumerate_connected_subsets(G, k))
    eggs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_eggs))
    return make_scramble(G, eggs)


@st.composite
def wide_scrambles(draw):
    """Scrambles of more than 64 eggs on 9 to 16 vertices, so egg masks
    span more than one byte and egg index sets more than one 64-bit word."""
    G = draw(connected_multigraphs(min_n=9, max_n=16, min_extra=4, max_extra=12))
    pool = []
    for k in range(2, 6):
        pool.extend(enumerate_connected_subsets(G, k))
    assume(len(pool) > 64)
    rng = draw(st.randoms(use_true_random=False))
    return make_scramble(G, rng.sample(pool, rng.randint(65, min(len(pool), 120))))


class TestConstruction:
    def test_eggs_deduplicated_and_sorted(self):
        G = path_graph(4)
        S = make_scramble(G, [{2, 3}, {0, 1}, {3, 2}])
        assert S.eggs == (frozenset({0, 1}), frozenset({2, 3}))
        assert S.masks == (0b0011, 0b1100)
        assert len(S) == 2

    def test_empty_egg_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            make_scramble(path_graph(3), [set()])

    def test_disconnected_egg_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            make_scramble(path_graph(4), [{0, 2}])

    def test_uniform_scramble_eggs(self):
        S = uniform_scramble(hypercube(3), 2)
        assert len(S) == 12
        S3 = uniform_scramble(hypercube(4), 3)
        assert len(S3) == 96


class TestParsing:
    def test_document_with_comments(self):
        G = cycle_graph(5)
        S = parse_scramble("# arcs\n0 1\n\n2 3 4\n", G)
        assert S.eggs == (frozenset({0, 1}), frozenset({2, 3, 4}))
        assert S.masks == (0b00011, 0b11100)

    def test_document_without_eggs(self):
        with pytest.raises(ScrambleFileError, match="no content"):
            parse_scramble("# nothing\n\n", cycle_graph(4))

    @given(scrambles_on(), st.randoms(use_true_random=False))
    @settings(deadline=None, max_examples=60)
    def test_round_trip_keeps_eggs_and_masks(self, S, rng):
        # every egg written twice, in shuffled order, to exercise dedup
        rows = [sorted(egg) for egg in S.eggs * 2]
        rng.shuffle(rows)
        for row in rows:
            rng.shuffle(row)
        text = "".join(" ".join(map(str, row)) + "\n" for row in rows)
        T = parse_scramble(text, S.graph)
        assert T.eggs == S.eggs
        assert T.masks == S.masks
        assert_masks_match_eggs(S)

    def test_bad_token(self):
        with pytest.raises(ScrambleFileError, match="integers") as info:
            parse_scramble("0 x\n", cycle_graph(4))
        assert info.value.line == 1

    def test_repeated_vertex(self):
        with pytest.raises(ScrambleFileError, match="repeated") as info:
            parse_scramble("# eggs\n0 0\n", cycle_graph(4))
        assert info.value.line == 2

    def test_out_of_range(self):
        with pytest.raises(ScrambleFileError, match="out of range"):
            parse_scramble("0 9\n", cycle_graph(4))

    def test_disconnected_egg(self):
        with pytest.raises(ScrambleFileError, match="connected") as info:
            parse_scramble("0 1\n0 2\n", cycle_graph(4))
        assert info.value.line == 2


class TestHitting:
    def test_triangle_edges_need_two(self):
        S = uniform_scramble(complete_graph(3), 2)
        assert hitting_number(S) == 2

    def test_single_egg_needs_one(self):
        S = make_scramble(path_graph(4), [{1, 2}])
        assert hitting_number(S) == 1
        assert minimum_hitting_set(S) <= {1, 2}

    def test_singletons_need_everything(self):
        G = cycle_graph(5)
        S = uniform_scramble(G, 1)
        assert hitting_number(S) == 5

    def test_herschel_uniform3(self):
        assert hitting_number(uniform_scramble(herschel_graph(), 3)) == 5

    def test_q3_uniform2(self):
        assert hitting_number(uniform_scramble(hypercube(3), 2)) == 4

    def test_witness_hits_everything(self):
        S = uniform_scramble(hypercube(3), 2)
        witness = minimum_hitting_set(S)
        assert len(witness) == 4
        assert all(witness & egg for egg in S.eggs)

    def test_bounds_can_close_without_search(self):
        # a perfect matching packs C_6 edges, meeting the greedy cover
        result = hitting_search(uniform_scramble(cycle_graph(6), 2))
        assert result.complete
        assert result.optimum == result.proved_lower == 3
        assert result.nodes == 0

    def test_search_result_fields(self):
        # triangle edges all overlap, so packing gives 1 and the
        # decision levels must run
        result = hitting_search(uniform_scramble(complete_graph(3), 2))
        assert result.complete
        assert result.optimum == result.proved_lower == 2
        assert result.elapsed >= 0
        assert result.nodes > 0

    def test_target_stops_early(self):
        S = uniform_scramble(hypercube(3), 2)
        result = hitting_search(S, target=2)
        assert not result.complete
        assert result.optimum is None
        assert 2 <= result.proved_lower <= 4

    def test_zero_budget_times_out_gracefully(self):
        S = uniform_scramble(complete_graph(3), 2)
        result = hitting_search(S, budget=0.0)
        assert not result.complete
        assert result.optimum is None
        assert result.proved_lower == 1
        assert result.elapsed < 1.0

    def test_budget_is_honored(self):
        S = uniform_scramble(hypercube(4), 4)
        result = hitting_search(S, budget=0.2)
        if not result.complete:
            assert result.elapsed < 0.2 + 0.3

    def test_progress_messages_flow(self):
        lines = []
        hitting_search(uniform_scramble(complete_graph(3), 2), progress=lines.append)
        assert any("size 1" in line for line in lines)

    def test_empty_scramble_rejected(self):
        G = path_graph(3)
        with pytest.raises(ValueError, match="empty"):
            hitting_search(make_scramble(G, []))

    def test_hand_built_empty_egg_rejected(self):
        S = Scramble(path_graph(3), (frozenset(), frozenset({1})), (0, 0b010))
        with pytest.raises(ValueError, match="nonempty"):
            hitting_search(S)

    @given(scrambles_on())
    @settings(deadline=None, max_examples=60)
    def test_matches_exhaustive_oracle(self, S):
        got = hitting_number(S)
        assert got == oracles.hitting_exhaustive(S.graph.n, S.eggs)
        witness = minimum_hitting_set(S)
        assert len(witness) == got
        assert all(witness & egg for egg in S.eggs)

    @given(wide_scrambles(), st.integers(1, 17))
    @settings(deadline=None, max_examples=40)
    def test_wide_scrambles_match_exhaustive_oracle(self, S, target):
        want = oracles.hitting_exhaustive(S.graph.n, S.eggs)
        result = hitting_search(S)
        assert result.complete
        assert result.optimum == result.proved_lower == want
        assert len(result.witness) == want
        assert all(result.witness & egg for egg in S.eggs)
        capped = hitting_search(S, target=target)
        if target > want:
            assert capped.complete
            assert capped.optimum == want
        else:
            assert not capped.complete
            assert target <= capped.proved_lower <= want

    def test_more_than_64_vertices(self):
        S = uniform_scramble(cycle_graph(70), 2)
        result = hitting_search(S)
        assert result.optimum == 35
        assert all(result.witness & egg for egg in S.eggs)

    @pytest.mark.parametrize(
        "G, k, nodes",
        [
            (herschel_graph(), 3, 13),
            (hypercube(4), 3, 48),
            (hypercube(4), 4, 272),
            (folded_cube(4), 3, 71),
        ],
        ids=["herschel-3", "q4-3", "q4-4", "folded4-3"],
    )
    def test_search_tree_is_pinned(self, G, k, nodes):
        # the tree is fixed by branching on the lowest-index uncovered egg
        # with the fewest allowed vertices; these are its node counts
        result = hitting_search(uniform_scramble(G, k))
        assert result.complete
        assert result.nodes == nodes

    def test_five_cube_floor_tree_is_pinned(self):
        result = hitting_search(uniform_scramble(hypercube(5), 6), target=8)
        assert not result.complete
        assert result.proved_lower == 8
        assert result.nodes == 76


class TestEggCut:
    def test_pairwise_overlap_means_infinite(self):
        S = uniform_scramble(complete_graph(3), 2)
        finite, pair = has_finite_egg_cut(S)
        assert not finite
        assert pair is None
        assert egg_cut_number(S) == INF

    def test_square_opposite_edges(self):
        S = uniform_scramble(cycle_graph(4), 2)
        finite, pair = has_finite_egg_cut(S)
        assert finite
        assert not pair[0] & pair[1]
        assert egg_cut_number(S) == 2

    def test_herschel_uniform3(self):
        assert egg_cut_number(uniform_scramble(herschel_graph(), 3)) == 5

    def test_q3_uniform2(self):
        assert egg_cut_number(uniform_scramble(hypercube(3), 2)) == 4

    @given(scrambles_on())
    @settings(deadline=None, max_examples=50)
    def test_matches_bipartition_oracle(self, S):
        n, edges = plain_edges(S.graph)
        assert egg_cut_number(S) == oracles.egg_cut_bipartition(n, edges, S.eggs)


class TestOrder:
    def test_known_orders(self):
        assert scramble_order(uniform_scramble(cycle_graph(4), 2)) == 2
        assert scramble_order(uniform_scramble(hypercube(3), 2)) == 4

    def test_order_with_infinite_cut(self):
        S = uniform_scramble(complete_graph(3), 2)
        assert scramble_order(S) == 2

    @given(scrambles_on())
    @settings(deadline=None, max_examples=40)
    def test_is_min_of_hitting_and_cut(self, S):
        h = hitting_number(S)
        e = egg_cut_number(S)
        assert scramble_order(S) == min(h, e)

    @given(st.one_of(connected_multigraphs(max_n=6), disjoint_unions()), st.data())
    @settings(deadline=None, max_examples=80)
    def test_uniform_formula_agreement(self, G, data):
        k = data.draw(st.integers(1, G.n))
        S = uniform_scramble(G, k)
        assert_masks_match_eggs(S)
        if not S.eggs:  # every component of a disjoint union is below k
            for number in (uniform_hitting_number, uniform_egg_cut_number):
                with pytest.raises(ValueError, match="empty scramble"):
                    number(G, k)
            return
        assert uniform_hitting_number(G, k) == hitting_number(S)
        assert uniform_egg_cut_number(G, k) == egg_cut_number(S)
        if G.is_connected():
            direct = scramble_order(S)
            formula = uniform_order_via_invariants(G, k)
            assert direct == formula

    def test_formula_argument_checks(self):
        with pytest.raises(ValueError, match="out of range"):
            uniform_order_via_invariants(cycle_graph(4), 0)
