"""Hitting numbers, egg cuts, and scramble orders."""

import itertools
import random
import tracemalloc
import types

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from scrambles import (
    INF,
    HittingSearchResult,
    Multigraph,
    ScrambleFileError,
    best_uniform_order,
    complete_bipartite,
    complete_graph,
    crown,
    cycle_graph,
    egg_cut_number,
    enumerate_connected_subsets,
    folded_cube,
    gonality_upper_by_separator,
    has_finite_egg_cut,
    herschel_graph,
    hitting_number,
    hitting_search,
    hypercube,
    invariants,
    make_scramble,
    parse_scramble,
    path_graph,
    restricted_edge_connectivity,
    scramble,
    scramble_order,
    uniform_egg_cut_number,
    uniform_hitting_number,
    uniform_hitting_search,
    uniform_order_via_invariants,
    uniform_scramble,
    verify_bipartite,
    verify_girth_family,
    verify_main,
)
from scrambles.scramble import Scramble
from strategies import connected_multigraphs, disjoint_unions, plain_edges, vertex_set


# (name, graph, gonality) for members of the named families: closed
# forms for K_n, K_{a,b} and cycles, and elsewhere the value at which
# best_uniform_order (a lower bound) meets the separator (an upper one)
PINNED_GONALITY = (
    [(f"K{n}", complete_graph(n), n - 1) for n in range(3, 9)]
    + [(f"K{a},{b}", complete_bipartite(a, b), a) for a in range(2, 5) for b in range(a, 6)]
    + [(f"C{n}", cycle_graph(n), 2) for n in range(3, 10)]
    + [(f"crown{m}", crown(m), gon) for m, gon in zip(range(3, 9), (2, 4, 5, 6, 7, 8))]
    + [(f"Q{d}", hypercube(d), gon) for d, gon in ((2, 2), (3, 4), (4, 8))]
    + [(f"folded{d}", folded_cube(d), gon) for d, gon in ((2, 3), (3, 4), (4, 8), (5, 16))]
    + [("herschel", herschel_graph(), 5)]
)


def assert_masks_match_eggs(S):
    assert len(S.masks) == len(S.eggs)
    for egg, mask in zip(S.eggs, S.masks):
        assert mask == sum(1 << v for v in egg)


@st.composite
def scrambles_on(draw, max_n=6, max_eggs=8):
    G = draw(connected_multigraphs(max_n=max_n))
    pool = []
    for k in range(1, G.n + 1):
        pool.extend(map(vertex_set, enumerate_connected_subsets(G, k)))
    eggs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_eggs))
    return make_scramble(G, eggs)


@st.composite
def wide_scrambles(draw):
    """Scrambles of more than 64 eggs on 9 to 16 vertices, so egg masks
    span more than one byte and egg index sets more than one 64-bit word."""
    G = draw(connected_multigraphs(min_n=9, max_n=16, min_extra=4, max_extra=12))
    pool = []
    for k in range(2, 6):
        pool.extend(map(vertex_set, enumerate_connected_subsets(G, k)))
    assume(len(pool) > 64)
    rng = draw(st.randoms(use_true_random=False))
    return make_scramble(G, rng.sample(pool, rng.randint(65, min(len(pool), 120))))


@st.composite
def faulty_rows(draw):
    """A small graph and rows of vertices for it: connected eggs, some
    repeated, with 0 to 3 faulty rows of mixed kinds at random places
    (a disconnected or empty set, a repeated or out-of-range vertex, or
    a token that is not an integer)."""
    G = draw(st.one_of(connected_multigraphs(max_n=7), disjoint_unions()))
    n = G.n
    pool = [sorted(vertex_set(mask)) for k in range(1, n + 1)
            for mask in enumerate_connected_subsets(G, k)]
    rows = draw(st.lists(st.sampled_from(pool), max_size=8))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
        rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 3))):
        egg = list(draw(st.sampled_from(pool)))
        kind = draw(st.sampled_from(["subset", "empty", "repeat", "range", "bad"]))
        if kind == "subset":  # connected or not
            egg = sorted(draw(st.sets(st.integers(0, n - 1), min_size=2)))
        elif kind == "empty":
            egg = []
        elif kind == "repeat":
            egg.append(draw(st.sampled_from(egg)))
        elif kind == "range":
            egg.append(draw(st.sampled_from([n, n + 7, -1])))
        else:
            egg.append(draw(st.sampled_from(["x", "1.5", "0x1"])))
        egg = draw(st.permutations(egg))
        rows.insert(draw(st.integers(0, len(rows))), egg)
    return G, rows


class TestConstruction:
    def test_eggs_deduplicated_and_sorted(self):
        G = path_graph(4)
        S = make_scramble(G, [{2, 3}, {0, 1}, {3, 2}])
        assert S.eggs == (frozenset({0, 1}), frozenset({2, 3}))
        assert S.masks == (0b0011, 0b1100)
        assert len(S) == 2

    def test_mixed_sizes_in_vertex_tuple_order(self):
        # a prefix sorts before its extensions; a smaller next vertex wins
        eggs = [{0, 2}, {1, 2, 3}, {0, 1, 5}, {0, 1}, {0}, {0, 1, 2}]
        S = make_scramble(complete_graph(6), eggs)
        assert [tuple(sorted(egg)) for egg in S.eggs] == [
            (0,), (0, 1), (0, 1, 2), (0, 1, 5), (0, 2), (1, 2, 3),
        ]

    @given(scrambles_on(max_eggs=12))
    @settings(deadline=None, max_examples=60)
    def test_eggs_sorted_by_vertex_tuple(self, S):
        tuples = [tuple(sorted(egg)) for egg in S.eggs]
        assert tuples == sorted(set(tuples))

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

    def test_uniform_scramble_holds_one_copy_of_its_eggs(self):
        # 25,312 eggs kept once, as int bitmasks, take about 1.2 MB; a
        # second copy as frozensets would take about 20 MB more
        G = hypercube(5)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            S = uniform_scramble(G, 6)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(S) == 25312
        assert retained < 6 * 2**20


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

    def test_repeated_eggs_are_checked_once(self, monkeypatch):
        S = uniform_scramble(herschel_graph(), 3)
        rows = [" ".join(map(str, sorted(egg))) for egg in S.eggs]
        builds = []
        original = scramble._incidence

        def recording(masks, n):
            builds.append(masks)
            return original(masks, n)

        monkeypatch.setattr(scramble, "_incidence", recording)
        T = parse_scramble("".join(row + "\n" for row in rows * 2), S.graph)
        assert T.masks == S.masks
        assert builds == [S.masks]

    def test_repeated_disconnected_egg_reported_at_first_line(self):
        with pytest.raises(ScrambleFileError, match="connected") as info:
            parse_scramble("0 1\n0 2\n1 2\n0 2\n", cycle_graph(4))
        assert info.value.line == 2

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("0 2\n0 x\n", "connected", 1),
            ("0 x\n0 2\n", "integers", 1),
            ("0 1\n1 1\n0 2\n", "repeated", 2),
            ("0 1\n0 2\n1 9\n", "connected", 2),
            ("0 1\n1 9\n0 2\n", "vertex 9 out of range", 2),
            ("1 2\n# note\n\n3 1\n", "connected", 4),
        ],
    )
    def test_first_faulty_line_is_reported(self, text, message, line):
        with pytest.raises(ScrambleFileError, match=message) as info:
            parse_scramble(text, cycle_graph(4))
        assert info.value.line == line

    @given(faulty_rows(), st.data())
    @settings(deadline=None, max_examples=150)
    def test_first_fault_matches_sequential_oracle(self, graph_and_rows, data):
        G, rows = graph_and_rows
        lines = []
        for row in rows:
            if not row:  # an empty egg is a blank line in a file
                lines.append(data.draw(st.sampled_from(["", "  ", "# note", "  # 1 x"])))
                continue
            spell = st.sampled_from(["{}", "{}", "0{}", "+{}"])
            lines.append(" \t"[data.draw(st.integers(0, 1))].join(
                data.draw(spell).format(v) for v in row))
        text = "".join(line + "\n" for line in lines)
        fault, eggs = oracles.first_faulty_line(*plain_edges(G), text)
        if fault is None:
            S = parse_scramble(text, G)
            assert S.masks == tuple(sum(1 << v for v in egg) for egg in eggs)
            return
        message, line = fault
        with pytest.raises(ScrambleFileError) as info:
            parse_scramble(text, G)
        assert info.value.line == line
        assert str(info.value) == (message if line is None else f"line {line}: {message}")

    def test_fault_sweeps_only_the_rows_before_it(self, monkeypatch):
        builds = []
        original = scramble._incidence

        def recording(masks, n):
            builds.append(list(masks))
            return original(masks, n)

        def one_at_a_time(self, mask):
            raise AssertionError("egg checked alone")

        monkeypatch.setattr(scramble, "_incidence", recording)
        monkeypatch.setattr(Multigraph, "_mask_connected", one_at_a_time)
        G = cycle_graph(4)
        with pytest.raises(ScrambleFileError, match="integers") as info:
            parse_scramble("0 1\n1 2\n0 1\n2 x\n2 3\n", G)
        assert info.value.line == 4
        assert builds == [[0b0011, 0b0110, 0b0011]]
        # a disconnected egg is named from the scramble's own sweep
        builds.clear()
        with pytest.raises(ScrambleFileError, match="connected") as info:
            parse_scramble("1 2\n0 2\n0 1\n0 2\n", G)
        assert info.value.line == 2
        assert builds == [[0b0011, 0b0101, 0b0110]]

    @pytest.fixture
    def reads(self, monkeypatch):
        """The line numbers each pass over a file's content rows yielded,
        and those of the rows handed to ``mask_of``, in call order."""
        passes, masked = [], []
        content_rows, checked = scramble._content_rows, scramble._checked_scramble

        def recording_rows(text, error):
            passes.append([])
            for row in content_rows(text, error):
                passes[-1].append(row[0])
                yield row

        def recording_check(G, rows, mask_of, disconnected):
            def counted(row):
                masked.append(row[0])
                return mask_of(row)

            return checked(G, rows, counted, disconnected)

        monkeypatch.setattr(scramble, "_content_rows", recording_rows)
        monkeypatch.setattr(scramble, "_checked_scramble", recording_check)
        return passes, masked

    def test_valid_file_is_read_once(self, reads):
        S = uniform_scramble(herschel_graph(), 3)
        text = "# eggs\n" + "".join(" ".join(map(str, sorted(egg))) + "\n" for egg in S.eggs * 2)
        assert parse_scramble(text, S.graph).masks == S.masks
        lines = list(range(2, 2 + 2 * len(S)))
        assert reads == ([lines], lines)

    def test_refused_line_stops_the_reading(self, reads):
        with pytest.raises(ScrambleFileError, match="integers") as info:
            parse_scramble("0 1\n1 2\n2 x\n0 2\n2 3\n", cycle_graph(4))
        assert info.value.line == 3
        assert reads == ([[1, 2, 3]], [1, 2, 3])

    @pytest.mark.parametrize(
        "text, line, masked",
        [
            ("0 1\n0 2\n1 2\n0 2\n2 3\n", 2, [1, 2, 3, 4, 5]),
            ("1 2\n\n0 2\n0 x\n", 3, [1, 3, 4]),
        ],
    )
    def test_disconnected_egg_is_named_without_new_masks(self, reads, text, line, masked):
        # the only re-read fetches the named row
        with pytest.raises(ScrambleFileError, match="connected") as info:
            parse_scramble(text, cycle_graph(4))
        assert info.value.line == line
        assert reads == ([masked, masked[: masked.index(line) + 1]], masked)

    def test_odd_tokens_parse_as_integers(self):
        S = parse_scramble("00 +1\n1\t2\n", cycle_graph(4))
        assert S.masks == (0b0011, 0b0110)

    def test_five_cube_file_round_trip(self):
        # the full-size file: 25,312 eggs, shuffled, every egg written twice
        rng = random.Random(14)
        S = uniform_scramble(hypercube(5), 6)
        assert len(S) == 25312
        rows = [sorted(egg) for egg in S.eggs * 2]
        rng.shuffle(rows)
        for row in rows:
            rng.shuffle(row)
        T = parse_scramble("".join(" ".join(map(str, row)) + "\n" for row in rows), S.graph)
        assert T.masks == S.masks


class TestBatchedConnectivity:
    @given(st.data())
    @settings(deadline=None, max_examples=80)
    def test_flags_exactly_the_disconnected_masks(self, data):
        # up to 64 vertices, so egg masks fill whole 64-bit words
        n = data.draw(st.integers(1, 64))
        rng = data.draw(st.randoms(use_true_random=False))
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        G = Multigraph(n, [(u, v) for u, v in pairs if u != v])
        masks = set()
        for _ in range(rng.randint(1, 90)):
            if rng.random() < 0.5:  # a random set, most often disconnected
                mask = rng.getrandbits(n) or 1
            else:  # a connected set, grown from one vertex
                mask = 1 << rng.randrange(n)
                for _ in range(rng.randint(0, n)):
                    border = [w for v in vertex_set(mask) for w in G.neighbors(v) if not mask >> w & 1]
                    if not border:
                        break
                    mask |= 1 << rng.choice(border)
            masks.add(mask)
        masks = sorted(masks)
        bad = scramble._disconnected(G, scramble._incidence(masks, n))
        assert [bool(bad >> i & 1) for i in range(len(masks))] == [
            not G._mask_connected(mask) for mask in masks
        ]

    @given(faulty_rows())
    @settings(deadline=None, max_examples=150)
    def test_make_scramble_matches_sequential_oracle(self, graph_and_rows):
        G, rows = graph_and_rows
        eggs = [frozenset(row) for row in rows if all(isinstance(v, int) for v in row)]
        fault, want = oracles.first_faulty_egg(*plain_edges(G), eggs)
        if fault is None:
            S = make_scramble(G, eggs)
            assert S.masks == tuple(sum(1 << v for v in egg) for egg in want)
            return
        with pytest.raises(ValueError) as info:
            make_scramble(G, eggs)
        assert str(info.value) == fault

    def test_make_scramble_reports_the_first_faulty_egg(self):
        with pytest.raises(ValueError, match=r"egg \[0, 2\] does not induce") as info:
            make_scramble(cycle_graph(4), [{0, 1}, {0, 2}, {9}])
        assert not isinstance(info.value, ScrambleFileError)
        with pytest.raises(ValueError, match="vertex 9 out of range"):
            make_scramble(cycle_graph(4), [{0, 1}, {9}, {0, 2}])
        # a one-shot iterable is read once; the re-check reads the same eggs
        with pytest.raises(ValueError, match=r"egg \[0, 2\] does not induce"):
            make_scramble(cycle_graph(4), iter([{0, 1}, {0, 2}, set()]))


class TestHitting:
    def test_triangle_edges_need_two(self):
        S = uniform_scramble(complete_graph(3), 2)
        assert hitting_number(S) == 2

    def test_single_egg_needs_one(self):
        S = make_scramble(path_graph(4), [{1, 2}])
        assert hitting_number(S) == 1
        assert hitting_search(S).witness <= {1, 2}

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
        witness = hitting_search(S).witness
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
        assert isinstance(result, HittingSearchResult)
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

    @pytest.mark.parametrize("budget", [float("nan"), -1])
    def test_budget_must_be_a_non_negative_number(self, budget):
        S = uniform_scramble(complete_graph(3), 2)
        with pytest.raises(ValueError, match="budget must be a number of seconds >= 0"):
            hitting_search(S, budget=budget)

    def test_infinite_budget_is_no_limit(self):
        result = hitting_search(uniform_scramble(complete_graph(3), 2), budget=float("inf"))
        assert result.complete
        assert result.optimum == 2

    def test_no_deadline_reads_the_clock_only_to_start_and_stop(self, monkeypatch):
        # with no deadline and no progress lines, none of the 13 nodes
        # reads the clock
        reads = []

        def monotonic():
            reads.append(None)
            return 0.0

        monkeypatch.setattr("scrambles.scramble.time", types.SimpleNamespace(monotonic=monotonic))
        result = hitting_search(uniform_scramble(herschel_graph(), 3), budget=float("inf"))
        assert (result.optimum, result.nodes) == (5, 13)
        assert len(reads) == 2

    def test_budget_is_honored(self):
        S = uniform_scramble(hypercube(4), 4)
        result = hitting_search(S, budget=0.2)
        if not result.complete:
            assert result.elapsed < 0.2 + 0.3

    def test_progress_messages_flow(self):
        lines = []
        hitting_search(uniform_scramble(complete_graph(3), 2), progress=lines.append)
        assert any("size 1" in line for line in lines)

    def test_progress_line_every_five_seconds(self, monkeypatch):
        S = uniform_scramble(herschel_graph(), 3)
        quiet = hitting_search(S)
        clock = itertools.count(0.0, 6.0)
        monkeypatch.setattr("scrambles.scramble.time", types.SimpleNamespace(monotonic=lambda: next(clock)))
        lines = []
        result = hitting_search(S, progress=lines.append)
        assert any(line.startswith("searching for size") for line in lines)
        assert result.optimum == quiet.optimum == 5
        assert result.nodes == quiet.nodes == 13

    def test_empty_scramble_rejected(self):
        G = path_graph(3)
        with pytest.raises(ValueError, match="empty"):
            hitting_search(make_scramble(G, []))

    def test_hand_built_empty_egg_rejected(self):
        # a Scramble built directly skips make_scramble's checks
        for masks, message in [((0, 0b010), "nonempty"), ((0b1001, 0b0110), "out of range")]:
            S = Scramble(path_graph(3), masks)
            for engine in (hitting_search, egg_cut_number, has_finite_egg_cut, scramble_order):
                with pytest.raises(ValueError, match=message):
                    engine(S)

    def test_hand_built_disconnected_egg_rejected(self):
        # the only split keeping both eggs whole crosses 2 edges, yet an
        # unchecked split search read 1
        S = Scramble(path_graph(3), (0b101, 0b010))
        for engine in (hitting_search, egg_cut_number, has_finite_egg_cut, scramble_order):
            with pytest.raises(ValueError, match=r"egg \[0, 2\] does not induce a connected"):
                engine(S)

    @given(scrambles_on())
    @settings(deadline=None, max_examples=60)
    def test_matches_exhaustive_oracle(self, S):
        got = hitting_number(S)
        assert got == oracles.hitting_exhaustive(S.graph.n, S.eggs)
        witness = hitting_search(S).witness
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

    def test_egg_sizes_are_sliced_only_for_a_walk(self, monkeypatch):
        slicings = []
        original = scramble._sliced_sum

        def recording(rows):
            slicings.append(len(rows))
            return original(rows)

        monkeypatch.setattr(scramble, "_sliced_sum", recording)
        # the edges of a 6-cycle: three disjoint ones prove 3, above the
        # egg cut of 2, so the order needs no decision at all
        S = uniform_scramble(cycle_graph(6), 2)
        assert scramble_order(S) == 2
        # without a target the greedy cover {0, 2, 4} meets the bound
        result = hitting_search(S)
        assert (result.optimum, result.witness, result.nodes) == (3, {0, 2, 4}, 0)
        assert slicings == []
        # Herschel's 3-sets need a walk (the pinned 13 nodes)
        assert hitting_search(uniform_scramble(herschel_graph(), 3)).nodes == 13
        assert slicings == [11]

    @given(st.one_of(connected_multigraphs(max_n=8, max_extra=8), disjoint_unions(max_n=5)), st.data())
    @settings(deadline=None, max_examples=40)
    def test_uniform_scrambles_match_exhaustive_oracle(self, G, data):
        n, edges = plain_edges(G)
        k = data.draw(st.integers(1, n))
        eggs = [set(egg) for egg in oracles.connected_ksubsets(n, edges, k)]
        assume(eggs)
        result = hitting_search(uniform_scramble(G, k))
        assert result.complete
        assert result.optimum == oracles.hitting_exhaustive(n, eggs)
        assert len(result.witness) == result.optimum
        assert all(result.witness & egg for egg in eggs)


class TestUniformHittingSearch:
    """Both walks, the unlimited one and the deepening, are checked
    against egg-level oracles that share neither engine."""

    @given(st.one_of(connected_multigraphs(max_n=9, max_extra=10), disjoint_unions()), st.data())
    @settings(deadline=None, max_examples=80)
    def test_matches_exhaustive_oracle(self, G, data):
        n, edges = plain_edges(G)
        k = data.draw(st.integers(1, n))
        eggs = [set(egg) for egg in oracles.connected_ksubsets(n, edges, k)]
        if not eggs:
            with pytest.raises(ValueError, match="empty scramble"):
                uniform_hitting_search(G, k)
            return
        want = oracles.hitting_exhaustive(n, eggs)
        result = uniform_hitting_search(G, k)
        assert result.complete
        assert result.optimum == result.proved_lower == want
        assert len(result.witness) == want
        assert all(result.witness & egg for egg in eggs)
        target = data.draw(st.integers(1, want))
        capped = uniform_hitting_search(G, k, target=target)
        assert not capped.complete
        assert capped.proved_lower == target
        assert uniform_hitting_search(G, k, target=want + 1).optimum == want
        if k > 1:  # alpha_0 needs no walk, so no node can spend the budget
            spent = uniform_hitting_search(G, k, budget=0)
            assert not spent.complete
            assert spent.proved_lower == 1

    @staticmethod
    def floors_of_each_call(monkeypatch):
        floors = []
        search = invariants.max_component_independent_set

        def spy(G, limit, *args, **kwargs):
            floors.append(kwargs.get("floor", "none"))
            return search(G, limit, *args, **kwargs)

        monkeypatch.setattr(invariants, "max_component_independent_set", spy)
        return floors

    def test_unlimited_search_is_one_maximizing_walk(self, monkeypatch):
        floors = self.floors_of_each_call(monkeypatch)
        result = uniform_hitting_search(hypercube(4), 5)
        assert floors == ["none"]
        assert result.optimum == result.proved_lower == 8
        assert result.nodes > 0
        assert uniform_hitting_number(hypercube(4), 5) == 8
        assert floors == ["none", "none"]

    @pytest.mark.parametrize("limit", [{"target": 9}, {"budget": 60.0}, {"progress": [].append}],
                             ids=["target", "budget", "progress"])
    def test_any_limit_deepens(self, monkeypatch, limit):
        # level s asks for a rest above n - s - 1 = 15 - s vertices
        floors = self.floors_of_each_call(monkeypatch)
        result = uniform_hitting_search(hypercube(4), 5, **limit)
        assert result.optimum == 8
        assert floors == list(range(14, 6, -1))

    def test_both_walks_agree_on_the_pinned_families(self):
        walks = 0
        for name, G, _ in PINNED_GONALITY:
            if G.n > 16:
                continue
            n, edges = plain_edges(G)
            for k in range(1, n + 1):
                single = uniform_hitting_search(G, k)
                deepened = uniform_hitting_search(G, k, budget=1e9)
                assert single.optimum == deepened.optimum, (name, k)
                for result in (single, deepened):
                    assert len(result.witness) == result.optimum
                    rest = set(range(n)) - result.witness
                    assert all(len(c) < k for c in oracles.components(n, edges, rest)), (name, k)
                walks += 2
        assert walks == 536

    def test_five_cube_floor(self):
        result = uniform_hitting_search(hypercube(5), 6, target=8)
        assert not result.complete
        assert result.proved_lower == 8

    def test_budget_is_honored(self):
        result = uniform_hitting_search(hypercube(5), 6, budget=0.2)
        assert not result.complete
        assert 1 <= result.proved_lower <= 16
        assert result.elapsed < 2.0

    def test_progress_reports_each_level(self):
        lines = []
        result = uniform_hitting_search(herschel_graph(), 3, progress=lines.append)
        assert result.optimum == 5
        assert [line.split(":")[0] for line in lines] == [
            f"no hitting set of size {s}" for s in range(1, 5)
        ]

    def test_argument_checks(self):
        with pytest.raises(ValueError, match="out of range"):
            uniform_hitting_search(cycle_graph(4), 5)
        with pytest.raises(ValueError, match="budget must be a number of seconds >= 0"):
            uniform_hitting_search(cycle_graph(4), 2, budget=float("nan"))
        with pytest.raises(ValueError, match="empty scramble"):
            uniform_hitting_search(Multigraph(4, [(0, 1), (2, 3)]), 3)

    def test_builds_no_eggs(self, monkeypatch):
        def no_eggs(*args):
            raise AssertionError("eggs built")

        for name in ("graphs", "scramble", "invariants"):
            monkeypatch.setattr(f"scrambles.{name}.enumerate_connected_subsets", no_eggs)
        result = uniform_hitting_search(hypercube(4), 5)
        assert result.optimum == 8


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

    @given(disjoint_unions(), st.data())
    @settings(deadline=None, max_examples=60)
    def test_matches_bipartition_oracle_on_disjoint_unions(self, G, data):
        pool = []
        for k in range(1, G.n + 1):
            pool.extend(map(vertex_set, enumerate_connected_subsets(G, k)))
        S = make_scramble(G, data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8)))
        n, edges = plain_edges(G)
        assert egg_cut_number(S) == oracles.egg_cut_bipartition(n, edges, S.eggs)

    @given(scrambles_on(max_n=9, max_eggs=12))
    @settings(deadline=None, max_examples=60)
    def test_matches_pair_scan_oracle(self, S):
        n, edges = plain_edges(S.graph)
        assert egg_cut_number(S) == oracles.egg_cut_pair_scan(n, edges, S.eggs)

    @given(st.one_of(scrambles_on(max_eggs=12), wide_scrambles()))
    @settings(deadline=None, max_examples=60)
    def test_witness_is_the_first_disjoint_pair(self, S):
        eggs = [set(egg) for egg in S.eggs]
        first = next(
            ((a, b) for i, a in enumerate(eggs) for b in eggs[i + 1 :] if not a & b), None
        )
        assert has_finite_egg_cut(S) == (first is not None, first)

    def test_pairwise_overlap_is_settled_before_the_split_search(self, monkeypatch):
        # the split search, started with no bound, would exhaust its tree
        # here: on the Q5 eggs it runs past two minutes
        def no_search(*args, **kwargs):
            raise AssertionError("the split search ran")

        monkeypatch.setattr(invariants, "_min_split", no_search)
        Q5 = hypercube(5)
        through_31 = [
            vertex_set(mask) for mask in enumerate_connected_subsets(Q5, 4) if mask >> 31
        ]
        assert len(through_31) == 170
        for S in (make_scramble(Q5, through_31), uniform_scramble(hypercube(4), 9)):
            assert egg_cut_number(S) == INF

    def test_large_eggs_are_settled_by_pigeonhole(self, monkeypatch):
        # two k-sets of a graph on fewer than 2k vertices always meet
        def no_scan(*args, **kwargs):
            raise AssertionError("the disjoint-pair scan ran")

        monkeypatch.setattr(scramble, "_first_disjoint_pair", no_scan)
        for G, k in ((hypercube(4), 9), (cycle_graph(7), 4), (herschel_graph(), 6)):
            S = uniform_scramble(G, k)
            assert egg_cut_number(S) == INF
            assert has_finite_egg_cut(S) == (False, None)

    def test_pairwise_overlapping_nine_sets(self):
        # any two 9-sets of 16 vertices meet, so no egg cut exists
        S = uniform_scramble(hypercube(4), 9)
        assert len(S) == 8720
        assert has_finite_egg_cut(S) == (False, None)
        assert egg_cut_number(S) == INF

    @pytest.mark.parametrize(
        "G, k, cut",
        [(folded_cube(4), 5, 15), (hypercube(4), 6, 8), (folded_cube(5), 4, 16)],
        ids=["folded4-5", "q4-6", "folded5-4"],
    )
    def test_uniform_egg_cuts_are_pinned(self, G, k, cut):
        # thousands of eggs each, past what a scan of the disjoint pairs affords
        assert egg_cut_number(uniform_scramble(G, k)) == cut
        assert restricted_edge_connectivity(G, k) == cut


class TestOrder:
    def test_known_orders(self):
        assert scramble_order(uniform_scramble(cycle_graph(4), 2)) == 2
        assert scramble_order(uniform_scramble(hypercube(3), 2)) == 4

    def test_order_with_infinite_cut(self):
        S = uniform_scramble(complete_graph(3), 2)
        assert scramble_order(S) == 2

    def test_incidence_built_once(self, monkeypatch):
        builds = []
        original = scramble._incidence

        def recording(masks, n):
            builds.append(masks)
            return original(masks, n)

        monkeypatch.setattr(scramble, "_incidence", recording)
        G = hypercube(3)
        canonical = uniform_scramble(G, 2).masks
        eggs = uniform_scramble(G, 2).eggs[::-1] * 2  # out of order, each twice
        rows = "".join(" ".join(map(str, sorted(egg))) + "\n" for egg in eggs)
        # the connectivity check of a parsed or made scramble builds the
        # incidence, over the canonical masks, and the engines reuse it
        for build in (
            lambda: uniform_scramble(G, 2),
            lambda: parse_scramble(rows, G),
            lambda: make_scramble(G, eggs),
        ):
            builds.clear()
            S = build()
            assert scramble_order(S) == 4
            assert hitting_search(S).optimum == 4
            assert egg_cut_number(S) == 4
            assert has_finite_egg_cut(S)[0]
            assert builds == [canonical]

    def test_failed_incidence_build_is_not_kept(self):
        # a build that raises caches nothing, so every call raises anew
        for masks, message in [((), "empty scramble"), ((0b1001,), "out of range")]:
            S = Scramble(path_graph(3), masks)
            raised = []
            for _ in range(2):
                with pytest.raises(ValueError, match=message) as caught:
                    scramble_order(S)
                raised.append(str(caught.value))
            assert raised[0] == raised[1]

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
        # both sides above run the split search; the oracle does not
        assert egg_cut_number(S) == oracles.egg_cut_pair_scan(*plain_edges(G), S.eggs)
        if G.is_connected():
            direct = scramble_order(S)
            formula = uniform_order_via_invariants(G, k)
            assert direct == formula

    def test_formula_argument_checks(self):
        with pytest.raises(ValueError, match="out of range"):
            uniform_order_via_invariants(cycle_graph(4), 0)

    def test_formula_needs_a_connected_graph(self):
        with pytest.raises(ValueError, match="connected"):
            uniform_order_via_invariants(Multigraph(4, [(0, 1), (2, 3)]), 2)

    @given(connected_multigraphs(min_n=1, max_n=8, max_extra=6))
    @settings(deadline=None, max_examples=40)
    def test_best_uniform_order_against_eggs_and_gonality(self, G):
        # the egg-level engines see every k, with no early stop; the
        # gonality oracle shares no code with either side
        bound = best_uniform_order(G)
        orders = [scramble_order(uniform_scramble(G, k)) for k in range(1, G.n + 1)]
        assert bound == max(orders)
        n, edges = plain_edges(G)
        assert bound <= oracles.gonality_lexicographic(n, edges, n)[0]

    def test_best_uniform_order_on_named_graphs(self):
        graphs = [hypercube(3), herschel_graph(), hypercube(4), folded_cube(4)]
        assert [best_uniform_order(G) for G in graphs] == [4, 5, 8, 8]

    @pytest.mark.parametrize("G, want", [row[1:] for row in PINNED_GONALITY],
                             ids=[row[0] for row in PINNED_GONALITY])
    def test_sandwich_closes_on_named_families(self, G, want):
        # L = U pins the gonality; up to 8 vertices the lexicographic
        # oracle, which shares no code with either bound, pins it too
        assert best_uniform_order(G) == gonality_upper_by_separator(G).size == want
        if G.n <= 8:
            n, edges = plain_edges(G)
            assert oracles.gonality_lexicographic(n, edges, want)[0] == want

    def test_sandwich_closes_on_q5(self):
        G = hypercube(5)
        assert best_uniform_order(G) == gonality_upper_by_separator(G).size == 16

    def test_applicable_theorems_agree_with_the_sandwich(self):
        applied = 0
        for name, G, want in PINNED_GONALITY:
            reports = [verify_main(G, l, brute_cap=0) for l in range(3, min(G.n + 1, G.girth()) + 1)]
            reports += [verify_girth_family(G, variant, brute_cap=0)
                        for variant in ("girth3", "girth4a", "girth4b", "girth5")]
            if G.bipartition() is not None:
                reports += [verify_bipartite(G, variant, brute_cap=0)
                            for variant in ("bipartite1", "bipartite2")]
            for report in reports:
                if report.applicable:
                    applied += 1
                    assert report.conclusion_value == want, (name, report.theorem_id, report.parameter)
        # the count keeps the agreement from holding because nothing applied
        assert applied == 107

    def test_best_uniform_order_argument_checks(self):
        with pytest.raises(ValueError, match="no vertices"):
            best_uniform_order(Multigraph(0, []))
        with pytest.raises(ValueError, match="connected"):
            best_uniform_order(Multigraph(4, [(0, 1), (2, 3)]))
