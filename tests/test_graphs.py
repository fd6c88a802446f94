"""Multigraph structure, parsing, generators, and connected-subset
enumeration."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from scrambles import (
    INF,
    DivisorFileError,
    EdgeListError,
    InputFormatError,
    Multigraph,
    ScrambleFileError,
    complete_bipartite,
    complete_graph,
    count_to_json,
    crown,
    cycle_graph,
    enumerate_connected_subsets,
    fmt_count,
    folded_cube,
    format_edge_list,
    generate,
    herschel_graph,
    hypercube,
    parse_edge_list,
    path_graph,
    random_connected_multigraph,
)
from scrambles.graphs import _lex_sorted
from strategies import (
    connected_multigraphs,
    disjoint_unions,
    plain_edges,
    side_by_side,
    simple_connected_graphs,
    vertex_set,
)

TRIANGLE_DOC = "3 3\n0 1\n1 2\n0 2\n"
DOUBLE_EDGE_DOC = "2 2\n0 1\n0 1\n"


class TestMultigraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Multigraph(3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Multigraph(2, [(0, 2)])

    def test_multiplicity_is_symmetric(self):
        G = Multigraph(3, [(0, 1), (1, 0), (1, 2)])
        assert G.mult(0, 1) == 2
        assert G.mult(1, 0) == 2
        assert G.mult(0, 2) == 0

    def test_edge_count_halves_valence_sum(self):
        G = Multigraph(4, [(0, 1), (0, 1), (1, 2), (2, 3)])
        assert G.edge_count == 4
        assert sum(G.valence(v) for v in range(4)) == 8

    def test_valence_counts_multiplicity(self):
        G = parse_edge_list(DOUBLE_EDGE_DOC)
        assert G.valence(0) == 2
        assert G.valence(1) == 2
        assert not G.is_simple()

    def test_equality_ignores_edge_order(self):
        a = Multigraph(3, [(0, 1), (1, 2)])
        b = Multigraph(3, [(1, 2), (0, 1)])
        assert a == b

    def test_connected_components_on_subset(self):
        G = cycle_graph(6)
        comps = G.connected_components({0, 1, 3, 4})
        assert comps == [{0, 1}, {3, 4}]

    def test_is_connected_set(self):
        G = path_graph(5)
        assert G.is_connected_set({1, 2, 3})
        assert not G.is_connected_set({0, 2})

    def test_empty_mask_is_not_connected(self):
        assert not path_graph(3)._mask_connected(0)

    def test_outdegree(self):
        G = cycle_graph(4)
        assert G.outdegree({0}) == 2
        assert G.outdegree({0, 1}) == 2
        with pytest.raises(ValueError):
            G.outdegree(set())
        with pytest.raises(ValueError):
            G.outdegree({0, 1, 2, 3})

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Multigraph(-1)
        with pytest.raises(ValueError, match="no vertices"):
            Multigraph(0).min_valence()
        with pytest.raises(ValueError, match="empty vertex set"):
            path_graph(3).is_connected_set(set())

    def test_equality_with_other_types_and_repr(self):
        G = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
        assert G != "not a graph"
        assert G.__eq__(None) is NotImplemented
        assert repr(G) == "Multigraph(n=3, m=3)"

    def test_count_to_json(self):
        assert count_to_json(INF) == {"finite": False, "value": None}
        assert count_to_json(4) == {"finite": True, "value": 4}


class TestGirth:
    def test_parallel_pair_gives_two(self):
        assert parse_edge_list(DOUBLE_EDGE_DOC).girth() == 2

    def test_triangle(self):
        assert complete_graph(4).girth() == 3

    def test_square(self):
        assert hypercube(4).girth() == 4

    def test_cycle_matches_length(self):
        for n in range(3, 9):
            assert cycle_graph(n).girth() == n

    def test_forest_is_infinite(self):
        assert path_graph(6).girth() == INF
        assert fmt_count(path_graph(6).girth()) == "inf"

    @given(st.one_of(connected_multigraphs(max_n=7), disjoint_unions()))
    @settings(deadline=None)
    def test_matches_bfs_oracle(self, G):
        assert G.girth() == oracles.girth_bfs(*plain_edges(G))

    @pytest.mark.parametrize(
        "build, girth",
        [
            (lambda: crown(3), 6),
            (lambda: folded_cube(2), 3),
            (lambda: folded_cube(3), 4),
            (lambda: complete_bipartite(3, 4), 4),
            (herschel_graph, 4),
            (lambda: hypercube(5), 4),
            (lambda: complete_bipartite(1, 3), INF),
        ],
        ids=["crown-3", "folded-cube-2", "folded-cube-3", "K_3_4", "herschel", "Q5", "K_1_3"],
    )
    def test_named_graphs(self, build, girth):
        assert build().girth() == girth

    @given(
        st.one_of(
            simple_connected_graphs(max_n=9, max_extra=8),
            st.builds(
                side_by_side,
                simple_connected_graphs(max_n=9, max_extra=8),
                simple_connected_graphs(max_n=9, max_extra=8),
            ),
        )
    )
    # from root 1, layer 2 closes both a 4-cycle and a 5-cycle
    @example(Multigraph(9, [(0, 8), (1, 3), (1, 4), (2, 3), (3, 6), (3, 8), (4, 5), (4, 6), (4, 7), (5, 8)]))
    @settings(deadline=None)
    def test_simple_graphs_match_both_oracles(self, G):
        # simple graphs never stop at the parallel-pair answer 2, and the
        # cycle oracle shares no breadth-first search with the library
        n, edges = plain_edges(G)
        assert G.girth() == oracles.girth_by_cycles(n, edges)
        assert G.girth() == oracles.girth_bfs(n, edges)


class TestLayers:
    @given(st.one_of(connected_multigraphs(max_n=7), disjoint_unions()), st.data())
    @settings(deadline=None)
    def test_walk_inside_a_mask_matches_oracles(self, G, data):
        n, edges = plain_edges(G)
        within = data.draw(st.integers(1, (1 << n) - 1))
        start = data.draw(st.sampled_from(sorted(vertex_set(within))))
        comp = next(c for c in oracles.components(n, edges, vertex_set(within)) if start in c)
        assert vertex_set(G._component_of(start, within)) == comp
        inside = [(u, v) for u, v in edges if within >> u & 1 and within >> v & 1]
        dist = oracles.distances_from(n, inside, start)
        classes = [set() for _ in range(max(dist.values()) + 1)]
        for v, d in dist.items():
            classes[d].add(v)
        assert [vertex_set(layer) for layer in G._layers(start, within)] == classes


class TestBipartition:
    def test_odd_cycle_is_none(self):
        assert cycle_graph(5).bipartition() is None

    def test_even_cycle(self):
        sides = cycle_graph(6).bipartition()
        assert sides == ({0, 2, 4}, {1, 3, 5})

    def test_herschel_sides(self):
        sides = herschel_graph().bipartition()
        assert sides == ({0, 1, 6, 7, 8, 9}, {2, 3, 4, 5, 10})

    @given(st.one_of(connected_multigraphs(max_n=7), disjoint_unions()))
    @settings(deadline=None)
    def test_sides_cover_and_no_internal_edges(self, G):
        sides = G.bipartition()
        if sides is None:
            # a 2-coloring failure must come with an odd closed walk,
            # which means some odd cycle exists
            assert G.girth() != INF
            return
        a, b = sides
        assert a | b == set(range(G.n))
        assert not a & b
        for u, v, _ in G.edges():
            assert (u in a) != (v in a)
        for comp in G.connected_components():
            assert min(comp) in a


class TestParsing:
    def test_triangle_document(self):
        G = parse_edge_list(TRIANGLE_DOC)
        assert G == complete_graph(3)

    def test_duplicate_lines_are_multiedges(self):
        G = parse_edge_list(DOUBLE_EDGE_DOC)
        assert G.mult(0, 1) == 2

    def test_comments_and_blanks_ignored(self):
        doc = "# triangle\n\n3 3\n0 1\n# middle\n1 2\n\n0 2\n"
        assert parse_edge_list(doc) == complete_graph(3)

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(EdgeListError, match="self-loop") as info:
            parse_edge_list("2 1\n0 0\n")
        assert info.value.line == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(EdgeListError, match="out of range") as info:
            parse_edge_list("2 1\n0 5\n")
        assert info.value.line == 2

    def test_bad_header(self):
        with pytest.raises(EdgeListError, match="header"):
            parse_edge_list("3\n")
        with pytest.raises(EdgeListError, match="header"):
            parse_edge_list("a b\n")

    def test_file_errors_are_input_format_errors(self):
        # the CLI turns every InputFormatError into exit code 2
        for error in (EdgeListError, ScrambleFileError, DivisorFileError):
            assert issubclass(error, InputFormatError)

    def test_wrong_edge_counts(self):
        with pytest.raises(EdgeListError, match="found 1"):
            parse_edge_list("3 2\n0 1\n")
        with pytest.raises(EdgeListError, match="found more"):
            parse_edge_list("3 1\n0 1\n1 2\n")

    def test_empty_document(self):
        with pytest.raises(EdgeListError, match="no content"):
            parse_edge_list("# nothing\n\n")

    def test_vertex_cap_enforced_at_header(self):
        with pytest.raises(EdgeListError, match="at most 64 vertices") as info:
            parse_edge_list("# too large\n65 0\n")
        assert info.value.line == 2

    def test_vertex_cap_admits_64(self):
        assert parse_edge_list("64 0\n").n == 64

    def test_bad_edge_tokens(self):
        with pytest.raises(EdgeListError, match="two integers") as info:
            parse_edge_list("3 1\n0 x\n")
        assert info.value.line == 2

    def test_negative_header_and_long_edge_line(self):
        with pytest.raises(EdgeListError, match="non-negative") as info:
            parse_edge_list("-1 0\n")
        assert info.value.line == 1
        with pytest.raises(EdgeListError, match="two integers") as info:
            parse_edge_list("3 1\n0 1 2\n")
        assert info.value.line == 2

    @given(connected_multigraphs())
    @settings(deadline=None)
    def test_format_parse_roundtrip(self, G):
        assert parse_edge_list(format_edge_list(G)) == G


class TestGenerators:
    def test_hypercube_shape(self):
        Q3 = hypercube(3)
        assert Q3.n == 8
        assert Q3.edge_count == 12
        assert all(Q3.valence(v) == 3 for v in range(8))
        assert Q3.is_connected()

    def test_hypercube_labels_are_binary_strings(self):
        Q4 = hypercube(4)
        for u, v, _ in Q4.edges():
            assert (u ^ v).bit_count() == 1

    def test_folded_cube_is_regular(self):
        FQ3 = folded_cube(3)
        assert FQ3.n == 8
        assert all(FQ3.valence(v) == 4 for v in range(8))

    def test_folded_square_is_complete(self):
        assert folded_cube(2) == complete_graph(4)

    def test_folded_segment_is_double_edge(self):
        assert folded_cube(1).mult(0, 1) == 2

    def test_crown_shape(self):
        G = crown(4)
        assert G.n == 8
        assert all(G.valence(v) == 3 for v in range(8))
        assert G.bipartition() is not None
        assert G.mult(0, 4) == 0
        assert G.mult(0, 5) == 1

    def test_crown_three_is_hexagon(self):
        G = crown(3)
        assert G.n == 6
        assert all(G.valence(v) == 2 for v in range(6))
        assert G.girth() == 6

    def test_herschel_shape(self):
        H = herschel_graph()
        assert H.n == 11
        assert H.edge_count == 18
        assert H.min_valence() == 3
        assert sorted(H.valence(v) for v in range(11)).count(4) == 3
        assert H.girth() == 4
        assert H.is_simple()

    def test_complete_bipartite(self):
        G = complete_bipartite(2, 3)
        assert G.edge_count == 6
        assert G.valence(0) == 3
        assert G.valence(2) == 2

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: hypercube(-1), "non-negative"),
            (lambda: folded_cube(0), "at least 1"),
            (lambda: crown(2), "at least 3"),
            (lambda: complete_bipartite(0, 1), "nonempty"),
            (lambda: complete_graph(0), "at least one vertex"),
            (lambda: path_graph(0), "at least one vertex"),
            (lambda: random_connected_multigraph(random.Random(0), 0), "at least one vertex"),
        ],
        ids=["hypercube", "folded-cube", "crown", "complete-bipartite", "complete", "path", "random"],
    )
    def test_generators_reject_small_parameters(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_generate_dispatch(self):
        assert generate("hypercube", [3]) == hypercube(3)
        assert generate("herschel") == herschel_graph()
        assert generate("complete-bipartite", [2, 3]) == complete_bipartite(2, 3)

    def test_generate_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            generate("moebius", [4])

    def test_generate_rejects_bad_arity(self):
        with pytest.raises(ValueError, match="parameter"):
            generate("cycle", [])
        with pytest.raises(ValueError, match="at least three"):
            generate("cycle", [2])

    @pytest.mark.parametrize(
        "family, params", [("hypercube", [7]), ("complete", [65]), ("crown", [33])]
    )
    def test_generate_rejects_more_than_64_vertices(self, family, params):
        with pytest.raises(ValueError, match="more than 64 vertices"):
            generate(family, params)

    def test_generate_admits_64_vertices(self):
        assert generate("hypercube", [6]).n == 64
        assert generate("folded-cube", [6]).n == 64
        assert generate("crown", [32]).n == 64
        assert generate("complete-bipartite", [32, 32]).n == 64

    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(0, 6))
    @settings(deadline=None)
    def test_random_graphs_are_connected(self, seed, n, extra):
        import random

        G = random_connected_multigraph(random.Random(seed), n, extra)
        assert G.n == n
        assert G.is_connected()
        assert G.edge_count >= n - 1


class TestConnectedSubsets:
    def test_path_pairs_are_edges(self):
        G = path_graph(4)
        subsets = enumerate_connected_subsets(G, 2)
        assert subsets == [0b0011, 0b0110, 0b1100]

    def test_size_bounds_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            enumerate_connected_subsets(path_graph(3), 0)
        with pytest.raises(ValueError, match="out of range"):
            enumerate_connected_subsets(path_graph(3), 4)

    def test_whole_graph_single_subset(self):
        G = cycle_graph(5)
        assert enumerate_connected_subsets(G, 5) == [0b11111]

    def test_q4_triple_count(self):
        # frozen from the combinations-filter oracle
        Q4 = hypercube(4)
        subsets = enumerate_connected_subsets(Q4, 3)
        assert len(subsets) == 96

    @given(connected_multigraphs(max_n=7), st.data())
    @settings(deadline=None)
    def test_matches_filter_oracle(self, G, data):
        k = data.draw(st.integers(1, G.n))
        fast = enumerate_connected_subsets(G, k)
        slow = oracles.connected_ksubsets(*plain_edges(G), k)
        assert [tuple(sorted(vertex_set(s))) for s in fast] == slow

    @given(connected_multigraphs(max_n=6), st.data())
    @settings(deadline=None)
    def test_subsets_unique_and_connected(self, G, data):
        k = data.draw(st.integers(1, G.n))
        subsets = enumerate_connected_subsets(G, k)
        assert len(set(subsets)) == len(subsets)
        for s in subsets:
            assert len(vertex_set(s)) == k
            assert G.is_connected_set(vertex_set(s))

    def test_count_on_complete_graph_is_binomial(self):
        G = complete_graph(6)
        for k in range(1, 7):
            expected = len(list(itertools.combinations(range(6), k)))
            assert len(enumerate_connected_subsets(G, k)) == expected

    @given(st.one_of(connected_multigraphs(max_n=10), disjoint_unions(max_n=5)))
    @settings(deadline=None, max_examples=60)
    def test_every_size_matches_filter_oracle(self, G):
        # disjoint unions leave sizes that no component reaches, and
        # n above 8 spreads the sort key over two bytes
        n, edges = plain_edges(G)
        for k in range(1, n + 1):
            fast = enumerate_connected_subsets(G, k)
            assert [tuple(sorted(vertex_set(s))) for s in fast] == oracles.connected_ksubsets(n, edges, k)

    @pytest.mark.parametrize("n", [3, 8, 9, 12, 17])
    def test_equal_size_order_is_the_canonical_order(self, n):
        # on a complete graph every k-set is connected, so the
        # equal-size key must order all of them as the general one does
        G = complete_graph(n)
        rng = random.Random(n)
        for k in range(1, n + 1):
            subsets = enumerate_connected_subsets(G, k)
            shuffled = rng.sample(subsets, len(subsets))
            assert _lex_sorted(shuffled) == subsets

    def test_five_cube_six_sets(self):
        subsets = enumerate_connected_subsets(hypercube(5), 6)
        assert len(subsets) == 25312
        assert _lex_sorted(subsets[::-1]) == subsets

    @pytest.mark.parametrize("n", [2, 3, 6, 11])
    def test_star_centred_on_the_last_vertex(self, n):
        # every set reaches its higher vertices only through vertex n - 1,
        # and the last root, n - 2, holds the pair {n - 2, n - 1}
        G = Multigraph(n, [(v, n - 1) for v in range(n - 1)])
        assert enumerate_connected_subsets(G, 2) == [1 << v | 1 << (n - 1) for v in range(n - 1)]
        for k in range(2, n + 1):
            assert len(enumerate_connected_subsets(G, k)) == len(
                list(itertools.combinations(range(n - 1), k - 1))
            )
