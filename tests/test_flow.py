"""Minimum edge cuts between vertices and between vertex sets."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from scrambles import (
    Multigraph,
    complete_graph,
    cycle_graph,
    hypercube,
    min_edge_cut,
    path_graph,
)
from scrambles.flow import _max_flow
from strategies import connected_multigraphs, plain_edges


class TestMinEdgeCut:
    def test_cycle_needs_two(self):
        assert min_edge_cut(cycle_graph(6), 0, 3) == 2

    def test_path_needs_one(self):
        assert min_edge_cut(path_graph(5), 0, 4) == 1

    def test_hypercube_antipodes(self):
        assert min_edge_cut(hypercube(3), 0, 7) == 3

    def test_double_edge(self):
        G = Multigraph(2, [(0, 1), (0, 1)])
        assert min_edge_cut(G, 0, 1) == 2

    def test_complete_graph(self):
        assert min_edge_cut(complete_graph(5), 1, 3) == 4

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            min_edge_cut(cycle_graph(4), 1, 1)

    def test_disconnected_rejected(self):
        G = Multigraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            min_edge_cut(G, 0, 2)

    @given(connected_multigraphs(max_n=7), st.data())
    @settings(deadline=None)
    def test_matches_bipartition_oracle(self, G, data):
        u = data.draw(st.integers(0, G.n - 1))
        v = data.draw(st.integers(0, G.n - 1).filter(lambda x: x != u))
        n, edges = plain_edges(G)
        assert min_edge_cut(G, u, v) == oracles.mincut_bipartition(n, edges, u, v)

    @given(connected_multigraphs(max_n=7), st.data())
    @settings(deadline=None)
    def test_symmetric_and_valence_bounded(self, G, data):
        u = data.draw(st.integers(0, G.n - 1))
        v = data.draw(st.integers(0, G.n - 1).filter(lambda x: x != u))
        cut = min_edge_cut(G, u, v)
        assert cut == min_edge_cut(G, v, u)
        assert cut <= min(G.valence(u), G.valence(v))


def _mask(vertices):
    return sum(1 << v for v in vertices)


class TestMinSeparatingCut:
    """The fewest edges separating two disjoint connected vertex sets, by
    ``_max_flow`` on their masks: the direct side of ``verify order-ek``
    runs it on whole eggs."""

    def test_hypercube_opposite_faces(self):
        Q3 = hypercube(3)
        assert _max_flow(Q3, _mask({0, 1, 2, 3}), _mask({4, 5, 6, 7})) == 4

    def test_hypercube_opposite_edges(self):
        Q3 = hypercube(3)
        # 0-1 and 6-7 sit on opposite sides of a coordinate cut
        assert _max_flow(Q3, _mask({0, 1}), _mask({6, 7})) == 4

    def test_singletons_reduce_to_vertex_cut(self):
        G = cycle_graph(5)
        assert _max_flow(G, _mask({0}), _mask({2})) == min_edge_cut(G, 0, 2) == 2

    def test_limit_caps_the_flow(self):
        # one augmenting path along a triple edge would carry 3
        G = Multigraph(2, [(0, 1)] * 3)
        assert [_max_flow(G, 1, 2, limit) for limit in (0, 2, 3, 5)] == [0, 2, 3, 3]

    @given(connected_multigraphs(max_n=6), st.data())
    @settings(deadline=None)
    def test_matches_containment_bipartition_minimum(self, G, data):
        n, edges = plain_edges(G)
        u = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1).filter(lambda x: x != u))
        side_a = {u}
        side_b = {v}
        # sometimes widen side_a along an incident edge
        for w in range(n):
            if w != v and w != u and G.mult(u, w):
                if data.draw(st.booleans()):
                    side_a.add(w)
                break
        pool = [w for w in range(n) if w not in side_a and w != v]
        best = min(
            oracles.crossing_edges(edges, side_a | set(extra))
            for r in range(len(pool) + 1)
            for extra in itertools.combinations(pool, r)
        )
        assert _max_flow(G, _mask(side_a), _mask(side_b)) == best

    @given(connected_multigraphs(min_n=4, max_n=7), st.data())
    @settings(deadline=None)
    def test_two_sets_match_containment_bipartition_minimum(self, G, data):
        n, edges = plain_edges(G)

        def grow(allowed, size):
            side = {data.draw(st.sampled_from(sorted(allowed)))}
            while len(side) < size:
                frontier = sorted(
                    {w for x in side for w in G.neighbors(x) if w in allowed} - side
                )
                if not frontier:
                    break
                side.add(data.draw(st.sampled_from(frontier)))
            return side

        side_a = grow(set(range(n)), data.draw(st.integers(2, n - 2)))
        side_b = grow(set(range(n)) - side_a, data.draw(st.integers(2, n - len(side_a))))
        assume(len(side_b) >= 2)
        pool = [w for w in range(n) if w not in side_a | side_b]
        best = min(
            oracles.crossing_edges(edges, side_a | set(extra))
            for r in range(len(pool) + 1)
            for extra in itertools.combinations(pool, r)
        )
        assert _max_flow(G, _mask(side_a), _mask(side_b)) == best
