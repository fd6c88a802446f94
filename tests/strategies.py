"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from scrambles import Multigraph


@st.composite
def connected_multigraphs(draw, min_n=2, max_n=7, max_extra=5, min_extra=0):
    """Random spanning tree plus a few extra pairs; parallel edges allowed."""
    n = draw(st.integers(min_n, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=min_extra,
            max_size=max_extra,
        )
    )
    for u, v in extra:
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return Multigraph(n, edges)


@st.composite
def disjoint_unions(draw, max_n=4):
    """Two connected multigraphs of 2 to ``max_n`` vertices each, side by
    side, the second renumbered after the first; ``max_n=5`` reaches 10
    vertices, past the first byte of a vertex mask."""
    first = draw(connected_multigraphs(max_n=max_n))
    return side_by_side(first, draw(connected_multigraphs(max_n=max_n)))


def side_by_side(first, second):
    """The disjoint union of two graphs, the second renumbered after the
    first."""
    shifted = [(u + first.n, v + first.n) for u, v in second.edge_list()]
    return Multigraph(first.n + second.n, first.edge_list() + shifted)


@st.composite
def simple_connected_graphs(draw, min_n=2, max_n=7, max_extra=6):
    n = draw(st.integers(min_n, max_n))
    edges = {(u, v) for u, v in ((draw(st.integers(0, v - 1)), v) for v in range(1, n))}
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_extra,
        )
    )
    for u, v in extra:
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Multigraph(n, sorted(edges))


def vertex_set(mask):
    """The vertices of a bitmask, as a frozenset."""
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def plain_edges(G):
    """The (n, edges-with-repetition) encoding the test oracles expect."""
    return G.n, list(G.edge_list())


@st.composite
def divisors_for(draw, n, low=-3, high=4):
    return tuple(draw(st.integers(low, high)) for _ in range(n))
