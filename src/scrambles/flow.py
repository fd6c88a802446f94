"""Minimum edge cuts between two disjoint vertex sets via
shortest-augmenting-path max flow: ``min_edge_cut`` between two
vertices, and ``_max_flow`` between whole eggs for the direct side of
``verify order-ek``."""

from .graphs import INF, _bits


def _max_flow(G, source_mask, sink_mask, limit=INF):
    """Max flow = min cut between two disjoint vertex sets, by BFS
    augmenting paths.

    Capacities are the edge multiplicities, usable in both directions.
    Each search starts from every source vertex at once and stops at the
    first sink vertex it reaches, as if a super-source fed the sources
    and the sinks drained into a super-sink; edges inside either set
    never carry flow.  The search stops once the flow reaches ``limit``
    (INF, no limit, by default), so the result is exact below the limit
    and equals it otherwise.
    """
    n = G.n
    residual = [dict(pairs) for pairs in G._pairs]
    sources = list(_bits(source_mask))
    flow = 0
    while flow < limit:
        parent = [None] * n
        for s in sources:
            parent[s] = s
        queue = list(sources)
        sink = None
        # breadth first: the loop also visits what it appends to queue
        for a in queue:
            for b, cap in residual[a].items():
                if cap and parent[b] is None:
                    parent[b] = a
                    if sink_mask >> b & 1:
                        sink = b
                        break
                    queue.append(b)
            if sink is not None:
                break
        if sink is None:
            break
        push = limit - flow
        v = sink
        while parent[v] != v:
            u = parent[v]
            push = min(push, residual[u][v])
            v = u
        v = sink
        while parent[v] != v:
            u = parent[v]
            residual[u][v] -= push
            residual[v][u] = residual[v].get(u, 0) + push
            v = u
        flow += push
    return flow


def min_edge_cut(G, u, v):
    """Fewest edges (with multiplicity) whose removal separates u from v."""
    G._check_vertex(u)
    G._check_vertex(v)
    if u == v:
        raise ValueError("endpoints must differ")
    G._check_connected()
    return _max_flow(G, 1 << u, 1 << v)
