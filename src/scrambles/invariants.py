"""Exact small-graph invariants: k-restricted edge connectivity, the
minimum outdegree over connected k-sets, and component-bounded
independence.

Every search here is exponential in the worst case.  The restricted
edge connectivity is a branch and bound over connected vertex sets and
reaches 32-vertex cubes in seconds.  The component independence number
is a branch and bound over vertex inclusion that drops vertices once
they can no longer fit and bounds each node by a packing of disjoint
overfull groups; it also reaches 32-vertex cubes in seconds.  The
minimum connected outdegree enumerates connected k-sets directly.
"""

from .graphs import INF, _bits, enumerate_connected_subsets


def restricted_edge_connectivity(G, k):
    """Fewest edges whose removal disconnects G with every resulting
    component holding at least k vertices; INF when no such removal
    exists.

    Equivalently (by minimality) the smallest outdegree over splits of
    the vertices into two connected parts of size >= k each.  The
    search grows the part S holding vertex 0, which stays connected by
    construction.  Each node keeps S, an excluded set X and the edge
    count e(S, X); it branches on the boundary vertex (adjacent to S,
    not in X) with the most edges into S, first adding it to S, then
    to X.  Both moves only add edges to e(S, X).  Each boundary vertex
    w adds at least min(e(w, S), e(w, X)) more edges to the final cut,
    whichever side it ends on, and these edges are distinct for
    distinct w; a node is pruned once e(S, X) plus that sum reaches the
    best split found.  It is also pruned when S outgrows n - k
    vertices, or when S is still below k vertices and its component
    outside X is too.  A node with no boundary is a leaf whose count is
    the outdegree of S; it is a split when S has at least k vertices
    and the rest of the graph is connected.
    """
    if k < 1:
        raise ValueError("component size bound must be at least 1")
    if not G.is_connected():
        raise ValueError("graph must be connected")
    n = G.n
    if 2 * k > n:
        return INF
    full = (1 << n) - 1
    nbr = G._mask
    adj = [tuple(d.items()) for d in G._adj]
    into_s = [0] * n  # edges from each vertex into S
    into_x = [0] * n  # edges from each vertex into X
    best = INF

    def grow(s, size, reach, x, cut):
        # reach is S together with its neighbourhood
        nonlocal best
        boundary = reach & ~(s | x)
        if not boundary:
            if size >= k and G._mask_connected(full ^ s):
                best = cut
            return
        v, most, bound = -1, -1, cut
        for w in _bits(boundary):
            a, b = into_s[w], into_x[w]
            bound += a if a < b else b
            if a > most:
                v, most = w, a
        if bound >= best:
            return
        bit = 1 << v
        if size < n - k and cut + into_x[v] < best:
            for w, m in adj[v]:
                into_s[w] += m
            grow(s | bit, size + 1, reach | nbr[v], x, cut + into_x[v])
            for w, m in adj[v]:
                into_s[w] -= m
        if cut + most < best:
            x |= bit
            if size < k and G._component_of(0, full ^ x).bit_count() < k:
                return
            for w, m in adj[v]:
                into_x[w] += m
            grow(s, size, reach, x, cut + most)
            for w, m in adj[v]:
                into_x[w] -= m

    for w, m in adj[0]:
        into_s[w] += m
    grow(1, 1, 1 | nbr[0], 0, 0)
    return best


def min_connected_outdegree(G, k):
    """Smallest outdegree over connected k-vertex subsets; INF when the
    graph has no connected k-subset."""
    subsets = enumerate_connected_subsets(G, k)
    if not subsets:
        return INF
    return min(G._outdegree_mask(sum(1 << v for v in s)) for s in subsets)


def is_lambda_k_optimal(G, k):
    """Whether the k-restricted edge connectivity is realised by the
    edges around a single connected k-set."""
    return restricted_edge_connectivity(G, k) == min_connected_outdegree(G, k)


def max_component_independent_set(G, limit):
    """Largest vertex set whose induced components all have at most
    ``limit`` vertices, by branch and bound over vertex inclusion.

    The search seeds its best set greedily (each vertex in index order
    when it still fits), then branches on the lowest-index undecided
    vertex, first including it, then excluding it, and records only
    strict improvements.  A node keeps the candidates: the undecided
    vertices that still fit.  For each candidate u, attach[u] holds the
    chosen vertices in components adjacent to u, so u fits while
    1 + |attach[u]| <= limit.  Including v forms the component
    K = attach[v] + v; every candidate next to K gains K, and those
    that no longer fit are dropped for good, since the chosen set only
    grows.  A node with no candidates is a leaf.

    The bound is count + |candidates| - lost.  lost counts a greedy
    packing of disjoint connected groups of candidates whose size plus
    their attached chosen vertices exceeds ``limit``: no such group
    can join whole, so each loses at least one vertex.  Groups may
    share attached components, since their candidates are disjoint.
    A node is pruned once the bound reaches the best size found.
    """
    if limit < 0:
        raise ValueError("component bound must be non-negative")
    n = G.n
    if limit == 0 or n == 0:
        return frozenset()
    nbr = G._mask

    def include(v, cand, attach):
        # v has left cand; return the candidates and attach after adding v
        comp = attach[v] | (1 << v)
        around = 0
        for w in _bits(comp):
            around |= nbr[w]
        attach = attach.copy()
        for u in _bits(around & cand):
            joined = attach[u] | comp
            attach[u] = joined
            if joined.bit_count() >= limit:
                cand &= ~(1 << u)
        return cand, attach

    def lost(cand, attach, room):
        # disjoint overfull groups, each grown from the lowest free
        # candidate by the free neighbour that attaches the most
        found = 0
        free = cand
        while free and found < room:
            seed = (free & -free).bit_length() - 1
            free ^= 1 << seed
            size, att, reach = 1, attach[seed], nbr[seed]
            while size + att.bit_count() <= limit and reach & free:
                pick, most = -1, -1
                for w in _bits(reach & free):
                    gain = (att | attach[w]).bit_count()
                    if gain > most:
                        pick, most = w, gain
                free ^= 1 << pick
                size += 1
                att |= attach[pick]
                reach |= nbr[pick]
            if size + att.bit_count() > limit:
                found += 1
        return found

    cand, attach = (1 << n) - 1, [0] * n
    greedy = 0
    for v in range(n):
        bit = 1 << v
        if cand & bit:
            greedy |= bit
            cand, attach = include(v, cand ^ bit, attach)
    best, best_size = greedy, greedy.bit_count()

    def walk(chosen, count, cand, attach):
        nonlocal best, best_size
        room = count + cand.bit_count() - best_size
        if room <= 0:
            return
        if not cand:
            best, best_size = chosen, count
            return
        if lost(cand, attach, room) >= room:
            return
        low = cand & -cand
        cand ^= low
        walk(chosen | low, count + 1, *include(low.bit_length() - 1, cand, attach))
        walk(chosen, count, cand, attach)

    walk(0, 0, (1 << n) - 1, [0] * n)
    return frozenset(_bits(best))


def component_independence_number(G, limit):
    """Size of the largest set inducing only components of order <= limit."""
    return len(max_component_independent_set(G, limit))


def independence_number(G):
    return component_independence_number(G, 1)


def dissociation_number(G):
    return component_independence_number(G, 2)


def compute_invariant(G, kind, parameter=0):
    """Dispatch for the CLI: lambda-k, xi-k, alpha-c, or girth."""
    if kind == "lambda-k":
        return restricted_edge_connectivity(G, parameter)
    if kind == "xi-k":
        return min_connected_outdegree(G, parameter)
    if kind == "alpha-c":
        return component_independence_number(G, parameter)
    if kind == "girth":
        return G.girth()
    raise ValueError(f"unknown invariant {kind!r}")
