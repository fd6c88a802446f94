"""Exact small-graph invariants: k-restricted edge connectivity, the
minimum outdegree over connected k-sets, and component-bounded
independence.

Every search here is exponential in the worst case.  One split search,
``_min_split``, grows one connected side of a two-way split under a
boundary-edge bound.  It has two tests: one on side sizes, for the
restricted edge connectivity, and one on whole eggs, for the egg-cut
number of a scramble; both reach 32-vertex cubes in seconds.  The
component independence number is a branch and bound over vertex
inclusion that drops vertices once they can no longer fit and bounds
each node by a packing of disjoint overfull groups; it also reaches
32-vertex cubes in seconds.  Given a floor, the same walk decides
whether a set beats it and stops at the first one, which is how the
uniform hitting search deepens.  The minimum connected outdegree
enumerates connected k-sets directly.
"""

from .graphs import INF, _bits, enumerate_connected_subsets


def _min_split(G, within, k=0, out=None, every=0):
    """Fewest edges between the two sides of a split of ``within``, a
    connected component of G, into connected sides that both pass one
    of two tests; INF when no split passes.

    With ``k``, both sides must hold at least k vertices (lambda_k).
    With ``out``, where ``every`` is the bitmask of all egg indices and
    ``out[v]`` that of the eggs avoiding vertex v, both sides must hold
    a whole egg.

    The search grows the side S holding the lowest vertex of ``within``,
    which stays connected by construction.  Each node keeps S, an
    excluded set X and the edge count e(S, X); it branches on the
    boundary vertex (adjacent to S, not in X) with the most edges into
    S, first adding it to S, then to X.  Both moves only add edges to
    e(S, X).  Each boundary vertex w adds at least min(e(w, S), e(w, X))
    more edges to the final cut, whichever side it ends on, and these
    edges are distinct for distinct w; a node is pruned once e(S, X)
    plus that sum reaches the best split found.  A node with no
    boundary is a leaf whose count is the outdegree of S.

    The size test prunes S once it outgrows n - k vertices, or once it
    is still below k vertices and its component outside X is too; a
    leaf counts when S has at least k vertices and the rest is
    connected.  The egg test keeps the eggs avoiding S and the eggs
    avoiding X as two bitsets over egg indices, and prunes once either
    is empty: no egg is left for the other side, or none for S.  A leaf
    counts when an egg avoiding X meets S: with no boundary left, that
    connected egg lies inside S, and an egg avoiding S lies outside.
    Any such split is an egg cut, so the rest need not be connected.
    """
    n = within.bit_count()
    if 2 * k > n:
        return INF
    root = (within & -within).bit_length() - 1
    nbr = G._mask
    adj = G._pairs
    into_s = [0] * G.n  # edges from each vertex into S
    into_x = [0] * G.n  # edges from each vertex into X
    best = INF

    def grow(s, size, reach, x, cut, free_s, free_x):
        # reach is S together with its neighbourhood; free_s and free_x
        # are the eggs avoiding S and X
        nonlocal best
        boundary = reach & ~(s | x)
        if not boundary:
            if out:
                counts = free_x & ~free_s
            else:
                counts = size >= k and G._mask_connected(within ^ s)
            if counts:
                best = cut
            return
        v, most, bound = -1, -1, cut
        while boundary:  # _bits inlined: this loop is the search's hot spot
            low = boundary & -boundary
            boundary ^= low
            w = low.bit_length() - 1
            a, b = into_s[w], into_x[w]
            bound += a if a < b else b
            if a > most:
                v, most = w, a
        if bound >= best:
            return
        bit = 1 << v
        if cut + into_x[v] < best:
            # the eggs avoiding S after the move; a bool under the size test
            fits = free_s & out[v] if out else size < n - k
            if fits:
                for w, m in adj[v]:
                    into_s[w] += m
                grow(s | bit, size + 1, reach | nbr[v], x, cut + into_x[v], fits, free_x)
                for w, m in adj[v]:
                    into_s[w] -= m
        if cut + most < best:
            x |= bit
            if out:
                free_x &= out[v]
                if not free_x:
                    return
            elif size < k and G._component_of(root, within ^ x).bit_count() < k:
                return
            for w, m in adj[v]:
                into_x[w] += m
            grow(s, size, reach, x, cut + most, free_s, free_x)
            for w, m in adj[v]:
                into_x[w] -= m

    free_s, free_x = every & out[root] if out else 0, every
    if out and not free_s:
        return INF
    for w, m in adj[root]:
        into_s[w] += m
    grow(1 << root, 1, (1 << root) | nbr[root], 0, 0, free_s, free_x)
    return best


def restricted_edge_connectivity(G, k):
    """Fewest edges whose removal disconnects G with every resulting
    component holding at least k vertices; INF when no such removal
    exists.

    Equivalently (by minimality) the smallest outdegree over splits of
    the vertices into two connected parts of size >= k each, found by
    the split search ``_min_split`` with its size test.
    """
    if k < 1:
        raise ValueError("component size bound must be at least 1")
    if not G.is_connected():
        raise ValueError("graph must be connected")
    return _min_split(G, (1 << G.n) - 1, k=k)


def min_connected_outdegree(G, k):
    """Smallest outdegree over connected k-vertex subsets; INF when the
    graph has no connected k-subset."""
    subsets = enumerate_connected_subsets(G, k)
    if not subsets:
        return INF
    return min(map(G._outdegree_mask, subsets))


def max_component_independent_set(G, limit, floor=None, tick=None):
    """Largest vertex set whose induced components all have at most
    ``limit`` vertices, by branch and bound over vertex inclusion.

    With ``floor``, the search decides instead: it returns the first such
    set it meets with more than ``floor`` vertices, or None when none
    exists.  ``tick``, when given, is called at each node the walk
    expands; whatever it raises ends the search.

    The search branches on the lowest-index undecided vertex, first
    including it, then excluding it, and records only strict
    improvements; its first leaf is the greedy set (each vertex in index
    order when it still fits).  A node keeps the candidates: the
    undecided vertices that still fit.  For each candidate u, attach[u]
    holds the chosen vertices in components adjacent to u, so u fits
    while 1 + |attach[u]| <= limit.  Including v forms the component
    K = attach[v] + v; every candidate next to K gains K, and those that
    no longer fit are dropped for good, since the chosen set only grows.
    A node with no candidates is a leaf.

    The bound is count + |candidates| - lost.  lost counts a greedy
    packing of disjoint connected groups of candidates whose size plus
    their attached chosen vertices exceeds ``limit``: no such group
    can join whole, so each loses at least one vertex.  Groups may
    share attached components, since their candidates are disjoint.
    A node is pruned once the bound reaches the best size found.  A
    decision starts that size at the floor, and once a set beats it sets
    the size to n, so every node left is pruned on the spot.
    """
    if limit < 0:
        raise ValueError("component bound must be non-negative")
    n = G.n
    if limit == 0 or n == 0:
        return frozenset() if floor is None or floor < 0 else None
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

    best, best_size = None, 0 if floor is None else floor

    def walk(chosen, count, cand, attach):
        nonlocal best, best_size
        room = count + cand.bit_count() - best_size
        if room <= 0:
            return
        if tick is not None:
            tick()
        if not cand:
            best, best_size = chosen, count if floor is None else n
            return
        # while best_size is 0 (no leaf yet, no floor) lost cannot
        # prune: a lone candidate always fits, so each group it counts
        # holds two candidates and lost <= |cand| / 2 < room
        if best_size and lost(cand, attach, room) >= room:
            return
        low = cand & -cand
        cand ^= low
        walk(chosen | low, count + 1, *include(low.bit_length() - 1, cand, attach))
        walk(chosen, count, cand, attach)

    walk(0, 0, (1 << n) - 1, [0] * n)
    return None if best is None else frozenset(_bits(best))


def component_independence_number(G, limit):
    """Size of the largest set inducing only components of order <= limit."""
    return len(max_component_independent_set(G, limit))


def independence_number(G):
    return component_independence_number(G, 1)


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
