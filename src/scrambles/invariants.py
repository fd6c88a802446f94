"""Exact small-graph invariants: k-restricted edge connectivity, the
minimum outdegree over connected k-sets, and component-bounded
independence.  All searches are exponential in the vertex count and are
meant for graphs of desk scale (roughly n <= 20).
"""

from .graphs import INF, _bits, enumerate_connected_subsets


def restricted_edge_connectivity(G, k):
    """Fewest edges whose removal disconnects G with every resulting
    component holding at least k vertices; INF when no such removal
    exists.

    Equivalently (by minimality) the smallest outdegree over splits of
    the vertices into two connected parts of size >= k each, which is
    what the search enumerates.
    """
    if k < 1:
        raise ValueError("component size bound must be at least 1")
    if not G.is_connected():
        raise ValueError("graph must be connected")
    n = G.n
    best = INF
    if 2 * k > n:
        return best
    full = (1 << n) - 1
    # vertex n-1 always sits in the complement, so each split is seen once
    for mask in range(1, 1 << (n - 1)):
        size = mask.bit_count()
        if size < k or n - size < k:
            continue
        if not G._mask_connected(mask):
            continue
        if not G._mask_connected(full ^ mask):
            continue
        cut = G._outdegree_mask(mask)
        if cut < best:
            best = cut
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

    Adding a vertex can only enlarge the component it lands in, so a
    single component check at each inclusion keeps the search exact.
    """
    if limit < 0:
        raise ValueError("component bound must be non-negative")
    n = G.n
    if limit == 0 or n == 0:
        return frozenset()
    nbr = G._mask

    def fits(chosen, v):
        within = chosen | (1 << v)
        comp = 1 << v
        size = 1
        frontier = comp
        while frontier:
            grown = 0
            for w in _bits(frontier):
                grown |= nbr[w]
            frontier = grown & within & ~comp
            if frontier:
                size += frontier.bit_count()
                if size > limit:
                    return False
                comp |= frontier
        return True

    greedy = 0
    greedy_size = 0
    for v in range(n):
        if fits(greedy, v):
            greedy |= 1 << v
            greedy_size += 1
    best = [greedy, greedy_size]

    def walk(idx, chosen, count):
        if count + (n - idx) <= best[1]:
            return
        if idx == n:
            best[0] = chosen
            best[1] = count
            return
        if fits(chosen, idx):
            walk(idx + 1, chosen | (1 << idx), count + 1)
        walk(idx + 1, chosen, count)

    walk(0, 0, 0)
    return frozenset(_bits(best[0]))


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
        if not 1 <= parameter <= G.n:
            raise ValueError(f"subset size {parameter} out of range")
        return min_connected_outdegree(G, parameter)
    if kind == "alpha-c":
        return component_independence_number(G, parameter)
    if kind == "girth":
        return G.girth()
    raise ValueError(f"unknown invariant {kind!r}")
