"""Slow, independent reference implementations used only by the tests.

Everything here works on a plain ``(n, edges)`` encoding, where ``edges``
is a list of ``(u, v)`` pairs repeated once per parallel edge.  Nothing
imports the package under test, so agreement between an oracle and the
library is meaningful evidence rather than a tautology.
"""

from fractions import Fraction
from itertools import combinations

INF = float("inf")


def adjacency(n, edges):
    nbr = [set() for _ in range(n)]
    for u, v in edges:
        nbr[u].add(v)
        nbr[v].add(u)
    return nbr


def components(n, edges, subset=None):
    """Connected components of the induced subgraph, as sets."""
    verts = set(range(n)) if subset is None else set(subset)
    nbr = adjacency(n, edges)
    seen = set()
    comps = []
    for start in sorted(verts):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            a = queue.pop()
            for b in nbr[a]:
                if b in verts and b not in comp:
                    comp.add(b)
                    queue.append(b)
        seen |= comp
        comps.append(comp)
    return comps


def is_connected_subset(n, edges, subset):
    subset = set(subset)
    if not subset:
        return False
    return len(components(n, edges, subset)) == 1


def crossing_edges(edges, side):
    side = set(side)
    return sum(1 for u, v in edges if (u in side) != (v in side))


def girth_bfs(n, edges):
    """Shortest cycle length by BFS from every root; 2 with a parallel
    pair, INF on forests."""
    pairs = {}
    for u, v in edges:
        key = (min(u, v), max(u, v))
        pairs[key] = pairs.get(key, 0) + 1
    if any(c >= 2 for c in pairs.values()):
        return 2
    nbr = adjacency(n, edges)
    best = INF
    for root in range(n):
        dist = {root: 0}
        parent = {root: None}
        queue = [root]
        while queue:
            nxt = []
            for a in queue:
                for b in nbr[a]:
                    if b not in dist:
                        dist[b] = dist[a] + 1
                        parent[b] = a
                        nxt.append(b)
                    elif parent[a] != b:
                        best = min(best, dist[a] + dist[b] + 1)
            queue = nxt
    return best


def girth_by_cycles(n, edges):
    """Shortest cycle length by growing every simple path from each
    start s through vertices above s only, closing a cycle when a path
    of at least three vertices ends next to s; 2 with a parallel pair,
    INF on forests.  Exponential in n."""
    if len({frozenset(e) for e in edges}) < len(edges):
        return 2
    nbr = adjacency(n, edges)
    best = INF

    def grow(s, path):
        nonlocal best
        if len(path) >= 3 and s in nbr[path[-1]]:
            best = min(best, len(path))
        for w in nbr[path[-1]]:
            if w > s and w not in path:
                grow(s, path + [w])

    for s in range(n):
        grow(s, [s])
    return best


def mincut_bipartition(n, edges, u, v):
    """Minimum crossing count over all vertex bipartitions separating
    u from v.  Exponential in n."""
    others = [w for w in range(n) if w not in (u, v)]
    best = INF
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            best = min(best, crossing_edges(edges, {u, *extra}))
    return best


def lambda_k_by_deletion(n, edges, k):
    """Restricted edge connectivity by literal edge-subset deletion.

    Only sensible for tiny graphs; tries every subset of the edge list.
    """
    best = INF
    m = len(edges)
    for bits in range(1 << m):
        size = bits.bit_count()
        if size >= best:
            continue
        kept = [e for i, e in enumerate(edges) if not bits >> i & 1]
        comps = components(n, kept)
        if len(comps) >= 2 and all(len(c) >= k for c in comps):
            best = size
    return best


def lambda_k_by_masks(n, edges, k):
    """Restricted edge connectivity by visiting every split of the
    vertices into two connected parts of at least k vertices each.

    Vertex n-1 always sits on the second side, so each split is seen
    once; 2^(n-1) masks in all.
    """
    best = INF
    for mask in range(1, 1 << (n - 1)):
        side = {v for v in range(n) if mask >> v & 1}
        if len(side) < k or n - len(side) < k:
            continue
        rest = set(range(n)) - side
        if is_connected_subset(n, edges, side) and is_connected_subset(n, edges, rest):
            best = min(best, crossing_edges(edges, side))
    return best


def egg_cut_bipartition(n, edges, eggs):
    """Minimum crossing count over bipartitions with a whole egg on each
    side; INF when no such bipartition exists."""
    eggs = [frozenset(e) for e in eggs]
    best = INF
    for bits in range(1 << n):
        side = {v for v in range(n) if bits >> v & 1}
        rest = set(range(n)) - side
        if any(e <= side for e in eggs) and any(e <= rest for e in eggs):
            best = min(best, crossing_edges(edges, side))
    return best


def max_flow_between(n, edges, sources, sinks):
    """Most edge-disjoint paths from one vertex set to another, each
    edge copy carrying one unit in either direction: one unit per
    breadth-first augmenting path through the residual capacities."""
    residual = {}
    for u, v in edges:
        residual[u, v] = residual.get((u, v), 0) + 1
        residual[v, u] = residual.get((v, u), 0) + 1
    nbr = adjacency(n, edges)
    flow = 0
    while True:
        parent = {s: None for s in sources}
        queue = list(sources)
        end = None
        while queue and end is None:
            a = queue.pop(0)
            for b in sorted(nbr[a]):
                if b not in parent and residual[a, b] > 0:
                    parent[b] = a
                    if b in sinks:
                        end = b
                        break
                    queue.append(b)
        if end is None:
            return flow
        while parent[end] is not None:
            a = parent[end]
            residual[a, end] -= 1
            residual[end, a] += 1
            end = a
        flow += 1


def egg_cut_pair_scan(n, edges, eggs):
    """Egg-cut number as the least max flow between two disjoint eggs;
    INF when every two eggs meet."""
    eggs = [frozenset(e) for e in eggs]
    best = INF
    for i, a in enumerate(eggs):
        for b in eggs[i + 1 :]:
            if not a & b:
                best = min(best, max_flow_between(n, edges, a, b))
    return best


def alpha_component_exhaustive(n, edges, ell):
    """Largest vertex set inducing components of order <= ell."""
    best = 0
    for bits in range(1 << n):
        subset = {v for v in range(n) if bits >> v & 1}
        if len(subset) <= best:
            continue
        if all(len(c) <= ell for c in components(n, edges, subset)):
            best = len(subset)
    return best


def connected_ksubsets(n, edges, k):
    """All connected k-subsets, as sorted tuples, by filtering
    combinations."""
    found = []
    for combo in combinations(range(n), k):
        if is_connected_subset(n, edges, combo):
            found.append(combo)
    return found


def first_faulty_line(n, edges, text):
    """An egg file read one line at a time: blank and ``#`` lines are
    skipped, each token is read by ``int``, then the line is checked for
    a repeated vertex, the range, and connectivity.  Returns
    ``((message, line), None)`` for the first faulty line, else
    ``(None, eggs)`` with the distinct eggs as vertex tuples, ascending."""
    distinct = set()
    for line, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            egg = [int(tok) for tok in tokens]
        except ValueError:
            return ("egg line must hold integers", line), None
        if len(set(egg)) < len(egg):
            return ("repeated vertex in egg", line), None
        for v in egg:
            if not 0 <= v < n:
                return (f"vertex {v} out of range", line), None
        if not is_connected_subset(n, edges, egg):
            return ("egg does not induce a connected subgraph", line), None
        distinct.add(tuple(sorted(egg)))
    if not distinct:
        return ("no content lines", None), None
    return None, sorted(distinct)


def first_faulty_egg(n, edges, eggs):
    """Vertex sets checked one at a time for range, emptiness and
    connectivity.  Returns ``(message, None)`` for the first faulty set,
    else ``(None, eggs)`` with the distinct sets as vertex tuples,
    ascending."""
    distinct = set()
    for egg in eggs:
        for v in egg:
            if not 0 <= v < n:
                return f"vertex {v} out of range for {n} vertices", None
        if not egg:
            return "eggs must be nonempty", None
        if not is_connected_subset(n, edges, egg):
            return f"egg {sorted(egg)} does not induce a connected subgraph", None
        distinct.add(tuple(sorted(egg)))
    return None, sorted(distinct)


def hitting_exhaustive(n, eggs):
    """Smallest transversal size by direct enumeration."""
    eggs = [set(e) for e in eggs]
    if not eggs:
        return 0
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            chosen = set(combo)
            if all(chosen & e for e in eggs):
                return size
    return n


def laplacian(n, edges):
    L = [[0] * n for _ in range(n)]
    for u, v in edges:
        L[u][u] += 1
        L[v][v] += 1
        L[u][v] -= 1
        L[v][u] -= 1
    return L


def divisors_equivalent(n, edges, D1, D2):
    """Whether D1 - D2 lies in the Laplacian lattice, by exact Gaussian
    elimination on the reduced system (last firing variable pinned to 0).
    """
    if sum(D1) != sum(D2):
        return False
    if n == 1:
        return True
    L = laplacian(n, edges)
    diff = [D1[i] - D2[i] for i in range(n)]
    size = n - 1
    rows = [
        [Fraction(L[i][j]) for j in range(size)] + [Fraction(diff[i])]
        for i in range(size)
    ]
    col = 0
    for j in range(size):
        pivot = next((i for i in range(col, size) if rows[i][j] != 0), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][j]
        rows[col] = [x / lead for x in rows[col]]
        for i in range(size):
            if i != col and rows[i][j] != 0:
                factor = rows[i][j]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
        col += 1
        if col == size:
            break
    # connected graphs give a full-rank reduced Laplacian, so a unique
    # rational solution; equivalence means it is integral
    solution = [row[size] for row in rows[:size]]
    for i in range(size):
        if rows[i][i] != 1:
            return False
        if solution[i].denominator != 1:
            return False
    firing = [int(s) for s in solution] + [0]
    for i in range(n):
        if sum(L[i][j] * firing[j] for j in range(n)) != diff[i]:
            return False
    return True


def effective_of_degree(n, d):
    """All chip vectors with non-negative entries summing to d."""
    if n == 1:
        return [(d,)]
    out = []
    for first in range(d + 1):
        for rest in effective_of_degree(n - 1, d - first):
            out.append((first, *rest))
    return out


def has_positive_rank_lattice(n, edges, D):
    """Rank >= 1 by searching, for every charged vertex, an effective
    divisor equivalent to D minus one chip there."""
    deg = sum(D)
    if deg < 1:
        return False
    for q in range(n):
        charged = list(D)
        charged[q] -= 1
        if not any(
            divisors_equivalent(n, edges, charged, E)
            for E in effective_of_degree(n, deg - 1)
        ):
            return False
    return True


def gonality_lattice(n, edges, max_degree=None):
    """Minimum degree of a positive-rank divisor, entirely via the
    lattice oracle.  Only for very small graphs."""
    cap = n if max_degree is None else max_degree
    for d in range(cap + 1):
        for D in effective_of_degree(n, d):
            if has_positive_rank_lattice(n, edges, D):
                return d
    return None


def is_q_reduced(n, edges, D, q):
    """Definition check: non-negative away from q and no subset avoiding
    q can fire without going into debt."""
    if any(D[v] < 0 for v in range(n) if v != q):
        return False
    others = [v for v in range(n) if v != q]
    for r in range(1, len(others) + 1):
        for combo in combinations(others, r):
            subset = set(combo)
            if all(
                D[v] >= sum(1 for a, b in edges if (a == v) != (b == v) and not {a, b} <= subset)
                for v in subset
            ):
                return False
    return True


def distances_from(n, edges, q):
    nbr = adjacency(n, edges)
    dist = {q: 0}
    queue = [q]
    while queue:
        a = queue.pop(0)
        for b in sorted(nbr[a]):
            if b not in dist:
                dist[b] = dist[a] + 1
                queue.append(b)
    return dist


def fire_set(edges, D, subset):
    """Fire every vertex of the set once: one chip per crossing edge."""
    out = list(D)
    for u, v in edges:
        if (u in subset) != (v in subset):
            giver, taker = (u, v) if u in subset else (v, u)
            out[giver] -= 1
            out[taker] += 1
    return out


def q_reduce_dhar(n, edges, D, q):
    """The q-reduced divisor equivalent to D, one firing at a time.

    Debt is cleared farthest vertex first, by firing the ball of vertices
    strictly closer to q, which pays every vertex at the debtor's
    distance and leaves farther ones alone.  Then Dhar's burning: a fire
    starts at q, a vertex burns once its edges to burnt vertices
    outnumber its chips, and whatever survives fires once, until
    everything burns.
    """
    dist = distances_from(n, edges, q)
    D = list(D)
    while True:
        debtors = [v for v in range(n) if v != q and D[v] < 0]
        if not debtors:
            break
        far = max(dist[v] for v in debtors)
        D = fire_set(edges, D, {v for v in range(n) if dist[v] < far})
    while True:
        burnt = dhar_burnt(n, edges, D, q)
        if len(burnt) == n:
            return tuple(D)
        D = fire_set(edges, D, set(range(n)) - burnt)


def heat_into(edges, v, burnt):
    """Edges between v and the set ``burnt``, one per parallel edge."""
    return sum(1 for a, b in edges if (a == v and b in burnt) or (b == v and a in burnt))


def dhar_burnt(n, edges, D, q):
    """The set Dhar's fire from q burns, as a fixpoint: sweep every
    unburnt vertex, burn it once its edges into the burnt set outnumber
    its chips, and stop when a sweep burns nothing.  D is non-negative
    away from q."""
    burnt = {q}
    grew = True
    while grew:
        grew = False
        for v in range(n):
            if v not in burnt and heat_into(edges, v, burnt) > D[v]:
                burnt.add(v)
                grew = True
    return burnt


def has_positive_rank_dhar(n, edges, D):
    """Rank >= 1: for every q, D minus a chip on q reduces to a divisor
    with no debt on q."""
    if sum(D) < 1:
        return False
    for q in range(n):
        charged = list(D)
        charged[q] -= 1
        if q_reduce_dhar(n, edges, charged, q)[q] < 0:
            return False
    return True


def gonality_lexicographic(n, edges, max_degree):
    """First positive-rank effective divisor, by ascending degree and then
    ascending lexicographic order, as ``(degree, divisor)``; ``None`` when
    no divisor of degree <= max_degree has positive rank."""
    for d in range(max_degree + 1):
        for D in effective_of_degree(n, d):
            if has_positive_rank_dhar(n, edges, D):
                return d, D
    return None
