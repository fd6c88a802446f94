"""Seeded inputs for the benchmark workloads, generated without importing
``scrambles``.

Every graph is produced here as an edge-list document, every scramble as
a scramble file and every divisor as a divisor file, so the package under
test only ever receives files (or the objects it parses from them).

Named graphs (hypercubes, the folded cube, crowns, the Herschel graph)
are fixed by definition.  For them the seed only permutes the lines of
the file and the order of each pair; the parser canonicalises both, so
the timed work on a named graph is the same for every seed.  The random
corpora (``explicit-eggs`` scrambles and the ``random-survey`` graphs and
divisors) are drawn from the seed itself.
"""

import random

HERSCHEL_EDGES = (
    (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 6), (2, 7), (3, 8),
    (3, 9), (4, 6), (4, 8), (5, 7), (5, 9), (6, 10), (7, 10), (8, 10), (9, 10),
)

# Seed of the fixed reduction block in random-survey.  It never changes
# with --seed, so the reductions that trip the round-cap fault (see the
# README) are the same operations in every run.
FAULT_BLOCK_SEED = 20210823
FAULT_BLOCK_SIZE = 40
# The reproduction quoted in the README: Q4, q = 4.
Q4_FAULT_DIVISOR = (4, -1, 6, 0, 7, 6, 8, 6, 5, 3, -5, 8, 2, 7, -2, 5)
Q4_FAULT_Q = 4


def hypercube(d):
    n = 1 << d
    return n, [(v, v ^ (1 << i)) for v in range(n) for i in range(d) if v < v ^ (1 << i)]


def folded_cube(d):
    n, edges = hypercube(d)
    full = n - 1
    return n, edges + [(v, v ^ full) for v in range(n) if v < v ^ full]


def crown(m):
    return 2 * m, [(i, m + j) for i in range(m) for j in range(m) if i != j]


def herschel():
    return 11, list(HERSCHEL_EDGES)


NAMED = {
    "herschel": herschel,
    "q3": lambda: hypercube(3),
    "q4": lambda: hypercube(4),
    "q5": lambda: hypercube(5),
    "fq4": lambda: folded_cube(4),
    "crown6": lambda: crown(6),
    "crown7": lambda: crown(7),
}


def named_graph(name):
    return NAMED[name]()


def edge_list_text(n, edges, rng=None):
    """Edge-list document; with ``rng`` the lines and pair orientations
    are shuffled (the parsed graph is the same)."""
    pairs = list(edges)
    if rng is not None:
        pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        rng.shuffle(pairs)
    return "\n".join([f"{n} {len(pairs)}"] + [f"{u} {v}" for u, v in pairs]) + "\n"


def sets_text(sets, rng=None):
    """Scramble file: one egg per line."""
    rows = [sorted(s) for s in sets]
    if rng is not None:
        rng.shuffle(rows)
        for row in rows:
            rng.shuffle(row)
    return "\n".join(" ".join(map(str, row)) for row in rows) + "\n"


def divisor_text(D):
    return " ".join(map(str, D)) + "\n"


def neighbour_masks(n, edges):
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


def connected_sets(n, edges, k):
    """All connected k-vertex sets as bitmasks, grown level by level."""
    nbr = neighbour_masks(n, edges)
    level = {1 << v for v in range(n)}
    for _ in range(k - 1):
        grown = set()
        for mask in level:
            border = 0
            rest = mask
            while rest:
                low = rest & -rest
                border |= nbr[low.bit_length() - 1]
                rest ^= low
            border &= ~mask
            while border:
                low = border & -border
                grown.add(mask | low)
                border ^= low
        level = grown
    return sorted(level)


def mask_vertices(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def random_multigraph(rng, n, parallel, extra=None):
    """Random spanning tree plus ``extra`` (by default 0..n at random)
    attempts at another pair; parallel pairs are kept only when
    ``parallel`` is set."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    present = {(u, v) for u, v in edges}
    for _ in range(rng.randint(0, n) if extra is None else extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in present and not parallel:
            continue
        present.add(key)
        edges.append(key)
    return n, edges


def random_egg(rng, n, nbr, size):
    egg = 1 << rng.randrange(n)
    while egg.bit_count() < size:
        border = 0
        for v in mask_vertices(egg):
            border |= nbr[v]
        border &= ~egg
        if not border:
            break
        egg |= 1 << rng.choice(mask_vertices(border))
    return egg


def random_scramble(rng, index):
    """Scramble ``index`` of an explicit-eggs corpus: a random connected
    multigraph with 18 distinct random eggs.  n cycles through 10..14,
    the extra pairs tried through 0..7 and the egg sizes through 2..5, so
    every corpus has the same mix; every third graph may carry parallel
    edges."""
    n = 10 + index % 5
    n, edges = random_multigraph(rng, n, parallel=index % 3 == 0, extra=(index // 5) % 8)
    nbr = neighbour_masks(n, edges)
    eggs = set()
    while len(eggs) < 18:
        eggs.add(random_egg(rng, n, nbr, 2 + len(eggs) % 4))
    return n, edges, sorted(eggs)


# -- the reduction round cap -------------------------------------------


def _bfs_order(n, adj, q):
    order, seen, layer = [q], {q}, [q]
    while layer:
        nxt = []
        for a in layer:
            for b in adj[a]:
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        nxt.sort()
        order.extend(nxt)
        layer = nxt
    return order


def reduction_rounds(n, edges, D, q):
    """Burning rounds that q-reduction by debt clearing along the BFS
    order from q, then Dhar burning with the whole unburnt set fired per
    round, needs for D.

    This is the procedure the package's ``q_reduce`` documents, which
    gives up after ``4 * n * (|deg D| + |E|)`` rounds.  The generator
    uses the count to keep seeded divisors within that cap, so that the
    fault it describes shows only in the fixed block.
    """
    adj = [dict() for _ in range(n)]
    for u, v in edges:
        adj[u][v] = adj[u].get(v, 0) + 1
        adj[v][u] = adj[v].get(u, 0) + 1
    adj = [dict(sorted(a.items())) for a in adj]
    order = _bfs_order(n, adj, q)
    pos = {v: i for i, v in enumerate(order)}
    chips = list(D)
    for i in range(n - 1, 0, -1):
        v = order[i]
        if chips[v] >= 0:
            continue
        gain = sum(m for w, m in adj[v].items() if pos[w] < i)
        times = (-chips[v] + gain - 1) // gain
        for j in range(i):
            u = order[j]
            for w, m in adj[u].items():
                if pos[w] >= i:
                    chips[u] -= times * m
                    chips[w] += times * m
    rounds = 0
    while True:
        burnt = [False] * n
        burnt[q] = True
        incoming = [0] * n
        stack = [q]
        count = 1
        while stack:
            u = stack.pop()
            for w, m in adj[u].items():
                if not burnt[w]:
                    incoming[w] += m
                    if incoming[w] > chips[w]:
                        burnt[w] = True
                        stack.append(w)
                        count += 1
        if count == n:
            return rounds
        rounds += 1
        for v in range(n):
            if not burnt[v] and incoming[v]:
                chips[v] -= incoming[v]
                for w, m in adj[v].items():
                    if burnt[w]:
                        chips[w] += m


def within_round_cap(n, edges, D, q):
    cap = 4 * n * (abs(sum(D)) + len(edges))
    return reduction_rounds(n, edges, D, q) <= cap


def debt_divisor(rng, n):
    """Entries in -5..8 with at least one negative entry."""
    while True:
        D = tuple(rng.randint(-5, 8) for _ in range(n))
        if min(D) < 0:
            return D


# -- workload inputs ---------------------------------------------------


def survey_graph(rng, index):
    """Graph ``index`` of a random-survey corpus.  n cycles through 6..11
    and the number of extra pairs tried through 0..n, so every corpus has
    the same mix of sizes and densities (the cost of a graph grows
    steeply with both); every third graph may carry parallel edges."""
    n = 6 + index % 6
    return random_multigraph(rng, n, parallel=index % 3 == 0, extra=(index // 6) % (n + 1))


def survey_corpus(seed, size):
    """``size`` graphs, each with a seeded debt divisor and a vertex q.
    Draws whose reduction would exceed the round cap are drawn again;
    the fixed block carries that fault."""
    rng = random.Random(f"random-survey/{seed}")
    corpus = []
    for index in range(size):
        n, edges = survey_graph(rng, index)
        while True:
            D = debt_divisor(rng, n)
            q = rng.randrange(n)
            if within_round_cap(n, edges, D, q):
                break
        corpus.append((n, edges, D, q))
    return corpus


def fault_block(size=FAULT_BLOCK_SIZE):
    """The seed-independent reductions: the Q4 reproduction plus
    ``size - 1`` random cases with n = 6..16."""
    n, edges = hypercube(4)
    block = [(n, edges, Q4_FAULT_DIVISOR, Q4_FAULT_Q)]
    rng = random.Random(FAULT_BLOCK_SEED)
    for index in range(size - 1):
        n = 6 + index % 11
        n, edges = random_multigraph(rng, n, parallel=index % 3 == 0)
        block.append((n, edges, debt_divisor(rng, n), rng.randrange(n)))
    return block
