"""Output checks written apart from the package: nothing here imports
``scrambles``, so agreement with it is evidence, not a tautology.

Graphs are ``(n, edges)`` with ``edges`` a list of pairs repeated once
per parallel edge.  The exhaustive searches walk all 2^n vertex sets and
are meant for n <= 16.
"""

from fractions import Fraction

INF = float("inf")


class Graph:
    def __init__(self, n, edges):
        self.n = n
        self.edges = list(edges)
        self.mult = [dict() for _ in range(n)]
        for u, v in self.edges:
            self.mult[u][v] = self.mult[u].get(v, 0) + 1
            self.mult[v][u] = self.mult[v].get(u, 0) + 1
        self.nbr = [sum(1 << w for w in m) for m in self.mult]
        self.deg = [sum(m.values()) for m in self.mult]

    def component(self, start, within):
        comp = frontier = 1 << start
        while frontier:
            grown = 0
            rest = frontier
            while rest:
                low = rest & -rest
                grown |= self.nbr[low.bit_length() - 1]
                rest ^= low
            frontier = grown & within & ~comp
            comp |= frontier
        return comp

    def components(self, within):
        out = []
        while within:
            comp = self.component((within & -within).bit_length() - 1, within)
            out.append(comp)
            within &= ~comp
        return out

    def cut(self, mask):
        total = 0
        for u, v in self.edges:
            if (mask >> u & 1) != (mask >> v & 1):
                total += 1
        return total


def _bits(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def mask_tables(g):
    """For every vertex set: the order of its largest induced component
    and the number of edges leaving it."""
    size = 1 << g.n
    largest = [0] * size
    cut = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        inside = sum(m for w, m in g.mult[v].items() if rest >> w & 1)
        cut[mask] = cut[rest] + g.deg[v] - 2 * inside
        comp = g.component(v, mask)
        largest[mask] = max(comp.bit_count(), largest[mask & ~comp])
    return largest, cut


def uniform_numbers(g):
    """Exhaustive figures for every k: the hitting number and the egg-cut
    number of the uniform k-scramble, lambda_k, and alpha_c.

    A vertex set meets every connected k-set exactly when the graph left
    after removing it has no component of order k or more, and a side of
    a split holds a connected k-set exactly when one of its components
    has order k or more.
    """
    n = g.n
    full = (1 << n) - 1
    largest, cut = mask_tables(g)
    alpha = [0] * (n + 1)
    egg_cut = [INF] * (n + 2)
    lam = [INF] * (n + 2)
    for mask in range(1 << n):
        size = mask.bit_count()
        top = largest[mask]
        if size > alpha[top]:
            alpha[top] = size
        if mask == 0 or mask == full or mask >> (n - 1) & 1:
            continue
        other = full ^ mask
        both = min(top, largest[other])
        if cut[mask] < egg_cut[both]:
            egg_cut[both] = cut[mask]
        if top == size and largest[other] == n - size:
            split = min(size, n - size)
            if cut[mask] < lam[split]:
                lam[split] = cut[mask]
    for c in range(1, n + 1):
        alpha[c] = max(alpha[c], alpha[c - 1])
    for k in range(n, 0, -1):
        egg_cut[k] = min(egg_cut[k], egg_cut[k + 1])
        lam[k] = min(lam[k], lam[k + 1])
    hitting = {k: n - alpha[k - 1] for k in range(1, n + 1)}
    return {
        "hitting": hitting,
        "egg_cut": {k: egg_cut[k] for k in range(1, n + 1)},
        "lambda": {k: lam[k] for k in range(1, n + 1)},
        "alpha": {c: alpha[c] for c in range(n + 1)},
    }


def uniform_orders(g):
    figures = uniform_numbers(g)
    return {
        k: min(figures["hitting"][k], figures["egg_cut"][k]) for k in range(1, g.n + 1)
    }


def hitting_exhaustive(n, egg_masks):
    """Fewest vertices meeting every egg, by growing candidate size."""
    from itertools import combinations

    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            chosen = sum(1 << v for v in combo)
            if all(chosen & e for e in egg_masks):
                return size
    return n


def egg_cut_exhaustive(g, egg_masks):
    """Fewest crossing edges over splits with a whole egg on each side."""
    n = g.n
    full = (1 << n) - 1
    best = INF
    for mask in range(1, 1 << (n - 1)):
        other = full ^ mask
        if not any(e & mask == e for e in egg_masks):
            continue
        if not any(e & other == e for e in egg_masks):
            continue
        c = g.cut(mask)
        if c < best:
            best = c
    return best


def disjoint_pair(egg_masks, a, b):
    return a in egg_masks and b in egg_masks and not a & b


# -- chip-firing -------------------------------------------------------


def reduce_effective(g, D, q):
    """q-reduced form of an effective divisor: fire the set that does not
    burn from q until everything burns."""
    chips = list(D)
    full = (1 << g.n) - 1
    while True:
        burnt = 1 << q
        changed = True
        while changed:
            changed = False
            for v in _bits(full & ~burnt):
                into = sum(m for w, m in g.mult[v].items() if burnt >> w & 1)
                if into > chips[v]:
                    burnt |= 1 << v
                    changed = True
        if burnt == full:
            return chips
        for v in _bits(full & ~burnt):
            for w, m in g.mult[v].items():
                if burnt >> w & 1:
                    chips[v] -= m
                    chips[w] += m


def has_positive_rank(g, D):
    """Every vertex keeps a chip in the q-reduced form of an effective D."""
    if min(D) < 0 or sum(D) < 1:
        return False
    return all(reduce_effective(g, D, q)[q] >= 1 for q in range(g.n))


def is_q_reduced(g, D, q):
    """Definition check: non-negative off q, and no nonempty set avoiding
    q can fire without sending a vertex into debt."""
    n = g.n
    if any(D[v] < 0 for v in range(n) if v != q):
        return False
    others = [v for v in range(n) if v != q]
    for code in range(1, 1 << len(others)):
        subset = 0
        for i, v in enumerate(others):
            if code >> i & 1:
                subset |= 1 << v
        legal = True
        for v in _bits(subset):
            leaving = sum(m for w, m in g.mult[v].items() if not subset >> w & 1)
            if D[v] < leaving:
                legal = False
                break
        if legal:
            return False
    return True


def lattice_equivalent(g, D1, D2):
    """Whether D1 - D2 is an integer combination of Laplacian columns:
    solve the reduced Laplacian system exactly over the rationals and
    test that the firing vector is integral."""
    n = g.n
    if sum(D1) != sum(D2):
        return False
    if n == 1:
        return True
    size = n - 1
    rows = []
    for i in range(size):
        row = [Fraction(-g.mult[i].get(j, 0)) for j in range(size)]
        row[i] = Fraction(g.deg[i])
        row.append(Fraction(D1[i] - D2[i]))
        rows.append(row)
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return all(row[size].denominator == 1 for row in rows)


def is_strong_separator(g, sep):
    """Every component left after removing ``sep`` is a tree, and each
    separator vertex sends at most one edge into any one component."""
    sep_mask = sum(1 << v for v in sep)
    if not sep_mask:
        return False
    full = (1 << g.n) - 1
    for comp in g.components(full & ~sep_mask):
        inner = sum(
            m for v in _bits(comp) for w, m in g.mult[v].items() if comp >> w & 1 and v < w
        )
        if inner != comp.bit_count() - 1:
            return False
        for s in sep:
            if sum(m for w, m in g.mult[s].items() if comp >> w & 1) > 1:
                return False
    return True


def smallest_strong_separator(g):
    """A smallest strong separator, by trying sets of growing size."""
    from itertools import combinations

    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            if is_strong_separator(g, combo):
                return list(combo)
    return None


def is_independent(g, vertices):
    chosen = set(vertices)
    return all(not (u in chosen and v in chosen) for u, v in g.edges)
