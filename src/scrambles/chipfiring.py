"""Divisors (chip configurations) on multigraphs: firing moves, the
canonical q-reduced form via the burning process, positive-rank testing,
exact gonality by branch and bound over 0-reduced divisors, and
separator-based upper bounds.

A divisor is a plain tuple of n ints, one chip count per vertex.
"""

import math

from .graphs import INF, InputFormatError, _Record, _bits, _content_rows
from .invariants import max_component_independent_set, restricted_edge_connectivity


class DivisorFileError(InputFormatError):
    pass


def degree(D):
    """Total number of chips."""
    return sum(D)


def _check_divisor(G, D):
    if len(D) != G.n:
        raise ValueError(f"divisor has {len(D)} entries for a {G.n}-vertex graph")


def fire_vertex(G, D, v):
    """Send one chip along every edge at v to its other endpoint."""
    G._check_vertex(v)
    _check_divisor(G, D)
    out = list(D)
    _fire(G._pairs, out, 1 << v, 1)
    return tuple(out)


def fire_subset(G, D, subset):
    """Fire every vertex of the set at once: chips move only across the
    boundary, one per crossing edge."""
    _check_divisor(G, D)
    mask = G._vertex_mask(subset)
    if mask == 0:
        raise ValueError("empty vertex set")
    if mask == (1 << G.n) - 1:
        raise ValueError("subset must be proper")
    out = list(D)
    _fire(G._pairs, out, mask, 1)
    return tuple(out)


def _fire(pairs, chips, inside, times):
    """Fire the vertex mask ``inside`` ``times`` times, in place: each
    firing sends one chip along every edge that leaves the set."""
    for v in _bits(inside):
        for w, m in pairs[v]:
            if not inside >> w & 1:
                chips[v] -= times * m
                chips[w] += times * m


# -- q-reduction ---------------------------------------------------------


def _bfs_order(G, q):
    """Vertices by BFS layer from q, ascending index inside a layer.  An
    order that misses a vertex raises "graph must be connected", so the
    walk is its callers' connectivity check."""
    order = [v for layer in G._layers(q) for v in _bits(layer)]
    if len(order) < G.n:
        G._check_connected()
    return order


def _burn(pairs, chips, q):
    """Dhar's burning process: start a fire at q; a vertex burns once its
    edges to burnt vertices outnumber its chips.  ``pairs[v]`` holds v's
    ``(neighbour, multiplicity)`` pairs.  Returns the burnt flags, each
    vertex's edge count into the burnt set, and how many vertices burnt.

    The burn returns as soon as all n vertices have burnt, leaving the
    counts of the edges not yet scanned out of ``incoming``.  No caller
    reads ``incoming`` then: it is read only for the vertices that
    survive, to fire them, and here none does.
    """
    n = len(chips)
    burnt = [False] * n
    burnt[q] = True
    incoming = [0] * n
    stack = [q]
    count = 1
    while stack:
        for w, m in pairs[stack.pop()]:
            if not burnt[w]:
                heat = incoming[w] + m
                incoming[w] = heat
                if heat > chips[w]:
                    burnt[w] = True
                    count += 1
                    if count == n:
                        return burnt, incoming, count
                    stack.append(w)
    return burnt, incoming, count


def _reduce_along(pairs, D, q, order):
    """q-reduction given a BFS order starting at q.

    Debt clearing walks the order outside-in: a vertex in debt is paid by
    firing the whole prefix before it, which only adds chips to every
    vertex at or beyond it.  One pass leaves all of V - q non-negative.

    Then the burning loop: start a fire at q; a vertex burns once its
    edges to burnt vertices outnumber its chips.  While some set survives
    the fire, firing that set keeps everything outside q non-negative and
    moves chips toward q.  The set fires as many times at once as every
    member can pay for, since each of those firings is legal on its own.
    The fixpoint where everything burns is the canonical representative.
    """
    n = len(D)
    chips = list(D)
    prefix = (1 << n) - 1
    for v in order[:0:-1]:
        prefix ^= 1 << v
        if chips[v] < 0:
            gain = sum(m for w, m in pairs[v] if prefix >> w & 1)
            _fire(pairs, chips, prefix, (gain - 1 - chips[v]) // gain)

    while True:
        burnt, incoming, burnt_count = _burn(pairs, chips, q)
        if burnt_count == n:
            return tuple(chips)
        _fire_unburnt(pairs, chips, burnt, incoming)


def _fire_unburnt(pairs, chips, burnt, incoming):
    """Fire the set that survived a burn, in place, as many times at
    once as every member can pay for."""
    n = len(chips)
    times = min(
        chips[v] // incoming[v] for v in range(n) if not burnt[v] and incoming[v]
    )
    for v in range(n):
        if not burnt[v] and incoming[v]:
            chips[v] -= times * incoming[v]
            for w, m in pairs[v]:
                if burnt[w]:
                    chips[w] += times * m


def _keeps_chip(pairs, D, q):
    """Whether the q-reduced form of the effective divisor D holds a
    chip on q.

    D has no debt, so the burning loop of ``_reduce_along`` alone
    reduces it, and needs no BFS order.  Reduction never takes a chip
    off q, so the loop stops as soon as q holds one.  D is copied only
    when a set fires, and is never changed.
    """
    chips = D
    n = len(D)
    while chips[q] < 1:
        burnt, incoming, burnt_count = _burn(pairs, chips, q)
        if burnt_count == n:
            return False
        if chips is D:
            chips = list(D)
        _fire_unburnt(pairs, chips, burnt, incoming)
    return True


def _refusing_vertex(pairs, D, first):
    """A vertex whose reduced form of the effective divisor D holds no
    chip, trying ``first`` before the rest in order; None when D has
    positive rank."""
    if not _keeps_chip(pairs, D, first):
        return first
    for q in range(len(D)):
        if q != first and not _keeps_chip(pairs, D, q):
            return q
    return None


def q_reduce(G, D, q):
    """The unique divisor equivalent to D that is non-negative outside q
    and survives no burning round."""
    _check_divisor(G, D)
    G._check_vertex(q)
    return _reduce_along(G._pairs, D, q, _bfs_order(G, q))


def is_equivalent(G, D1, D2):
    """Whether D1 and D2 differ by a sequence of firings."""
    _check_divisor(G, D1)
    _check_divisor(G, D2)
    G._check_nonempty()
    order = _bfs_order(G, 0)
    if sum(D1) != sum(D2):
        return False
    pairs = G._pairs
    return _reduce_along(pairs, D1, 0, order) == _reduce_along(pairs, D2, 0, order)


def has_positive_rank(G, D):
    """Whether D stays effective after removing one chip anywhere: the
    q-reduced form must keep at least one chip on q for every q.

    Rank is a class invariant, so D is first replaced by its 0-reduced
    form D0.  That needs a chip on 0; then D0 is effective, and the
    other vertices need only the burning test of ``_refusing_vertex``,
    which passes 0 at once.
    """
    _check_divisor(G, D)
    G._check_nonempty()
    order = _bfs_order(G, 0)
    if sum(D) < 0:
        return False
    pairs = G._pairs
    D0 = _reduce_along(pairs, D, 0, order)
    return D0[0] >= 1 and _refusing_vertex(pairs, D0, 0) is None


# -- gonality ------------------------------------------------------------


class GonalityResult(_Record):
    """``value``/``witness`` are set when the search found a divisor;
    ``exceeded_cap`` reports running out of degrees instead.  ``rank_tests`` counts
    the divisors the search tested for positive rank, and ``superstable_burns`` the
    burns it ran to prove a configuration superstable."""

    __slots__ = ()
    _fields = ("value", "witness", "exceeded_cap", "max_degree", "rank_tests", "superstable_burns")


def gonality_bruteforce(G, max_degree=INF, lower=0):
    """Smallest degree of a positive-rank divisor, by exact branch and
    bound over 0-reduced divisors.

    Every positive-rank effective divisor is equivalent to a unique
    0-reduced one, c + j*(0), where c is superstable (a fire from 0 burns
    every vertex), c(0) = 0 and j >= 1.  Superstables are closed under
    removing chips, and positive rank under adding them, so each
    superstable c needs one rank test, at the largest j that would still
    beat the best degree so far; only a success lowers the best, and j
    then steps down.  The search seeds the best with j chips on 0 alone,
    then visits superstables by ascending degree, one depth-first pass
    per degree that adds chips at non-decreasing vertices.

    A configuration c off 0 with fewer than lambda(G) chips, the edge
    connectivity, is superstable without a burn: if a nonempty set S of
    V - 0 could fire, each v in S would hold at least outdeg_S(v) chips,
    so c(S) >= |boundary(S)| >= lambda(G).  The search burns only
    configurations of at least lambda(G) chips.  A wrong lambda could
    cost burns or change the witness, never the value: too small, and
    the search burns more; too large, and it also visits divisors that
    are not 0-reduced, whose rank test is still exact because rank is a
    class invariant.

    ``lower`` is a proven lower bound on the gonality, such as
    ``scramble.best_uniform_order(G)``.  The search stops as soon as the
    best degree reaches it, which skips the refutation of best - 1 that
    otherwise visits every superstable below it.  No divisor of degree
    below ``lower`` has positive rank, so the stop is exact: value and
    witness are those of the unbounded search, and a cap below ``lower``
    is exceeded with no rank test.  A ``lower`` above the gonality would
    make the answer wrong.

    Returns the first 0-reduced positive-rank divisor of the minimal
    degree that the search meets.  The degree cap is the floor of
    min(max_degree, n), so INF, the default, means n, which never binds
    on a connected graph.
    """
    G._check_nonempty()
    G._check_connected()
    n = G.n
    cap = min(max_degree, n)
    if not cap >= 0:
        raise ValueError("degree cap must be non-negative")
    cap = math.floor(cap)
    if cap < lower:
        return GonalityResult(None, None, True, cap, 0, 0)
    pairs = G._pairs
    chips = [0] * n
    best = cap + 1
    witness = None
    refused = 0
    rank_tests = burns = 0

    for j in range(1, cap + 1):
        chips[0] = j
        rank_tests += 1
        q = _refusing_vertex(pairs, chips, refused)
        if q is None:
            best, witness = j, tuple(chips)
            break
        refused = q
    chips[0] = 0

    def leaves(t, start, placed):
        """Superstables of degree placed + t that add chips only at
        vertices >= start to the ``placed`` chips already in place, each
        yielded as the live chip vector."""
        if t == 0:
            yield chips
            return
        for v in range(start, n):
            chips[v] += 1
            if placed + 1 < lam or superstable():
                yield from leaves(t - 1, v, placed + 1)
            chips[v] -= 1

    def superstable():
        nonlocal burns
        burns += 1
        return _burn(pairs, chips, 0)[2] == n

    if best > max(2, lower):
        lam = restricted_edge_connectivity(G, 1)
    t = 1
    while t <= best - 2 and best > lower:
        for c in leaves(t, 1, 0):
            j = best - 1 - t
            while j >= 1:
                c[0] = j
                rank_tests += 1
                q = _refusing_vertex(pairs, c, refused)
                if q is not None:
                    refused = q
                    break
                best, witness = t + j, tuple(c)
                j -= 1
            c[0] = 0
            if t > best - 2 or best <= lower:
                break
        t += 1

    if witness is None:
        return GonalityResult(None, None, True, cap, rank_tests, burns)
    return GonalityResult(best, witness, False, cap, rank_tests, burns)


# -- strong separators ---------------------------------------------------


class StrongSeparatorReport(_Record):
    """Whether ``separator`` is a strong separator; when it is not,
    ``violating_component`` is a component left by its removal that
    breaks a condition."""

    __slots__ = ()
    _fields = ("separator", "valid", "violating_component")


def check_strong_separator(G, subset):
    """Check the two separator conditions: every component left after
    removing the set is a tree, and each separator vertex sends at most
    one edge (counting multiplicity) into any single component."""
    sep = frozenset(subset)
    if not sep:
        raise ValueError("separator must be nonempty")
    for v in sep:
        G._check_vertex(v)
    rest = [v for v in range(G.n) if v not in sep]
    for comp in G.connected_components(rest):
        internal = sum(
            m for v in comp for w, m in G._pairs[v] if w in comp and v < w
        )
        if internal != len(comp) - 1:
            return StrongSeparatorReport(sep, False, comp)
        for v in sorted(sep):
            into = sum(m for w, m in G._pairs[v] if w in comp)
            if into > 1:
                return StrongSeparatorReport(sep, False, comp)
    return StrongSeparatorReport(sep, True, None)


class SeparatorBound(_Record):
    """A strong separator, its ``size`` (the gonality upper bound) and
    the largest order ``component_limit`` a component left by its
    removal may have."""

    __slots__ = ()
    _fields = ("size", "separator", "component_limit")


def gonality_upper_by_separator(G):
    """Upper bound on gonality from a strong separator: the complement
    of a largest set whose induced components have at most
    limit = min(g - 2, m - 1) vertices, for girth g and largest
    component order m.

    Such a complement is always a strong separator.  A component of at
    most g - 2 vertices has no cycle, so it is a tree, and two edges
    from one separator vertex into it would close a cycle of length at
    most limit + 1 < g.  A larger limit gives a smaller separator, and
    limit < m keeps it nonempty.
    """
    G._check_nonempty()
    limit = min(G.girth() - 2, max(map(len, G.connected_components())) - 1)
    sep = frozenset(range(G.n)) - max_component_independent_set(G, limit)
    return SeparatorBound(len(sep), sep, limit)


# -- divisor documents ---------------------------------------------------


def parse_divisor(text, n):
    """A single content line of n whitespace-separated integers."""
    rows = list(_content_rows(text, DivisorFileError))
    if len(rows) > 1:
        raise DivisorFileError("expected a single line of chip counts", rows[1][0])
    lineno, tokens = rows[0]
    if len(tokens) != n:
        raise DivisorFileError(f"expected {n} chip counts, found {len(tokens)}", lineno)
    try:
        return tuple(int(tok) for tok in tokens)
    except ValueError:
        raise DivisorFileError("chip counts must be integers", lineno) from None


def format_divisor(D):
    return " ".join(str(c) for c in D)
