"""Scrambles: collections of connected vertex sets (eggs) on a shared
graph, with their hitting numbers, egg-cut numbers, and orders.

An egg is stored only as its vertex bitmask, from enumeration or parsing
through every search; vertex sets appear only in results (witnesses and
the derived ``Scramble.eggs``).  A ``Scramble`` keeps its distinct masks
in ascending order, however it is built, and every engine reads them in
that order, so equal egg collections give equal witnesses.

The egg-level engines serve explicit scrambles.  Both work on a
transposed incidence (for each vertex, the bitmask of the eggs
containing it), which a ``Scramble`` builds on first use and keeps.
The hitting search deepens on the answer, so a run cut short by a time
budget still ends with a proven lower bound.  The egg cut is the split
search behind lambda_k (``invariants._min_split``) with an egg test in
place of its size test.  The uniform k-scramble (every connected
k-set) takes its numbers from graph invariants instead, on any graph:
its hitting number is n - alpha_{k-1}, and its egg-cut number is
lambda_k of the one component holding k vertices (0 when two do), so
no egg is built there.  Its hitting search is one alpha walk, or under
a target, budget or progress lines deepens, asking at each size s
whether alpha_{k-1} exceeds n - s - 1; both hitting searches share one
node counter, deadline and progress line (``_Deepening``).

Eggs read from a file or handed to ``make_scramble`` are read once and
checked connected all at once, over the incidence their ``Scramble``
builds then and keeps for the engines; a fault is named at the first
faulty egg from the masks already read.  A ``Scramble`` built directly
gets the same sweep when its incidence is first built.
"""

import sys
import time
from array import array
from functools import cached_property, partial
from itertools import islice
from operator import eq

from .graphs import (
    INF,
    InputFormatError,
    _Record,
    _bits,
    _content_rows,
    enumerate_connected_subsets,
)
from . import invariants


class ScrambleFileError(InputFormatError):
    pass


class Scramble:
    """Eggs as vertex bitmasks; ``eggs`` spells them out as vertex sets,
    built afresh on each read.  The egg engines need connected eggs:
    ``make_scramble``, ``parse_scramble`` and ``uniform_scramble`` ensure
    them, and on a direct build the engines refuse empty, out-of-range
    and disconnected eggs.  Made or parsed eggs come with their incidence.

    A plain class, treated as immutable after construction as
    ``Multigraph`` is: it keeps the distinct masks it is given, in
    ascending order, as a tuple of its own.  So the same eggs listed in
    any order, with any repeats, give the same masks and witnesses.  Two
    scrambles are equal only when they are the same object."""

    # False once a builder has vouched for connected eggs or swept them
    _sweep = True

    def __init__(self, graph, masks):
        self.graph = graph
        # sorted before deduplicated, so that masks already distinct and
        # ascending, as enumerated ones are, take linear time
        masks = sorted(masks)
        if any(map(eq, masks, masks[1:])):
            masks = dict.fromkeys(masks)
        self.masks = tuple(masks)

    @property
    def eggs(self):
        return tuple(frozenset(_bits(mask)) for mask in self.masks)

    @cached_property
    def _egg_incidence(self):
        """Bitmasks over the egg indices: for each vertex the eggs holding
        it (``_incidence``), all eggs, and for each vertex the eggs
        avoiding it.  Built on the first read (the connectivity check of
        a made or parsed scramble, else an egg engine) and kept; a build
        that raises keeps nothing, so the next read raises too."""
        if not self.masks:
            raise ValueError("empty scramble")
        n = self.graph.n
        # a Scramble built directly skips make_scramble's checks, so its
        # first read makes them, the connectivity sweep included
        if self.masks[0] < 1:
            raise ValueError("eggs must be nonempty")
        if self.masks[-1] >> n:
            raise ValueError(f"egg vertex out of range for a graph on {n} vertices")
        inc = _incidence(self.masks, n)
        bad = _disconnected(self.graph, inc) if self._sweep else 0
        if bad:
            egg = list(_bits(self.masks[(bad & -bad).bit_length() - 1]))
            raise ValueError(f"egg {egg} does not induce a connected subgraph")
        every = (1 << len(self.masks)) - 1
        return inc, every, [every ^ row for row in inc]

    def __len__(self):
        return len(self.masks)


def _checked_scramble(G, rows, masks_of, disconnected):
    """The canonical scramble on G of the distinct masks that
    ``masks_of(rows())`` yields, one per row, read once and checked
    connected in one ``_disconnected`` sweep.

    A fault is raised at the first faulty row.  Reading stops at a row
    ``masks_of`` refuses (or at a fault in ``rows``), and that refusal is
    raised unless a disconnected mask among those read comes first.
    """
    masks = []
    try:
        masks.extend(masks_of(rows()))  # keeps the masks read before a fault
    except Exception:
        bad = _disconnected(G, _incidence(masks, G.n)) if masks else 0
        if not bad:
            raise
        first = next(_bits(bad))
    else:
        S = Scramble(G, masks)
        S._sweep = False
        bad = _disconnected(G, S._egg_incidence[0]) if S.masks else 0
        if not bad:
            return S
        bad = {S.masks[i] for i in _bits(bad)}
        first = next(i for i, mask in enumerate(masks) if mask in bad)
    raise disconnected(next(islice(rows(), first, None)))


def make_scramble(G, eggs):
    """Validate eggs against G (nonempty, in range, connected) and build
    their scramble, whose masks are distinct and ascending whatever the
    order of ``eggs``; a fault is reported at the first faulty egg."""
    eggs = list(eggs)

    def mask_of(egg):
        mask = G._vertex_mask(egg)
        if not mask:
            raise ValueError("eggs must be nonempty")
        return mask

    def disconnected(egg):
        return ValueError(f"egg {sorted(egg)} does not induce a connected subgraph")

    return _checked_scramble(G, lambda: eggs, partial(map, mask_of), disconnected)


def uniform_scramble(G, k):
    """The scramble whose eggs are all connected k-vertex subsets."""
    S = Scramble(G, enumerate_connected_subsets(G, k))
    S._sweep = False
    return S


def _spelled_mask(tokens, n, lineno):
    """The mask of an egg line read token by token with ``int``, so that
    a line that does not hold distinct vertices of range(n) gets its
    message, and tokens such as ``07`` or ``+1`` still parse."""
    try:
        vertices = [int(tok) for tok in tokens]
    except ValueError:
        raise ScrambleFileError("egg line must hold integers", lineno) from None
    if len(set(vertices)) != len(vertices):
        raise ScrambleFileError("repeated vertex in egg", lineno)
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise ScrambleFileError(f"vertex {v} out of range", lineno)
        mask |= 1 << v
    return mask


def parse_scramble(text, G):
    """One egg per line as whitespace-separated vertex indices; ``#``
    lines are comments.

    One loop over the lines looks each line's tokens up in a table from
    the decimal spelling of each vertex to its bit; the mask is their
    sum, and it holds a repeated vertex iff it has fewer bits than the
    line has tokens.  A miss or a repeat sends the line to ``int``
    parsing and the range and repeat checks.  The scramble keeps the
    distinct masks in ascending order, whatever the order of the lines,
    and checks them connected in one sweep over its incidence.  A fault
    is reported at the first faulty line, whatever the fault; see
    ``_checked_scramble``.
    """
    n = G.n
    lookup = {str(v): 1 << v for v in range(n)}.__getitem__

    def masks_of(rows):
        for lineno, tokens in rows:
            try:
                mask = sum(map(lookup, tokens))
            except KeyError:
                mask = 0
            yield mask if mask.bit_count() == len(tokens) else _spelled_mask(tokens, n, lineno)

    def rows():
        return _content_rows(text, ScrambleFileError)

    def disconnected(row):
        return ScrambleFileError("egg does not induce a connected subgraph", row[0])

    return _checked_scramble(G, rows, masks_of, disconnected)


# -- hitting number ------------------------------------------------------


class HittingSearchResult(_Record):
    """Outcome of ``hitting_search`` or ``uniform_hitting_search``.

    ``proved_lower`` always holds (the hitting number is at least this);
    ``optimum``/``witness`` are set when the search finished, which is
    what ``complete`` reports.
    """

    __slots__ = ()
    _fields = ("proved_lower", "optimum", "witness", "elapsed", "nodes")

    @property
    def complete(self):
        return self.optimum is not None


class _Deadline(Exception):
    pass


class _Deepening:
    """What the two hitting searches share: a node counter, a deadline,
    a progress line every 5 seconds, and the loop over sizes.  The clock
    starts when the object is made."""

    def __init__(self, budget, progress):
        if not budget >= 0:  # also refuses NaN
            raise ValueError(f"budget must be a number of seconds >= 0, got {budget}")
        self.start = time.monotonic()
        self.deadline = self.start + budget
        self.progress = progress
        self.ping = self.start + 5.0
        self.nodes = 0
        self.size = None

    def tick(self):
        """Count a node; raise ``_Deadline`` once the budget is spent."""
        self.nodes += 1
        if self.deadline < INF or self.progress is not None:
            now = time.monotonic()
            if now > self.deadline:
                raise _Deadline
            if self.progress is not None and now >= self.ping:
                self.ping = now + 5.0
                self.progress(
                    f"searching for size {self.size}: {self.nodes} nodes, "
                    f"{now - self.start:.0f}s"
                )

    def run(self, proved, decide, target):
        """Try sizes proved, proved + 1, ... with ``decide(size)``, a
        hitting set of at most that size or None, until one is found,
        ``target`` is proven, or the deadline passes."""
        optimum = witness = None
        try:
            while proved < target:
                self.size = proved
                hit = decide(proved)
                if hit is not None:
                    optimum, witness = proved, frozenset(hit)
                    break
                proved += 1
                if self.progress is not None:
                    self.progress(
                        f"no hitting set of size {proved - 1}: number is >= {proved} "
                        f"({self.nodes} nodes, {time.monotonic() - self.start:.1f}s)"
                    )
        except _Deadline:
            pass
        return HittingSearchResult(
            proved, optimum, witness, time.monotonic() - self.start, self.nodes
        )


_WORD = (1 << 64) - 1
# _BINARY_DIGITS[t] spells a byte as b"1" where its bit t is set, else b"0"
_BINARY_DIGITS = tuple((b"0" * (1 << t) + b"1" * (1 << t)) * (128 >> t) for t in range(8))


def _incidence(masks, n):
    """``inc[v]``: the bitmask of the indices of the eggs that contain v.

    The egg masks are packed into 64-bit words, 64 vertices at a time.
    Each vertex's byte column, read from the last egg to the first, is
    spelled out in binary digits and parsed by ``int(..., 2)``, so no
    Python object is made per egg when n <= 64.  Base 2 is exempt from
    the interpreter's limit on the length of integer strings.
    """
    inc = []
    for lo in range(0, n, 64):
        words = array("Q", masks if n <= 64 else ((mask >> lo) & _WORD for mask in masks))
        if sys.byteorder == "big":
            words.byteswap()
        packed = words.tobytes()[::-1]  # last egg first; byte j of a word at offset 7 - j
        for v in range(lo, min(n, lo + 64)):
            byte, bit = divmod(v - lo, 8)
            inc.append(int(packed[7 - byte :: 8].translate(_BINARY_DIGITS[bit]), 2))
    return inc


def _disconnected(G, inc):
    """The bitmask over the egg indices of those eggs that induce a
    disconnected subgraph of G, all tested at once on their incidence
    ``inc`` (``_incidence`` of nonempty vertex masks on G).

    Bit i of ``reached[v]`` says that v is reached from the lowest vertex
    of egg i without leaving egg i.  It starts at each egg's lowest
    vertex, and ``reached[v] = inc[v] & (reached[v] | reached[u] for each
    neighbour u)`` is swept over the vertices until nothing changes.  An
    egg is disconnected iff one of its vertices is never reached.
    """
    reached = []
    below = 0  # eggs holding a vertex below v
    for row in inc:
        reached.append(row & ~below)
        below |= row
    sweep = [(v, row, pairs) for v, (row, pairs) in enumerate(zip(inc, G._pairs)) if row]
    grew = True
    while grew:
        grew = False
        for v, row, pairs in sweep:
            now = reached[v]
            for u, _ in pairs:
                now |= reached[u]
            now &= row
            if now != reached[v]:
                reached[v] = now
                grew = True
    bad = 0
    for row, now in zip(inc, reached):
        bad |= row & ~now
    return bad


def _sliced_sum(rows):
    """Bit slices of per-egg counts: bit i of ``slices[b]`` is bit b of
    the number of rows holding egg i."""
    slices = []
    for carry in rows:
        b = 0
        while carry:
            if b == len(slices):
                slices.append(carry)
                break
            digit = slices[b]
            slices[b] = digit ^ carry
            carry &= digit
            b += 1
    return slices


def _sliced_decrement(slices, eggs):
    """Subtract one from the count of every egg in ``eggs`` (each >= 1)."""
    slices = list(slices)
    borrow = eggs
    for b, digit in enumerate(slices):
        if not borrow:
            break
        slices[b] = digit ^ borrow
        borrow &= slices[b]
    return slices


def _sliced_argmin(slices, eggs):
    """The lowest index among ``eggs`` whose count is smallest."""
    for digit in reversed(slices):
        low = eggs & ~digit
        if low:
            eggs = low
    return (eggs & -eggs).bit_length() - 1


def hitting_search(S, target=INF, budget=INF, progress=None):
    """Prove lower bounds on the hitting number until the optimum is
    found, ``target`` is reached, or ``budget`` seconds run out.

    Each decision level branches on the uncovered egg with the fewest
    allowed vertices, lowest index first; a greedy packing of disjoint
    uncovered eggs prunes subtrees that cannot fit the size cap.

    Sets of eggs are bitmasks over egg indices, and the incidence
    ``inc[v]`` (the eggs containing vertex v) is built once per scramble, so
    covering, packing and banning a vertex are big-integer operations
    rather than scans over the eggs.  Each egg's count of allowed
    (unbanned) vertices is kept bit-sliced: it starts at the egg sizes,
    banning v subtracts ``inc[v]`` with borrow, and the branching egg is
    found in one pass over the slices.

    ``target`` is a number and ``budget`` a number of seconds >= 0; INF,
    the default of both, means no limit.
    """
    inc, every, outside = S._egg_incidence
    search = _Deepening(budget, progress)
    tick = search.tick
    masks = S.masks

    def greedy_cover():
        chosen = []
        uncovered = every
        while uncovered:
            counts = [(uncovered & row).bit_count() for row in inc]
            pick = counts.index(max(counts))
            chosen.append(pick)
            uncovered &= outside[pick]
        return chosen

    def packing(rest, banned, cap):
        """Greedy count of disjoint allowed parts of the eggs in ``rest``,
        lowest index first, stopping once it exceeds ``cap``."""
        count = 0
        while rest and count <= cap:
            count += 1
            for v in _bits(masks[(rest & -rest).bit_length() - 1] & ~banned):
                rest &= outside[v]
        return count

    greedy = sizes = None

    def decide(size_cap):
        """A hitting set of size <= size_cap, or None if none exists; the
        greedy cover, with no search, once it fits.  The cover and the
        sliced egg sizes are built when first needed, so a run that the
        packing bound settles builds neither."""
        nonlocal greedy, sizes
        if greedy is None:
            greedy = greedy_cover()
        if size_cap >= len(greedy):
            return greedy
        if sizes is None:
            sizes = _sliced_sum(inc)

        def walk(uncovered, banned, counts, chosen):
            tick()
            if not uncovered:
                return list(chosen)
            slack = size_cap - len(chosen)
            if not slack:
                return None
            cands = masks[_sliced_argmin(counts, uncovered)] & ~banned
            if not cands or packing(uncovered, banned, slack) > slack:
                return None
            for v in _bits(cands):
                chosen.append(v)
                hit = walk(uncovered & outside[v], banned, counts, chosen)
                if hit is not None:
                    return hit
                chosen.pop()
                banned |= 1 << v
                counts = _sliced_decrement(counts, inc[v])
            return None

        return walk(every, 0, sizes, [])

    proved = max(packing(every, 0, len(masks)), 1)
    return search.run(proved, decide, target)


def hitting_number(S):
    """Smallest number of vertices meeting every egg."""
    return hitting_search(S).optimum


# -- egg cuts and orders -------------------------------------------------


def _first_disjoint_pair(masks, inc, every):
    """The first egg with a disjoint egg and the lowest such egg, as
    masks; None when the eggs pairwise overlap.  No lower egg is
    disjoint from the first, or it would have come first itself."""
    for mask in masks:
        meets = 0
        for v in _bits(mask):
            meets |= inc[v]
        others = every & ~meets
        if others:
            return mask, masks[(others & -others).bit_length() - 1]
    return None


def _disjoint_pair(S):
    """``_first_disjoint_pair`` of S's eggs, unless pigeonhole rules a
    pair out first: when twice the smallest egg holds more than n
    vertices, any two eggs together hold more vertices than the graph,
    so they share one.  The first egg's size alone rules pigeonhole out
    on most scrambles, before a scan of every egg's size.  The pair
    found is the first in ascending mask order, so it depends only on
    which eggs S holds."""
    inc, every, _ = S._egg_incidence
    n = S.graph.n
    if 2 * S.masks[0].bit_count() > n and 2 * min(map(int.bit_count, S.masks)) > n:
        return None
    return _first_disjoint_pair(S.masks, inc, every)


def has_finite_egg_cut(S):
    """Whether two disjoint eggs exist; returns (flag, witness pair).

    Only a split with whole eggs on both sides counts as an egg cut, so
    pairwise-overlapping scrambles have no finite one.  When twice the
    smallest egg exceeds n, pigeonhole says so with no scan of the eggs.
    """
    pair = _disjoint_pair(S)
    if pair is None:
        return False, None
    return True, tuple(frozenset(_bits(mask)) for mask in pair)


def egg_cut_number(S):
    """Minimum edges crossing any split that leaves whole eggs on both
    sides; INF when no two eggs are disjoint.

    The cut is 0 when eggs lie in two components.  Otherwise every egg
    lies in one component, and a minimum egg cut there may be taken with
    both sides connected: shrink the side of one egg to that egg's
    component in it, then move each part of the other side that misses
    the other egg across; neither step adds a crossing edge.  The split
    search ``invariants._min_split`` grows such a side with its egg
    test.  When the eggs pairwise overlap no split passes, and the
    search could show that only by exhausting its tree, so that case is
    settled first by ``_disjoint_pair``.
    """
    G = S.graph
    inc, every, out = S._egg_incidence
    full = (1 << G.n) - 1
    home = G._component_of((S.masks[0] & -S.masks[0]).bit_length() - 1, full)
    if any(inc[v] for v in _bits(full ^ home)):
        return 0
    if _disjoint_pair(S) is None:
        return INF
    return invariants._min_split(G, home, out=out, every=every)


def scramble_order(S):
    """min(hitting number, egg-cut number), both computed from the eggs.
    The hitting search stops once the cut is a proven bound, so an
    optimum it finds lies below the cut."""
    e = egg_cut_number(S)
    optimum = hitting_search(S, target=e).optimum
    return e if optimum is None else optimum


# -- uniform scrambles from graph invariants ------------------------------


def _holding(G, k):
    """The components of G with at least k vertices, for 1 <= k <= n.
    The uniform k-scramble is empty when there is none, which raises."""
    G._check_subset_size(k)
    holding = [comp for comp in G.connected_components() if len(comp) >= k]
    if not holding:
        raise ValueError("empty scramble")
    return holding


def uniform_hitting_number(G, k):
    """Hitting number of the uniform k-scramble, n - alpha_{k-1}: a set
    meets every connected k-set iff the rest has no component above k - 1."""
    return uniform_hitting_search(G, k).optimum


def uniform_hitting_search(G, k, target=INF, budget=INF, progress=None):
    """``hitting_search`` on the uniform k-scramble, on alpha_{k-1} with
    no egg built.

    A set of at most s vertices meets every connected k-set iff the rest,
    at least n - s vertices, has no component above k - 1.  Unlimited
    (``target`` and ``budget`` INF, no ``progress``), one maximizing alpha
    walk finds a largest rest.  Under a limit the search deepens: level
    s, from 1, asks the walk with a floor for a rest above n - s - 1
    vertices and stops at the first; none proves the number >= s + 1.
    The witness is the rest's complement, and every node of the walk
    counts toward ``nodes``, the deadline and the progress lines.
    """
    _holding(G, k)
    search = _Deepening(budget, progress)
    everything = frozenset(range(G.n))
    if target == budget == INF and progress is None:
        rest = invariants.max_component_independent_set(G, k - 1, tick=search.tick)
        return search.run(G.n - len(rest), lambda size: everything - rest, target)

    def decide(size):
        rest = invariants.max_component_independent_set(
            G, k - 1, floor=G.n - size - 1, tick=search.tick
        )
        return None if rest is None else everything - rest

    return search.run(1, decide, target)


def uniform_egg_cut_number(G, k):
    """Egg-cut number of the uniform k-scramble, with no egg built: 0
    when two components hold k vertices, else lambda_k of the one that
    does (the egg-cut number of a connected graph's uniform k-scramble)."""
    holding = _holding(G, k)
    if len(holding) > 1:
        return 0
    return invariants._min_split(G, G._vertex_mask(holding[0]), k=k)


def uniform_order_via_invariants(G, k):
    """Order of the uniform k-scramble on a connected graph, from graph
    invariants alone."""
    G._check_connected()
    return min(uniform_egg_cut_number(G, k), uniform_hitting_number(G, k))


def _uniform_orders_so_far(G):
    """The running best of ``best_uniform_order``: the largest uniform
    order over k = 1, 2, ..., yielded after each k, so a caller may stop
    once the bound it has is enough.

    The hitting number n - alpha_{k-1} never increases in k, so once it
    is at most the best order so far no later k can beat it; it is
    computed first, and the walk ends at the first such k.
    """
    G._check_nonempty()
    G._check_connected()
    best = 0
    for k in range(1, G.n + 1):
        h = uniform_hitting_number(G, k)
        if h <= best:
            return
        best = max(best, min(h, uniform_egg_cut_number(G, k)))
        yield best


def best_uniform_order(G):
    """The largest order of a uniform scramble on a connected graph,
    max over k of min(lambda_k, n - alpha_{k-1}): a lower bound on the
    scramble number, and so on the gonality."""
    best = 0
    for best in _uniform_orders_so_far(G):
        pass
    return best
