"""Scrambles: collections of connected vertex sets (eggs) on a shared
graph, with their hitting numbers, egg-cut numbers, and orders.

The hitting search runs as iterative deepening on the answer.  For each
candidate size s it solves the decision problem "is there a hitting set
of size at most s" with a depth-capped branch and bound, so a run cut
short by a time budget still ends with a proven lower bound.  The search
works on the transposed incidence (for each vertex, the bitmask of the
egg indices containing it) and keeps each egg's count of allowed
vertices as bit slices, so a node costs a few big-integer operations
instead of a pass over the eggs.
"""

import sys
import time
from array import array
from dataclasses import dataclass

from .flow import min_separating_cut
from .graphs import INF, InputFormatError, _bits, _content_rows, enumerate_connected_subsets
from .invariants import component_independence_number, restricted_edge_connectivity


class ScrambleFileError(InputFormatError):
    pass


@dataclass(frozen=True, eq=False)
class Scramble:
    """Eggs stored deduplicated and sorted by ascending vertex tuple;
    ``masks[i]`` is the vertex bitmask of ``eggs[i]``."""

    graph: object
    eggs: tuple
    masks: tuple

    def __len__(self):
        return len(self.eggs)


def _canonical(G, masks):
    """The scramble on G with the given validated egg bitmasks, deduplicated
    and sorted by ascending vertex tuple."""
    masks = sorted(set(masks), key=lambda mask: tuple(_bits(mask)))
    return Scramble(G, tuple(frozenset(_bits(mask)) for mask in masks), tuple(masks))


def make_scramble(G, eggs):
    """Validate eggs against G (nonempty, in range, connected) and build
    the canonical scramble."""
    masks = []
    for egg in eggs:
        mask = G._vertex_mask(egg)
        if not mask:
            raise ValueError("eggs must be nonempty")
        if not G._mask_connected(mask):
            raise ValueError(f"egg {sorted(egg)} does not induce a connected subgraph")
        masks.append(mask)
    return _canonical(G, masks)


def uniform_scramble(G, k):
    """The scramble whose eggs are all connected k-vertex subsets."""
    eggs = tuple(enumerate_connected_subsets(G, k))
    return Scramble(G, eggs, tuple(sum(1 << v for v in egg) for egg in eggs))


def parse_scramble(text, G):
    """One egg per line as whitespace-separated vertex indices; ``#``
    lines are comments.  Eggs are validated against G on load."""
    masks = []
    for lineno, tokens in _content_rows(text, ScrambleFileError):
        try:
            vertices = [int(tok) for tok in tokens]
        except ValueError:
            raise ScrambleFileError("egg line must hold integers", lineno) from None
        if len(set(vertices)) != len(vertices):
            raise ScrambleFileError("repeated vertex in egg", lineno)
        mask = 0
        for v in vertices:
            if not 0 <= v < G.n:
                raise ScrambleFileError(f"vertex {v} out of range", lineno)
            mask |= 1 << v
        if not G._mask_connected(mask):
            raise ScrambleFileError("egg does not induce a connected subgraph", lineno)
        masks.append(mask)
    return _canonical(G, masks)


# -- hitting number ------------------------------------------------------


@dataclass
class HittingSearchResult:
    """Outcome of the iterative-deepening hitting search.

    ``proved_lower`` always holds (the hitting number is at least this);
    ``optimum``/``witness`` are set when the search finished.
    """

    proved_lower: int
    optimum: object
    witness: object
    complete: bool
    elapsed: float
    nodes: int


class _Deadline(Exception):
    pass


_WORD = (1 << 64) - 1
# _BINARY_DIGITS[t] spells a byte as b"1" where its bit t is set, else b"0"
_BINARY_DIGITS = tuple(bytes(0x31 if b >> t & 1 else 0x30 for b in range(256)) for t in range(8))


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


def hitting_search(S, target=None, budget=None, progress=None):
    """Prove lower bounds on the hitting number until the optimum is
    found, ``target`` is reached, or ``budget`` seconds run out.

    Each decision level branches on the uncovered egg with the fewest
    allowed vertices, lowest index first; a greedy packing of disjoint
    uncovered eggs prunes subtrees that cannot fit the size cap.

    Sets of eggs are bitmasks over egg indices, and the incidence
    ``inc[v]`` (the eggs containing vertex v) is built once per call, so
    covering, packing and banning a vertex are big-integer operations
    rather than scans over the eggs.  Each egg's count of allowed
    (unbanned) vertices is kept bit-sliced: it starts at the egg sizes,
    banning v subtracts ``inc[v]`` with borrow, and the branching egg is
    found in one pass over the slices.
    """
    if not S.eggs:
        raise ValueError("empty scramble")
    start = time.monotonic()
    deadline = None if budget is None else start + budget
    masks = S.masks
    n = S.graph.n
    inc = _incidence(masks, n)
    every = (1 << len(masks)) - 1
    outside = [every ^ row for row in inc]

    def greedy_cover():
        chosen = []
        uncovered = every
        while uncovered:
            pick = max(range(n), key=lambda v: (uncovered & inc[v]).bit_count())
            if not uncovered & inc[pick]:
                raise ValueError("eggs must be nonempty")
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

    greedy = greedy_cover()
    upper = len(greedy)
    sizes = _sliced_sum(inc)
    nodes = [0]
    ping = [start + 5.0]

    def decide(size_cap):
        """A hitting set of size <= size_cap, or None if none exists."""

        def walk(uncovered, banned, counts, chosen):
            nodes[0] += 1
            if deadline is not None or progress is not None:
                now = time.monotonic()
                if deadline is not None and now > deadline:
                    raise _Deadline
                if progress is not None and now >= ping[0]:
                    ping[0] = now + 5.0
                    progress(
                        f"searching for size {size_cap}: {nodes[0]} nodes, "
                        f"{now - start:.0f}s"
                    )
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
    optimum = None
    witness = None
    complete = False
    try:
        while True:
            if target is not None and proved >= target:
                break
            if proved >= upper:
                optimum = upper
                witness = frozenset(greedy)
                complete = True
                break
            hit = decide(proved)
            if hit is not None:
                optimum = proved
                witness = frozenset(hit)
                complete = True
                break
            proved += 1
            if progress is not None:
                progress(
                    f"no hitting set of size {proved - 1}: number is >= {proved} "
                    f"({nodes[0]} nodes, {time.monotonic() - start:.1f}s)"
                )
    except _Deadline:
        pass
    return HittingSearchResult(
        proved_lower=proved,
        optimum=optimum,
        witness=witness,
        complete=complete,
        elapsed=time.monotonic() - start,
        nodes=nodes[0],
    )


def hitting_number(S):
    """Smallest number of vertices meeting every egg."""
    return hitting_search(S).optimum


def minimum_hitting_set(S):
    """A smallest vertex set meeting every egg."""
    return hitting_search(S).witness


# -- egg cuts and orders -------------------------------------------------


def _disjoint_pairs(S):
    """Yield the index pairs i < j of disjoint eggs in ascending order."""
    if not S.eggs:
        raise ValueError("empty scramble")
    masks = S.masks
    for i, a in enumerate(masks):
        for j in range(i + 1, len(masks)):
            if not a & masks[j]:
                yield i, j


def has_finite_egg_cut(S):
    """Whether two disjoint eggs exist; returns (flag, witness pair).

    Only a split with whole eggs on both sides counts as an egg cut, so
    pairwise-overlapping scrambles have no finite one.
    """
    for i, j in _disjoint_pairs(S):
        return True, (S.eggs[i], S.eggs[j])
    return False, None


def egg_cut_number(S):
    """Minimum edges crossing any split that leaves whole eggs on both
    sides; INF when no two eggs are disjoint.

    Runs the two-set max flow over all disjoint egg pairs, pruning each
    flow at the best cut seen so far.
    """
    G = S.graph
    best = INF
    for i, j in _disjoint_pairs(S):
        limit = None if best == INF else best
        cut = min_separating_cut(G, S.eggs[i], S.eggs[j], limit=limit)
        if cut < best:
            best = cut
    return best


def scramble_order(S):
    """min(hitting number, egg-cut number), both computed from the eggs."""
    return order_with_egg_cut(S, egg_cut_number(S))


def order_with_egg_cut(S, e):
    """min(hitting number, e) for a scramble whose egg-cut number is e.

    When e is finite the hitting search only needs to reach it as a
    lower bound, so the search is capped there.
    """
    if e == INF:
        return hitting_number(S)
    result = hitting_search(S, target=e)
    if result.optimum is not None:
        return min(result.optimum, e)
    return e


def uniform_order_via_invariants(G, k):
    """Order of the uniform k-scramble computed from graph invariants
    alone: min of the k-restricted edge connectivity and n minus the
    (k-1)-component independence number."""
    if not 1 <= k <= G.n:
        raise ValueError(f"egg size {k} out of range")
    if not G.is_connected():
        raise ValueError("graph must be connected")
    lam = restricted_edge_connectivity(G, k)
    alpha = component_independence_number(G, k - 1)
    return min(lam, G.n - alpha)
