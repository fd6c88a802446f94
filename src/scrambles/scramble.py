"""Scrambles: collections of connected vertex sets (eggs) on a shared
graph, with their hitting numbers, egg-cut numbers, and orders.

The hitting search runs as iterative deepening on the answer.  For each
candidate size s it solves the decision problem "is there a hitting set
of size at most s" with a depth-capped branch and bound, so a run cut
short by a time budget still ends with a proven lower bound.
"""

import time
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


def hitting_search(S, target=None, budget=None, progress=None):
    """Prove lower bounds on the hitting number until the optimum is
    found, ``target`` is reached, or ``budget`` seconds run out.

    Each decision level branches on the uncovered egg with the fewest
    allowed vertices; a greedy packing of disjoint uncovered eggs prunes
    subtrees that cannot fit the size cap.
    """
    if not S.eggs:
        raise ValueError("empty scramble")
    start = time.monotonic()
    deadline = None if budget is None else start + budget
    masks = S.masks
    all_idx = list(range(len(masks)))

    def greedy_cover():
        chosen = []
        uncovered = all_idx
        while uncovered:
            counts = {}
            for i in uncovered:
                for v in _bits(masks[i]):
                    counts[v] = counts.get(v, 0) + 1
            pick = max(sorted(counts), key=counts.get)
            chosen.append(pick)
            bit = 1 << pick
            uncovered = [i for i in uncovered if not masks[i] & bit]
        return chosen

    def packing_bound(indices, banned):
        packed = 0
        count = 0
        for i in indices:
            cands = masks[i] & ~banned
            if cands and not cands & packed:
                packed |= cands
                count += 1
        return count

    greedy = greedy_cover()
    upper = len(greedy)
    nodes = [0]
    ping = [start + 5.0]

    def decide(size_cap):
        """A hitting set of size <= size_cap, or None if none exists."""

        def walk(uncovered, banned, chosen):
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
            if len(chosen) == size_cap:
                return None
            pick_cands = 0
            pick_count = None
            packed = 0
            bound = 0
            for i in uncovered:
                cands = masks[i] & ~banned
                cnt = cands.bit_count()
                if cnt == 0:
                    return None
                if pick_count is None or cnt < pick_count:
                    pick_count, pick_cands = cnt, cands
                if not cands & packed:
                    packed |= cands
                    bound += 1
            if len(chosen) + bound > size_cap:
                return None
            local_ban = banned
            cands = pick_cands
            while cands:
                vbit = cands & -cands
                cands ^= vbit
                chosen.append(vbit.bit_length() - 1)
                hit = walk([i for i in uncovered if not masks[i] & vbit], local_ban, chosen)
                if hit is not None:
                    return hit
                chosen.pop()
                local_ban |= vbit
            return None

        return walk(all_idx, 0, [])

    proved = max(packing_bound(all_idx, 0), 1)
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
    """min(hitting number, egg-cut number).

    When the egg-cut number is finite the hitting search only needs to
    reach it as a lower bound, so the search is capped there.
    """
    e = egg_cut_number(S)
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
