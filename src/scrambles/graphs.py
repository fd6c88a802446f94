"""Multigraphs on dense integer vertices, named generators, and the
structural queries shared by the cut, invariant, and chip-firing layers.

Vertices of an n-vertex graph are always 0..n-1.  Parallel edges are
stored as integer multiplicities on unordered pairs; self-loops are
rejected everywhere.  Instances are treated as immutable after
construction, so values can be shared freely.

Counts that may be infinite (girth of a forest, connectivity of a graph
that cannot be split) use the float ``INF`` sentinel; every finite count
is a plain int.
"""

INF = float("inf")

# Vertex sets are int bitmasks; documents may declare, and generate()
# may build, at most this many.
MAX_VERTICES = 64


def fmt_count(value):
    """Format a possibly-infinite count for text output."""
    return "inf" if value == INF else str(int(value))


def count_to_json(value):
    """Tagged JSON form of a possibly-infinite count."""
    if value == INF:
        return {"finite": False, "value": None}
    return {"finite": True, "value": int(value)}


class InputFormatError(ValueError):
    """Malformed input document; carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EdgeListError(InputFormatError):
    pass


def _content_rows(text, error):
    r"""Yield (1-based line number, tokens) for every line that is neither
    blank nor a comment, a line whose first token starts with ``#``;
    raise ``error`` when there is none.

    Lines end at ``\n``, ``\r\n`` or ``\r`` only: the other breaks of
    ``str.splitlines`` (form feed, ``\x1c``, ``\u2028`` and the like)
    are whitespace to ``str.split``, so they stay inside their line.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    empty = True
    for lineno, line in enumerate(text.split("\n"), start=1):
        tokens = line.split()
        if tokens and tokens[0][0] != "#":
            empty = False
            yield lineno, tokens
    if empty:
        raise error("no content lines")


def _bits(mask):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Multigraph:
    """Undirected multigraph with integer edge multiplicities.

    Built from an iterable of endpoint pairs; repeating a pair raises its
    multiplicity.  Adjacency is stored once per vertex in two forms,
    each read by the loops it suits: ``_pairs[v]``, a tuple of
    ``(neighbour, multiplicity)`` pairs in ascending neighbour order, and
    ``_mask[v]``, the bitmask of v's neighbours.  Every iteration over
    the graph is deterministic.
    """

    __slots__ = ("n", "_pairs", "_mask", "_val", "_edge_count")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [{} for _ in range(n)]
        for pair in edges:
            u, v = pair
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u][v] = adj[u].get(v, 0) + 1
            adj[v][u] = adj[v].get(u, 0) + 1
        self.n = n
        self._pairs = tuple(tuple(sorted(d.items())) for d in adj)
        self._mask = [sum(1 << w for w in d) for d in adj]
        self._val = tuple(sum(d.values()) for d in adj)
        self._edge_count = sum(self._val) // 2

    # -- basic queries -------------------------------------------------

    @property
    def edge_count(self):
        """Number of edges counted with multiplicity."""
        return self._edge_count

    def mult(self, u, v):
        """Multiplicity of the edge class between u and v (0 if absent)."""
        self._check_vertex(u)
        self._check_vertex(v)
        return next((m for w, m in self._pairs[u] if w == v), 0)

    def neighbors(self, v):
        """Neighbours of v in ascending order."""
        self._check_vertex(v)
        return tuple(_bits(self._mask[v]))

    def valence(self, v):
        """Number of edge endpoints at v, counting multiplicity."""
        self._check_vertex(v)
        return self._val[v]

    def min_valence(self):
        self._check_nonempty()
        return min(self._val)

    def edges(self):
        """Yield (u, v, multiplicity) with u < v, in ascending order."""
        for u, pairs in enumerate(self._pairs):
            for v, m in pairs:
                if u < v:
                    yield u, v, m

    def edge_list(self):
        """All edges as endpoint pairs, parallel edges repeated."""
        out = []
        for u, v, m in self.edges():
            out.extend([(u, v)] * m)
        return out

    def is_simple(self):
        return all(m == 1 for _, _, m in self.edges())

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.n == other.n and self._pairs == other._pairs

    def __repr__(self):
        return f"Multigraph(n={self.n}, m={self.edge_count})"

    def _check_vertex(self, v):
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for {self.n} vertices")

    def _check_nonempty(self):
        if self.n == 0:
            raise ValueError("graph has no vertices")

    def _check_subset_size(self, k):
        if not 1 <= k <= self.n:
            raise ValueError(f"subset size {k} out of range for {self.n} vertices")

    def _check_connected(self):
        if not self.is_connected():
            raise ValueError("graph must be connected")

    def _vertex_mask(self, subset):
        mask = 0
        for v in subset:
            self._check_vertex(v)
            mask |= 1 << v
        return mask

    # -- connectivity --------------------------------------------------

    def _layers(self, start, within=-1):
        """Breadth-first layers from ``start`` inside the vertex mask
        ``within`` (all vertices by default), as bitmasks: ``start``
        alone, then each set one step further, until its component there
        is exhausted.  The graph's one frontier loop: components,
        connectivity, girth, bipartition and q-reduction order read it."""
        seen = layer = 1 << start
        while layer:
            yield layer
            grown = 0
            for v in _bits(layer):
                grown |= self._mask[v]
            layer = grown & within & ~seen
            seen |= layer

    def _component_of(self, start, within):
        """Bitmask of the component of ``start`` inside the mask
        ``within``: its breadth-first layers are disjoint, so their sum
        is their union."""
        return sum(self._layers(start, within))

    def _mask_connected(self, mask):
        if mask == 0:
            return False
        start = (mask & -mask).bit_length() - 1
        return self._component_of(start, mask) == mask

    def is_connected(self):
        if self.n <= 1:
            return True
        return self._mask_connected((1 << self.n) - 1)

    def is_connected_set(self, subset):
        """Whether the induced subgraph on ``subset`` is connected."""
        mask = self._vertex_mask(subset)
        if mask == 0:
            raise ValueError("empty vertex set")
        return self._mask_connected(mask)

    def connected_components(self, subset=None):
        """Components of the induced subgraph, ordered by smallest member.

        With ``subset`` omitted the whole vertex set is used.
        """
        if subset is None:
            mask = (1 << self.n) - 1
        else:
            mask = self._vertex_mask(subset)
        comps = []
        remaining = mask
        while remaining:
            start = (remaining & -remaining).bit_length() - 1
            comp = self._component_of(start, remaining)
            comps.append(frozenset(_bits(comp)))
            remaining &= ~comp
        return comps

    # -- edge counts across a split ------------------------------------

    def _outdegree_mask(self, mask):
        total = 0
        for v in _bits(mask):
            for w, m in self._pairs[v]:
                if not mask >> w & 1:
                    total += m
        return total

    def outdegree(self, subset):
        """Edges leaving ``subset``, counting multiplicity.

        The set must be a nonempty proper subset of the vertices.
        """
        mask = self._vertex_mask(subset)
        if mask == 0:
            raise ValueError("empty vertex set")
        if mask == (1 << self.n) - 1:
            raise ValueError("subset must be proper")
        return self._outdegree_mask(mask)

    # -- girth and bipartiteness ---------------------------------------

    def girth(self):
        """Length of a shortest cycle; a parallel pair counts as a
        2-cycle and forests have girth INF.

        Simple case: layers from each root r over the vertices from r
        up.  A vertex of layer d with two neighbours in layer d - 1
        closes a cycle of at most 2d edges, an edge inside layer d one
        of at most 2d + 1, and from the least vertex of a shortest cycle
        one of them meets its length.  A root stops once 2d >= best.
        """
        if any(m >= 2 for _, _, m in self.edges()):
            return 2
        nbr = self._mask
        best = INF
        for root in range(self.n - 2):
            prev = 0
            for depth, layer in enumerate(self._layers(root, -1 << root)):
                if 2 * depth >= best:
                    break
                for v in _bits(layer):
                    if (nbr[v] & prev).bit_count() > 1:
                        best = 2 * depth
                        break  # no vertex of this layer closes less
                    if nbr[v] & layer:
                        best = 2 * depth + 1
                prev = layer
            if best == 3:
                return 3
        return best

    def bipartition(self):
        """Two-colouring as a pair of frozensets, or None on an odd cycle.

        Each component is coloured by the parity of its breadth-first
        layers from its smallest vertex, which lands on the first side,
        so the result is deterministic.  The colouring is proper iff no
        edge joins two vertices of one side.
        """
        sides = [0, 0]
        remaining = (1 << self.n) - 1
        while remaining:
            start = (remaining & -remaining).bit_length() - 1
            for depth, layer in enumerate(self._layers(start)):
                sides[depth & 1] |= layer
                remaining ^= layer
        for side in sides:
            if any(self._mask[v] & side for v in _bits(side)):
                return None
        return frozenset(_bits(sides[0])), frozenset(_bits(sides[1]))


# -- connected subset enumeration --------------------------------------

_ONES_FIRST = str.maketrans("01", "10")  # so "1" sorts before "0"
# _BYTE_REVERSED[b] is the byte b with its eight bits in reverse order
_BYTE_REVERSED = bytes((b * 0x0202020202 & 0x010884422010) % 1023 for b in range(256))


def _binary_key(mask):
    """The mask spelled in binary from vertex 0 to its largest member,
    "1" before "0": at the first vertex where two sets differ the one
    holding it sorts first, unless the other has no member left there
    and, as a prefix, is shorter."""
    return bin(mask)[:1:-1].translate(_ONES_FIRST)


def _same_size_sorted(masks, n):
    """Masks of one size on at most n vertices in the canonical order.

    It is the descending order of the masks read with their bits
    reversed: at the first vertex where two sets differ, the one holding
    it comes first, since a set of equal size cannot be a prefix of the
    other.  The sort key reverses the bits of each byte of the
    little-endian mask.
    """
    size = (n + 7) // 8
    return sorted(
        masks, key=lambda mask: mask.to_bytes(size, "little").translate(_BYTE_REVERSED), reverse=True
    )


def _lex_sorted(masks):
    """A collection of bitmasks in the canonical order of eggs and
    connected subsets: lexicographic by ascending vertex tuple.  Masks of
    one size, as in a uniform egg file, take the byte key of
    ``_same_size_sorted``; mixed sizes need ``_binary_key``."""
    if len(set(map(int.bit_count, masks))) > 1:
        return sorted(masks, key=_binary_key)
    return _same_size_sorted(masks, max(masks, default=0).bit_length())


def enumerate_connected_subsets(G, k):
    """All connected k-vertex subsets as vertex bitmasks, each exactly
    once, sorted lexicographically by ascending vertex tuple.

    Grows sets from their minimum vertex; a candidate frontier restricted
    to unseen higher-numbered vertices guarantees uniqueness.  A node
    still ``need`` vertices short can add them only from its frontier or
    from the vertices above the root not yet seen, so it returns once
    those are fewer than ``need``; for the same reason only roots below
    n - k + 1 are tried.  A set two vertices short is completed in place,
    each frontier vertex followed by each later candidate, with no call
    per set.

    All sets have k vertices, so ``_same_size_sorted`` sorts them,
    with no check of their sizes.
    """
    n = G.n
    G._check_subset_size(k)
    nbr = G._mask
    found = []
    append = found.append

    def extend(sub, need, ext, seen):
        unseen = (above & ~seen).bit_count()
        while ext:
            if ext.bit_count() + unseen < need:
                return
            wbit = ext & -ext
            ext ^= wbit
            fresh = nbr[wbit.bit_length() - 1] & above & ~seen
            if need == 2:
                sub2 = sub | wbit
                last = ext | fresh
                while last:
                    xbit = last & -last
                    last ^= xbit
                    append(sub2 | xbit)
            else:
                extend(sub | wbit, need - 1, ext | fresh, seen | fresh)

    for root in range(n - k + 1):
        above = (1 << n) - (2 << root)
        sub0 = 1 << root
        ext0 = nbr[root] & above
        if k == 1:
            append(sub0)
        elif k == 2:
            while ext0:
                wbit = ext0 & -ext0
                ext0 ^= wbit
                append(sub0 | wbit)
        else:
            extend(sub0, k - 1, ext0, sub0 | ext0)

    return _same_size_sorted(found, n)


# -- edge-list documents ------------------------------------------------


def parse_edge_list(text):
    """Parse an edge-list document into a Multigraph.

    Line 1 holds ``n m``; the next m lines hold one ``u v`` pair each.
    Repeated pairs raise multiplicity; n is at most ``MAX_VERTICES``.
    Blank lines and lines starting with ``#`` are ignored.  Errors carry
    1-based line numbers.
    """
    rows = list(_content_rows(text, EdgeListError))
    head_line, head = rows[0]
    if len(head) != 2:
        raise EdgeListError("header must be 'n m'", head_line)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise EdgeListError("header must hold two integers", head_line) from None
    if n < 0 or m < 0:
        raise EdgeListError("vertex and edge counts must be non-negative", head_line)
    if n > MAX_VERTICES:
        raise EdgeListError(f"at most {MAX_VERTICES} vertices are supported", head_line)

    body = rows[1:]
    if len(body) > m:
        raise EdgeListError(f"expected {m} edge lines, found more", body[m][0])
    if len(body) < m:
        raise EdgeListError(f"expected {m} edge lines, found {len(body)}")

    edges = []
    for lineno, tokens in body:
        if len(tokens) != 2:
            raise EdgeListError("edge line must hold two integers", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError("edge line must hold two integers", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(f"edge ({u}, {v}) out of range", lineno)
        if u == v:
            raise EdgeListError(f"self-loop at vertex {u}", lineno)
        edges.append((u, v))
    return Multigraph(n, edges)


def format_edge_list(G):
    """Edge-list document for G; parses back to an equal graph."""
    lines = [f"{G.n} {G.edge_count}"]
    for u, v in G.edge_list():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


# -- named generators ----------------------------------------------------


def hypercube(d):
    """d-dimensional hypercube; vertex i is the length-d binary string of i."""
    if d < 0:
        raise ValueError("hypercube dimension must be non-negative")
    n = 1 << d
    edges = [(v, v ^ (1 << i)) for v in range(n) for i in range(d) if v < v ^ (1 << i)]
    return Multigraph(n, edges)


def folded_cube(d):
    """Hypercube of dimension d with an edge added between antipodes."""
    if d < 1:
        raise ValueError("folded cube dimension must be at least 1")
    n = 1 << d
    full = n - 1
    edges = [(v, v ^ (1 << i)) for v in range(n) for i in range(d) if v < v ^ (1 << i)]
    edges.extend((v, v ^ full) for v in range(n) if v < v ^ full)
    return Multigraph(n, edges)


def crown(m):
    """Complete bipartite graph on m+m vertices minus a perfect matching.

    Vertices 0..m-1 form the first side, m..2m-1 the second; i and m+j
    are adjacent exactly when i != j.
    """
    if m < 3:
        raise ValueError("crown parameter must be at least 3")
    edges = [(i, m + j) for i in range(m) for j in range(m) if i != j]
    return Multigraph(2 * m, edges)


def complete_bipartite(a, b):
    if a < 1 or b < 1:
        raise ValueError("both sides must be nonempty")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Multigraph(a + b, edges)


def complete_graph(n):
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Multigraph(n, edges)


def cycle_graph(n):
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Multigraph(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n):
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Multigraph(n, [(v, v + 1) for v in range(n - 1)])


_HERSCHEL_EDGES = (
    (0, 2), (0, 3), (0, 4),
    (1, 2), (1, 3), (1, 5),
    (2, 6), (2, 7),
    (3, 8), (3, 9),
    (4, 6), (4, 8),
    (5, 7), (5, 9),
    (6, 10), (7, 10), (8, 10), (9, 10),
)


def herschel_graph():
    """The 11-vertex, 18-edge bipartite polyhedral graph with parts of
    size 6 and 5; eight vertices have valence 3 and three have valence 4.
    """
    return Multigraph(11, _HERSCHEL_EDGES)


# family -> (generator, parameter count, whether the parameters give more
# than MAX_VERTICES vertices); the cubes compare d with 6 = log2(64)
_FAMILIES = {
    "hypercube": (hypercube, 1, lambda d: d > 6),
    "folded-cube": (folded_cube, 1, lambda d: d > 6),
    "crown": (crown, 1, lambda m: 2 * m > MAX_VERTICES),
    "complete-bipartite": (complete_bipartite, 2, lambda a, b: a + b > MAX_VERTICES),
    "complete": (complete_graph, 1, lambda n: n > MAX_VERTICES),
    "cycle": (cycle_graph, 1, lambda n: n > MAX_VERTICES),
    "path": (path_graph, 1, lambda n: n > MAX_VERTICES),
    "herschel": (herschel_graph, 0, lambda: False),
}


def generate(family, params=()):
    """Build a named graph; ``family`` is one of the generator names.
    Parameters that give more than ``MAX_VERTICES`` vertices, which no
    edge list may declare, are refused before anything is built."""
    if family not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown family {family!r} (known: {known})")
    fn, arity, too_large = _FAMILIES[family]
    params = tuple(params)
    if len(params) != arity:
        raise ValueError(f"family {family!r} takes {arity} parameter(s), got {len(params)}")
    if too_large(*params):
        raise ValueError(f"family {family!r} would have more than {MAX_VERTICES} vertices")
    return fn(*params)


def random_connected_multigraph(rng, n, extra_edges=0, allow_parallel=False):
    """Seeded random connected graph: a random spanning tree plus
    ``extra_edges`` attempts at additional random pairs.

    With ``allow_parallel`` the extra pairs may duplicate existing edge
    classes; otherwise duplicates are skipped.  Deterministic for a given
    ``random.Random`` state.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    present = {(min(u, v), max(u, v)) for u, v in edges}
    for _ in range(extra_edges):
        if n < 2:
            break
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if not allow_parallel and key in present:
            continue
        present.add(key)
        edges.append(key)
    return Multigraph(n, edges)
