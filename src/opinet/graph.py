"""Community graphs: planted-partition generation and bridging.

The generator follows the usual planted-partition recipe: every node draws a
target degree near the requested mean, declares a share of its stubs
intra-community according to the mixing parameter mu, and the stub pools are
randomly matched into simple undirected edges.  Realized degrees track the
targets approximately; self loops and duplicate pairs are rejected during
matching, leftover stubs are dropped after a few repair rounds.  Each
matching round is a whole-array pass over its pool; the connected-component
labelling and the bridge merge pass over the edges a chunk at a time.

A graph is its lexicographically sorted edge list; the micro dynamics
accumulate over the edges in that order, so a seed fixes the graph and the
round-off of every run on it.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.random import default_rng

from .errors import ConfigError, check_integer

_MATCH_ROUNDS = 8


@dataclass
class GraphConfig:
    """Parameters for generate_community_graph."""

    n_nodes: int
    n_groups: int = 1
    mean_degree: float = 10.0
    mixing_mu: float = 0.1
    seed: int = 0

    def community_sizes(self):
        """Equal communities; the n_nodes % n_groups extra nodes go to the
        first ones."""
        q, r = divmod(self.n_nodes, self.n_groups)
        return [q + 1] * r + [q] * (self.n_groups - r)

    def validate(self):
        for key in ("n_nodes", "n_groups", "seed"):
            check_integer("graph." + key, getattr(self, key))
        if self.seed < 0:
            raise ConfigError("graph.seed: must be >= 0")
        if self.n_nodes < 2:
            raise ConfigError("graph.n_nodes: need at least two nodes")
        if self.n_groups < 1:
            raise ConfigError("graph.n_groups: need at least one community")
        if self.n_groups > self.n_nodes:
            raise ConfigError("graph.n_groups: more communities than nodes")
        if not (0.0 <= self.mixing_mu <= 1.0):
            raise ConfigError("graph.mixing_mu: must lie in [0, 1]")
        if not np.isfinite(self.mean_degree) or self.mean_degree <= 0:
            raise ConfigError("graph.mean_degree: must be positive and finite")
        if self.mean_degree >= self.n_nodes - 1:
            raise ConfigError("graph.mean_degree: must be below n_nodes - 1")
        # a community must be able to host its members' intra-community stubs
        smallest = self.n_nodes // self.n_groups
        intra_target = (1.0 - self.mixing_mu) * self.mean_degree
        if intra_target >= smallest:
            raise ConfigError(
                "graph: community of size %d cannot host intra-community degree "
                "target %.3g" % (smallest, intra_target))


@dataclass(eq=False)
class CommunityGraph:
    """Simple undirected graph with a community label per node.

    edges is an (m, 2) int array with i < j on each row, rows unique and
    lexicographically sorted, held column-major: tail and head are views
    of its two columns, each contiguous.  community holds labels in
    1..n_groups.  The dynamics accumulate over the edges in this order,
    which pins their round-off and keeps runs bit-reproducible.

    On its first micro step the graph builds the neighbour rows that the
    step sums along (see _jagged_rows) and keeps them: an index of
    2 n_edges int32 node numbers, each node's two places in the sums, and
    the node-sized sums and bounded gather buffer that every step writes.
    So two threads must not step on one graph at once.
    """

    n_nodes: int
    edges: np.ndarray
    community: np.ndarray
    degrees: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = int(self.n_nodes)
        e = np.asfortranarray(np.asarray(self.edges, dtype=np.int64)
                              .reshape(-1, 2))
        self.edges = e
        self.community = np.asarray(self.community, dtype=np.int64)
        if self.community.shape != (n,):
            raise ConfigError("graph: community labels must cover every node")
        if self.community.size and self.community.min() < 1:
            raise ConfigError("graph: community labels start at 1")
        if e.size:
            if e.min() < 0 or e.max() >= n:
                raise ConfigError("graph: edge endpoint out of range")
            t, h = self.tail, self.head
            if np.any(t >= h):
                raise ConfigError("graph: edges must satisfy i < j")
            # adjacent rows, compared with boolean temporaries only: the
            # tails must not fall, nor the heads under an equal tail
            tie = t[1:] == t[:-1]
            if np.any(t[1:] < t[:-1]) or np.any(tie & (h[1:] < h[:-1])):
                raise ConfigError("graph: edges must be lexicographically sorted")
            if np.any(tie & (h[1:] == h[:-1])):
                raise ConfigError("graph: duplicate edge")
        self.degrees = np.bincount(e.ravel(order="K"),
                                   minlength=n).astype(np.int64)

    @property
    def tail(self):
        return self.edges[:, 0]

    @property
    def head(self):
        return self.edges[:, 1]

    # no run step reads this; perfbench/child.py counts micro work by its
    # size, one entry per half-edge
    @cached_property
    def adj_heads(self):
        return np.repeat(np.arange(self.n_nodes, dtype=np.int64), self.degrees)

    @cached_property
    def _neighbour_rows(self):
        return _jagged_rows(self)

    # the degrees and the micro step's divisor max(degree, 1), held as
    # floats so a step or a record takes neither an integer max nor a
    # mixed-type product or divide
    @cached_property
    def _degree_float(self):
        return self.degrees.astype(float)

    @cached_property
    def _degree_divisor(self):
        return np.maximum(self._degree_float, 1.0)

    @property
    def n_groups(self):
        return int(self.community.max()) if self.community.size else 0

    @property
    def n_edges(self):
        return int(self.edges.shape[0])


_ROW_CHUNK = 1 << 14   # index entries per gather of the micro step


def _jagged_rows(graph):
    """The micro step's neighbour sums in jagged-diagonal storage (Saad
    1989): (chunks, sums, at_tail, at_head).

    Slot i < N lists the heads of the edges with tail i and slot N + i the
    tails of the edges with head i, each in edge order.  The slots, ranked
    by falling length (stably), form the rows: row r holds the r-th entry
    of every slot longer than r, in rank order, so it adds into a prefix
    of sums, which holds one sum per nonempty slot and a last entry that
    stays 0.0.  The index holds the rows one after another; chunks cuts it
    into pieces of _ROW_CHUNK entries, each (its index, its gather buffer,
    adds), and adds, one per row piece, is (gathered, prior, into) for
    np.add(gathered, prior, out=into).  Row 0's prior is 0.0 and every
    later row's is its own prefix of sums, so each slot sums from 0.0 in
    edge order, as np.bincount does.  at_tail and at_head give each node's
    two slots' places in sums, the last entry for an empty slot.  The
    index holds int32 node numbers (int64 from 2^31 nodes on): half the
    memory, for a cast of each chunk to intp as np.take reads it.

    The index is built a chunk of edges at a time: a stable sort of the
    chunk's slots keeps each slot's entries in edge order, and seen counts
    the entries each slot got from earlier chunks.
    """
    n, tail, head = graph.n_nodes, graph.tail, graph.head
    counts = np.concatenate([np.bincount(tail, minlength=n),
                             np.bincount(head, minlength=n)])
    rank = np.empty(2 * n, dtype=np.int64)
    rank[np.argsort(-counts, kind="stable")] = np.arange(2 * n)
    # longer[r] slots are longer than r; row r starts at offsets[r]
    longer = 2 * n - np.cumsum(np.bincount(counts))[:-1]
    offsets = np.cumsum(longer) - longer
    del counts
    ends = np.empty(2 * graph.n_edges,
                    dtype=np.int32 if n <= 2 ** 31 else np.int64)
    seen = np.zeros(2 * n, dtype=np.int64)
    for lo in range(0, graph.n_edges, _ROW_CHUNK):
        part = slice(lo, lo + _ROW_CHUNK)
        slot = np.concatenate([tail[part], head[part] + n])
        by_slot = np.argsort(slot, kind="stable")
        slot = slot[by_slot]
        first = np.flatnonzero(_run_starts(slot))
        lengths = np.diff(first, append=slot.size)
        entry = np.arange(slot.size) - np.repeat(first, lengths)
        entry += seen[slot]
        seen[slot[first]] += lengths
        ends[offsets[entry] + rank[slot]] = np.concatenate(
            [head[part], tail[part]])[by_slot]
    del seen
    width = int(longer[0]) if longer.size else 0
    sums = np.zeros(width + 1)
    np.minimum(rank, width, out=rank)
    gathered = np.empty(min(_ROW_CHUNK, ends.size))
    offsets, longer = offsets.tolist(), longer.tolist()
    chunks, r = [], 0
    for lo in range(0, ends.size, _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, ends.size)
        adds = []
        while r < len(longer) and offsets[r] < hi:
            start, stop = max(lo, offsets[r]), min(hi, offsets[r] + longer[r])
            into = sums[start - offsets[r]:stop - offsets[r]]
            adds.append((gathered[start - lo:stop - lo],
                         into if r else 0.0, into))
            if stop < offsets[r] + longer[r]:
                break   # row r goes on in the next chunk
            r += 1
        chunks.append((ends[lo:hi], gathered[:hi - lo], adds))
    return chunks, sums, rank[:n], rank[n:]


def _from_keys(n, keys, community):
    # the graph of sorted unique edge keys i n + j, i < j; divmod writes
    # straight into the two columns of the column-major edge list
    edges = np.empty((keys.size, 2), dtype=np.int64, order="F")
    np.divmod(keys, n, out=(edges[:, 0], edges[:, 1]))
    return CommunityGraph(n, edges, community)


def _pair_keys(pairs, n):
    # i n + j of each row (u, v) of pairs, i = min(u, v), j = max(u, v)
    u, v = pairs[:, 0], pairs[:, 1]
    keys = np.minimum(u, v)
    keys *= n
    keys += np.maximum(u, v)
    return keys


def _run_starts(keys):
    # True at the first entry of each run of equal values of sorted keys
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _in_sorted(table, x):
    # which entries of x occur in the sorted, nonempty array table
    return np.take(table, np.searchsorted(table, x), mode="clip") == x


def _greedy_match(stubs, rng, n, ok_pair=None):
    """Randomly pair stubs into edges; returns their keys, sorted.

    The key of the edge (i, j), i < j, is i n + j.  Each round shuffles the
    pool and takes consecutive stubs as pairs; a pair is rejected if it is
    a self loop, fails ok_pair(u, v) (arrays in, bool array out), repeats
    an edge of an earlier round or repeats an earlier pair of the round.
    The odd stub and the rejected pairs, in order, form the next round's
    pool; whatever is left after _MATCH_ROUNDS rounds is dropped.

    A call checks repeats against its own edges only, which is exact for
    the generator's calls: an intra-community pair joins two members of
    one community, so it can only repeat an edge of that community's call,
    and an inter-community pair can only repeat an inter-community edge.
    So no call holds or copies another call's keys, and a round holds the
    pool and a few pool-sized arrays, each dropped after its last use.
    """
    pool = np.asarray(stubs, dtype=np.int64)
    keys = np.empty(0, dtype=np.int64)
    for _ in range(_MATCH_ROUNDS):
        if pool.size < 2:
            break
        rng.shuffle(pool)
        odd = pool.size % 2
        pairs = pool[:pool.size - odd].reshape(-1, 2)
        cand = _pair_keys(pairs, n)
        ok = pairs[:, 0] != pairs[:, 1]
        if ok_pair is not None:
            ok &= ok_pair(pairs[:, 0], pairs[:, 1])
        if keys.size:
            ok &= ~_in_sorted(keys, cand)
        # the accepted pairs' keys, sorted, after the rejected pairs' -1s;
        # a key drawn more than once is kept once, and repeats holds it
        # once per extra draw; only the first pair that drew it is accepted
        drawn = np.where(ok, cand, -1)
        drawn.sort()
        drawn = drawn[np.searchsorted(drawn, 0):]
        first = _run_starts(drawn)
        fresh = drawn[first]
        repeats = drawn[~first]
        del drawn, first
        keys = (np.insert(keys, np.searchsorted(keys, fresh), fresh)
                if keys.size else fresh)
        rest = ~ok
        if repeats.size:
            hit = np.flatnonzero(ok & _in_sorted(repeats, cand))
            rest[hit] = True
            rest[hit[np.unique(cand[hit], return_index=True)[1]]] = False
        del cand, ok
        nxt = np.empty(odd + 2 * int(np.count_nonzero(rest)), dtype=np.int64)
        nxt[:odd] = pool[pool.size - odd:]
        np.compress(rest, pairs, axis=0, out=nxt[odd:].reshape(-1, 2))
        pool = nxt
    return keys


def generate_community_graph(config):
    """Planted-partition generator; deterministic given config.seed."""
    config.validate()
    rng = default_rng(config.seed)
    n = config.n_nodes
    sizes = config.community_sizes()
    community = np.repeat(np.arange(1, config.n_groups + 1), sizes)

    target = rng.poisson(config.mean_degree, size=n)
    np.clip(target, 1, n - 1, out=target)
    n_intra = rng.binomial(target, 1.0 - config.mixing_mu)
    n_inter = target - n_intra
    del target

    # each call's edges are disjoint from every other call's, so the
    # parts are sorted once, together
    parts = []
    for c in range(1, config.n_groups + 1):
        members = np.flatnonzero(community == c)
        parts.append(_greedy_match(np.repeat(members, n_intra[members]), rng,
                                   n))
    del n_intra
    parts.append(_greedy_match(np.repeat(np.arange(n), n_inter), rng, n,
                               lambda u, v: community[u] != community[v]))
    del n_inter
    keys = np.concatenate(parts)
    del parts
    keys.sort()
    return _from_keys(n, keys, community)


_CHUNK = 1 << 16    # edges per chunk of the component pass


def _component_labels(graph):
    """(label, count): components numbered 0.. in order of their smallest
    node, which is what ensure_connected's rng draws follow."""
    tail, head = graph.tail, graph.head
    # every node points at a smaller node of its component, or at itself;
    # each pass hooks the root of each endpoint to the other's, a chunk of
    # edges at a time into two reused buffers, then jumps to the roots,
    # until a pass finds every edge joining two equal roots.  The fixpoint
    # does not depend on the order of the hooks: the root of a component
    # is its smallest node.
    root = np.arange(graph.n_nodes, dtype=np.int64)
    rt = np.empty(min(graph.n_edges, _CHUNK), dtype=np.int64)
    rh = np.empty_like(rt)
    while True:
        done = True
        for lo in range(0, graph.n_edges, _CHUNK):
            m = min(_CHUNK, graph.n_edges - lo)
            t = np.take(root, tail[lo:lo + m], out=rt[:m])
            h = np.take(root, head[lo:lo + m], out=rh[:m])
            if not np.array_equal(t, h):
                done = False
                np.minimum.at(root, t, h)
                np.minimum.at(root, h, t)
        if done:
            break
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    # number the roots in order, then give each node its root's number
    label = np.cumsum(root == np.arange(graph.n_nodes))
    label -= 1
    return label[root], int(label[-1]) + 1 if label.size else 0


def ensure_connected(graph):
    """Bridge every stray component into the main one (one edge each).

    Idempotent on connected input.  The bridge ends are drawn from an rng
    seeded with the node count, so the result depends on the graph alone.
    A bridge joins two components, so its edge is new; the sorted bridges
    are merged into the graph's sorted edges column by column, at their
    ranks among its edge keys.  That key array is freed before the merged
    list is allocated, so it stays below the merge's own peak.
    """
    label, count = _component_labels(graph)
    if count <= 1:
        return graph
    rng = default_rng(graph.n_nodes)
    sizes = np.bincount(label)
    main = int(np.argmax(sizes))
    # the nodes grouped by component, each group ascending
    by_label = np.argsort(label, kind="stable")
    starts = np.concatenate([[0], np.cumsum(sizes)])
    pool = by_label[starts[main]:starts[main + 1]]
    bridges = []
    for c in range(count):
        if c == main:
            continue
        members = by_label[starts[c]:starts[c + 1]]
        bridges.append((members[rng.integers(members.size)],
                        pool[rng.integers(pool.size)]))
    n = graph.n_nodes
    del label, by_label, pool
    bridges = np.sort(bridges, axis=1)
    keys = bridges[:, 0] * n + bridges[:, 1]
    order = np.argsort(keys)
    bridges = bridges[order]
    # the bridges' rows in the merged list, the graph's edges in the rest;
    # the graph's keys are freed before the merged list is allocated
    graph_keys = graph.tail * n
    graph_keys += graph.head
    at = np.searchsorted(graph_keys, keys[order]) + np.arange(keys.size)
    del graph_keys
    edges = np.empty((graph.n_edges + keys.size, 2), dtype=np.int64,
                     order="F")
    old = np.ones(edges.shape[0], dtype=bool)
    old[at] = False
    for col in range(2):
        column = edges[:, col]
        column[at] = bridges[:, col]
        column[old] = graph.edges[:, col]
    return CommunityGraph(n, edges, graph.community)
