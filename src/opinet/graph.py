"""Community graphs: planted-partition generation and Laplacian diagnostics.

The generator follows the usual planted-partition recipe: every node draws a
target degree near the requested mean, declares a share of its stubs
intra-community according to the mixing parameter mu, and the stub pools are
randomly matched into simple undirected edges.  Realized degrees track the
targets approximately; self loops and duplicate pairs are rejected during
matching, leftover stubs are dropped after a few repair rounds.  Each
matching round and the connected-component labelling are whole-array
passes.

A graph is its lexicographically sorted edge list; the micro dynamics
accumulate over the edges in that order, so a seed fixes the graph and the
round-off of every run on it.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.random import default_rng

from .errors import ConfigError, SimulationError

# Dense spectral diagnostics are a desk-scale tool; refuse bigger graphs.
LAPLACIAN_NODE_CAP = 2048

_MATCH_ROUNDS = 8


@dataclass
class GraphConfig:
    """Parameters for generate_community_graph."""

    n_nodes: int
    n_groups: int = 1
    proportions: tuple = ()
    mean_degree: float = 10.0
    mixing_mu: float = 0.1
    seed: int = 0

    def community_sizes(self):
        """Apportion n_nodes across communities by largest remainder."""
        k = self.n_groups
        props = np.asarray(self.proportions if self.proportions else [1.0 / k] * k,
                           dtype=float)
        props = props / props.sum()
        quota = props * self.n_nodes
        sizes = np.floor(quota).astype(np.int64)
        short = self.n_nodes - int(sizes.sum())
        order = np.argsort(-(quota - sizes), kind="stable")
        sizes[order[:short]] += 1
        return [int(s) for s in sizes]

    def validate(self):
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
        if self.proportions:
            if len(self.proportions) != self.n_groups:
                raise ConfigError("graph.proportions: length must equal n_groups")
            if min(self.proportions) <= 0:
                raise ConfigError("graph.proportions: must be positive")
        sizes = self.community_sizes()
        if min(sizes) == 0:
            raise ConfigError("graph.proportions: a community came out empty")
        # a community must be able to host its members' intra-community stubs
        intra_target = (1.0 - self.mixing_mu) * self.mean_degree
        if intra_target >= min(sizes):
            raise ConfigError(
                "graph: community of size %d cannot host intra-community degree "
                "target %.3g" % (min(sizes), intra_target))


@dataclass(eq=False)
class CommunityGraph:
    """Simple undirected graph with a community label per node.

    edges is an (m, 2) int array with i < j on each row, rows unique and
    lexicographically sorted, held column-major: tail and head are views
    of its two columns, each contiguous.  community holds labels in
    1..n_groups.  The dynamics accumulate over the edges in this order,
    which pins their round-off and keeps runs bit-reproducible.  The micro
    step gathers its edge differences into one per-edge buffer held by
    the graph, so two threads must not step on one graph at once.
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
            if np.any(self.tail >= self.head):
                raise ConfigError("graph: edges must satisfy i < j")
            # i N + j orders the rows lexicographically, so consecutive
            # keys must strictly increase
            step = np.diff(self.tail * n + self.head)
            if np.any(step < 0):
                raise ConfigError("graph: edges must be lexicographically sorted")
            if np.any(step == 0):
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
    def _edge_scratch(self):
        return np.empty(self.n_edges)

    # the micro step's divisor max(degree, 1), held as floats so a step
    # takes neither an integer max nor a mixed-type divide
    @cached_property
    def _degree_divisor(self):
        return np.maximum(self.degrees, 1).astype(float)

    @property
    def n_groups(self):
        return int(self.community.max()) if self.community.size else 0

    @property
    def n_edges(self):
        return int(self.edges.shape[0])


def graph_from_pairs(n_nodes, pairs, community=None):
    """Build a CommunityGraph from arbitrary (i, j) pairs, canonicalizing."""
    n = int(n_nodes)
    p = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    loops = np.flatnonzero(p[:, 0] == p[:, 1])
    if loops.size:
        raise ConfigError("graph: self loop (%d, %d)" % tuple(p[loops[0]]))
    if p.size and (p.min() < 0 or p.max() >= n):
        raise ConfigError("graph: edge endpoint out of range")
    keys = np.unique(p.min(axis=1) * n + p.max(axis=1))
    if community is None:
        community = np.ones(n, dtype=np.int64)
    return CommunityGraph(n, np.stack([keys // n, keys % n]).T, community)


def _greedy_match(stubs, rng, keys, n, ok_pair=None):
    """Randomly pair stubs into new edges; returns keys with them merged in.

    keys holds the accepted edges (i, j), i < j, as sorted i n + j.  Each
    round shuffles the pool and takes consecutive stubs as pairs; a pair is
    rejected if it is a self loop, fails ok_pair(u, v) (arrays in, bool
    array out), repeats an accepted edge or repeats an earlier pair of the
    round.  The odd stub and the rejected pairs, in order, form the next
    round's pool; whatever is left after _MATCH_ROUNDS rounds is dropped.
    """
    pool = np.asarray(stubs, dtype=np.int64)
    for _ in range(_MATCH_ROUNDS):
        if pool.size < 2:
            break
        rng.shuffle(pool)
        odd = pool.size % 2
        work = pool[:pool.size - odd]
        u, v = work[0::2], work[1::2]
        cand = np.minimum(u, v) * n + np.maximum(u, v)
        ok = u != v
        if ok_pair is not None:
            ok &= ok_pair(u, v)
        if keys.size:
            at = np.minimum(np.searchsorted(keys, cand), keys.size - 1)
            ok &= keys[at] != cand
        # the first occurrence of each remaining key is accepted: the
        # least position in each run of equal sorted keys, which needs no
        # stable sort
        live = np.flatnonzero(ok)
        order = np.argsort(cand[live])
        sorted_keys = cand[live[order]]
        starts = np.flatnonzero(np.diff(sorted_keys, prepend=-1))
        fresh = sorted_keys[starts]
        keys = np.insert(keys, np.searchsorted(keys, fresh), fresh)
        rest = np.ones(cand.size, dtype=bool)
        rest[live[np.minimum.reduceat(order, starts)]] = False
        pool = np.concatenate([pool[pool.size - odd:],
                               np.stack([u[rest], v[rest]], axis=1).ravel()])
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

    keys = np.empty(0, dtype=np.int64)
    for c in range(1, config.n_groups + 1):
        members = np.flatnonzero(community == c)
        keys = _greedy_match(np.repeat(members, n_intra[members]), rng, keys,
                             n)

    keys = _greedy_match(np.repeat(np.arange(n), n_inter), rng, keys, n,
                         lambda u, v: community[u] != community[v])
    return CommunityGraph(n, np.stack([keys // n, keys % n]).T, community)


def _component_labels(graph):
    """(label, count): components numbered 0.. in order of their smallest
    node, which is what ensure_connected's rng draws follow."""
    tail, head = graph.tail, graph.head
    # every node points at a smaller node of its component, or at itself;
    # hook the root of each endpoint to the other's and jump to the roots
    # until every edge joins two equal roots
    root = np.arange(graph.n_nodes, dtype=np.int64)
    while True:
        rt, rh = root[tail], root[head]
        if np.array_equal(rt, rh):
            break
        np.minimum.at(root, rt, rh)
        np.minimum.at(root, rh, rt)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    # the root of a component is its smallest node
    _, label = np.unique(root, return_inverse=True)
    return label, int(label.max(initial=-1)) + 1


def is_connected(graph):
    return _component_labels(graph)[1] == 1


def ensure_connected(graph):
    """Bridge every stray component into the main one (one edge each).

    Idempotent on connected input.  The bridge ends are drawn from an rng
    seeded with the node count, so the result depends on the graph alone.
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
    return graph_from_pairs(graph.n_nodes,
                            np.concatenate([graph.edges, bridges]),
                            graph.community)


def measured_mixing(graph):
    """Fraction of edges whose endpoints sit in different communities."""
    if graph.n_edges == 0:
        raise ConfigError("graph: mixing undefined without edges")
    c = graph.community
    inter = c[graph.tail] != c[graph.head]
    return float(np.mean(inter))


def laplacian(graph):
    """Dense combinatorial Laplacian: diag(degrees) minus adjacency."""
    n = graph.n_nodes
    if n > LAPLACIAN_NODE_CAP:
        raise ConfigError("graph: %d nodes exceeds the dense Laplacian cap %d"
                          % (n, LAPLACIAN_NODE_CAP))
    lap = np.zeros((n, n))
    lap[graph.tail, graph.head] = -1.0
    lap[graph.head, graph.tail] = -1.0
    lap[np.arange(n), np.arange(n)] = graph.degrees
    return lap


def spectral_gap(graph):
    """Smallest nonzero Laplacian eigenvalue (0 for disconnected graphs).

    The gap is undefined below two nodes, which is refused.  A disconnected
    graph gets exactly 0 without a solve, at any size.  A connected one
    takes a dense symmetric eigensolve, refused above LAPLACIAN_NODE_CAP
    nodes; the kernel is checked explicitly: the constant vector must be
    annihilated and the bottom eigenvalue must vanish to relative
    tolerance 1e-10.
    """
    if graph.n_nodes < 2:
        raise ConfigError("graph: spectral gap needs at least two nodes")
    # the solve would give round-off of either sign for the second zero
    if _component_labels(graph)[1] > 1:
        return 0.0
    lap = laplacian(graph)
    n = graph.n_nodes
    try:
        vals = np.linalg.eigvalsh(lap)
    except np.linalg.LinAlgError as exc:
        raise SimulationError("graph: eigensolver did not converge: %s" % exc)
    scale = max(1.0, float(vals[-1]))
    if abs(float(vals[0])) > 1e-10 * scale:
        raise SimulationError("graph: bottom Laplacian eigenvalue is not 0")
    resid = np.max(np.abs(lap @ np.ones(n)))
    if resid > 1e-10 * scale:
        raise SimulationError("graph: constant vector is not in the kernel")
    return float(vals[1])
