"""Empirical measures on the opinion interval: grids, histograms, KDE.

The continuum solvers work with cell averages on a uniform grid over
[-1, 1].  This module builds that grid, turns analytic mixture densities
into cell averages, and lifts a microscopic state (opinions on a graph)
into the one-body density f and the two-body edge density g, the latter by
Gaussian product-kernel density estimation over the edge set, with the
bandwidth from Silverman's normal-reference rule.  The edge density has
one lift, by community blocks g[p, q]; the unlabeled g is its k = 1 case.
The lift sums each node's neighbour kernels over chunks of edges and
forms each chunk's kernel rows as it goes, exp(-(mid - omega)^2 /
(2 h^2)) with the constant factor left to the normalization, so it holds
no row per edge, O(E n), and no row per node, O(N n).  Its working set
is two buffers of rows and the k^2 n^2 sums, then the sums and g, once
the buffers are gone; with k labels it also holds the E-sized order of
the edges by label pair, and with one label none, as the stored order is
that order.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SimulationError

_SQRT2 = math.sqrt(2.0)

# the smallest bandwidth the lift takes, in cells: every opinion lies
# within dx / 2 of a midpoint, so an edge's product kernel peaks at no
# less than exp(-dx^2 / (4 h^2)), which stays a normal double (at least
# 2^-1022) for h >= dx / (2 sqrt(1022 ln 2)), about dx / 53.2; below it
# an edge can put no mass, or subnormal mass, on the grid
_MIN_BANDWIDTH_CELLS = 1.0 / (2.0 * math.sqrt(1022.0 * math.log(2.0)))

# cells of the tails' kernel rows a chunk of edges forms in the lift:
# 2**18 float64 cells are 2 MiB, max(1, 2**18 // n) edges per chunk
_CHUNK_CELLS = 2 ** 18

# least Gaussian mass a mixture component keeps inside [-1, 1]; rejection
# sampling takes 1 / mass draws per opinion on average, so at most 100
_MIN_IN_RANGE_MASS = 1e-2

# the most standard normals the opinion sampler draws at once; its walk
# holds a Python int per drawn value and component, and larger blocks
# sample no faster
_DRAW_BLOCK = 2 ** 10


@dataclass(eq=False)
class Grid:
    """Uniform cell grid on [-1, 1].

    edges pins the endpoints to exactly -1 and 1 so histogramming never
    leaks mass; mids is built independently from the cell index so the
    midpoint array is exactly antisymmetric about 0.  The two constructions
    may disagree by an ulp, which no consumer resolves finer than.
    """

    n_cells: int
    dx: float = field(init=False)
    edges: np.ndarray = field(init=False, repr=False)
    mids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = int(self.n_cells)
        if n < 2:
            raise ConfigError("grid: need at least two cells")
        self.n_cells = n
        self.dx = 2.0 / n
        edges = -1.0 + np.arange(n + 1) * self.dx
        edges[0] = -1.0
        edges[-1] = 1.0
        self.edges = edges
        self.mids = (np.arange(n) - (n - 1) / 2.0) * self.dx

    def difference_matrix(self, fn):
        """fn((i - j) dx) at (i, j): an operator on the midpoint differences.

        fn is evaluated once, on the 2n - 1 distinct differences, and the
        n x n matrix is a read-only view of those values, entry (i, j)
        being u[n - 1 - i + j] of u[t] = fn((n - 1 - t) dx), so it holds
        O(n) bytes.  (i - j) dx is mid_i - mid_j to within an ulp, and an
        odd fn gives an exactly antisymmetric matrix, an even one an
        exactly symmetric one.
        """
        n = self.n_cells
        u = np.asarray(fn(np.arange(n - 1, -n, -1) * self.dx), dtype=float)
        return np.lib.stride_tricks.sliding_window_view(u, n)[::-1]


@dataclass(eq=False)
class ScalarField:
    """Cell-averaged density on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_cells,):
            raise ConfigError("field: values must have one entry per cell")

    def mass(self):
        return float(self.grid.dx * self.values.sum())


@dataclass(eq=False)
class PairField:
    """Cell-averaged density on the product grid (omega, m)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = self.grid.n_cells
        if self.values.shape != (n, n):
            raise ConfigError("pair field: values must be (n_cells, n_cells)")

    def mass(self):
        return float(self.grid.dx ** 2 * self.values.sum())


@dataclass(eq=False)
class LabeledFields:
    """Community-resolved densities: f[p] one-body, g[p, q] two-body.

    Reductions over labels recover the unlabeled fields: sum_p f[p] is the
    one-body density and sum_{p,q} g[p,q] the edge density, with the joint
    g normalization carrying total mass 1.
    """

    grid: Grid
    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        n = self.grid.n_cells
        if self.f.ndim != 2 or self.f.shape[1] != n:
            raise ConfigError("labeled fields: f must be (n_groups, n_cells)")
        k = self.f.shape[0]
        if self.g.shape != (k, k, n, n):
            raise ConfigError("labeled fields: g must be (k, k, n, n)")

    @property
    def n_groups(self):
        return int(self.f.shape[0])

    def f_total(self):
        return self.f.sum(axis=0)

    def g_total(self):
        return self.g.sum(axis=(0, 1))


def _normal_cdf(x):
    # Phi(x) = erfc(-x / sqrt 2) / 2, which keeps the lower tail's relative
    # accuracy.  numpy has no erf, and on the few hundred cell edges of a
    # grid a loop over the stdlib's beats loading a package for one ufunc
    return np.array([0.5 * math.erfc(-v / _SQRT2) for v in x.tolist()])


@dataclass(frozen=True)
class MixtureSpec:
    """Per-community truncated-Gaussian mixtures on [-1, 1].

    communities[c] lists (weight, center, sigma) triples; weights are
    normalized within each community.  Sampling is by rejection against the
    untruncated Gaussian, so mass outside [-1, 1] is simply redrawn; a
    component must keep at least _MIN_IN_RANGE_MASS of its mass inside.
    """

    communities: tuple

    def __post_init__(self):
        if not self.communities:
            raise ConfigError("mixture: need at least one community")
        for comps in self.communities:
            if not comps:
                raise ConfigError("mixture: empty component list")
            for w, c, s in comps:
                name = "mixture: component %g:%g:%g" % (w, c, s)
                if not 0 < w < math.inf:
                    raise ConfigError(name + ": weight must be positive "
                                      "and finite")
                if not 0 < s < math.inf:
                    raise ConfigError(name + ": sigma must be positive "
                                      "and finite")
                if not -1.0 <= c <= 1.0:
                    raise ConfigError(name + ": center must lie in [-1, 1]")
                lo, hi = _normal_cdf(np.array([-1.0 - c, 1.0 - c]) / s)
                if not hi - lo >= _MIN_IN_RANGE_MASS:
                    raise ConfigError("%s keeps mass %.3g inside [-1, 1], "
                                      "below %g" % (name, hi - lo,
                                                    _MIN_IN_RANGE_MASS))

    @property
    def n_groups(self):
        return len(self.communities)

    @classmethod
    def three_communities(cls):
        return cls((
            ((0.6, -0.5, 0.05), (0.4, 0.25, 0.012)),
            ((1.0, 0.0, 0.012),),
            ((0.4, -0.25, 0.012), (0.6, 0.5, 0.05)),
        ))

    @classmethod
    def crossing(cls):
        # two groups whose bulk opinions swap sides as consensus forms
        return cls((
            ((0.6, -0.5, 0.05), (0.4, 0.25, 0.012)),
            ((0.4, -0.25, 0.012), (0.6, 0.5, 0.05)),
        ))

    def components(self, c):
        """Community c's (weights, centers, sigmas) as arrays; the weights
        are normalized to sum to 1."""
        weights, centers, sigmas = np.array(self.communities[c],
                                            dtype=float).T
        return weights / weights.sum(), centers, sigmas

    def community_cell_averages(self, grid, c):
        """Exact cell averages of community c's density (unit mass).

        Truncated Gaussians integrate in closed form over cells, so narrow
        components keep their mass even when sigma is below the cell width,
        where fixed-order quadrature would not.
        """
        out = np.zeros(grid.n_cells)
        for w, m, s in zip(*self.components(c)):
            z = _normal_cdf((grid.edges - m) / s)
            out += w * np.diff(z) / (z[-1] - z[0])
        return ScalarField(grid, out / grid.dx)

    def weighted_cell_averages(self, grid, shares):
        """Exact cell averages per community, row c scaled by shares[c].

        The (k, n_cells) rows are the labeled one-body density of a
        population split by the shares; their sum is cell_averages.
        """
        shares = np.asarray(shares, dtype=float)
        if shares.shape != (self.n_groups,):
            raise ConfigError("mixture: one share per community")
        return np.asarray([shares[c]
                           * self.community_cell_averages(grid, c).values
                           for c in range(self.n_groups)])

    def cell_averages(self, grid, shares):
        """Exact cell averages of the share-blended population density."""
        return ScalarField(grid,
                           self.weighted_cell_averages(grid, shares).sum(axis=0))


def _sample_truncated(picks, centers, sigmas, rng):
    # One opinion per pick, each the first of its component's draws
    # centers[k] + sigmas[k] * z to land in [-1, 1]: rng.normal(loc, scale)
    # is loc + scale * z on the next standard normal z, so this takes the
    # same normals in the same order as a scalar rejection loop and leaves
    # rng in the same state.  A block holds at most the opinions still
    # missing, since each takes at least one draw; a walk over it moves each
    # node to the next value its component accepts, and the node that finds
    # none has rejected the rest of the block.
    m = picks.size
    out = np.empty(m)
    i = 0
    while i < m:
        z = rng.standard_normal(min(m - i, _DRAW_BLOCK))
        # nxt[k][t]: the first position >= t whose value component k
        # accepts, z.size if there is none
        nxt = np.full((centers.size, z.size + 1), z.size)
        nxt[:, :-1] = np.where(
            np.abs(centers[:, None] + sigmas[:, None] * z) <= 1.0,
            np.arange(z.size), z.size)
        nxt = np.minimum.accumulate(nxt[:, ::-1], axis=1)[:, ::-1].tolist()
        t, took = 0, []
        for k in picks[i:i + z.size].tolist():
            t = nxt[k][t]
            if t == z.size:
                break
            took.append(t)
            t += 1
        done = picks[i:i + len(took)]
        out[i:i + len(took)] = centers[done] + sigmas[done] * z[took]
        i += len(took)
    return out


def sample_initial_opinions(graph, mixture, rng):
    """Draw one opinion per node from its community's mixture.

    Components are chosen by weight, then the opinion is rejection-sampled
    from the component Gaussian until it lands in [-1, 1].  Opinions and
    the final rng state equal those of one rng.normal call per draw where
    numpy forms loc + scale * z without a fused multiply-add.
    """
    if mixture.n_groups != graph.n_groups:
        raise ConfigError("mixture: community count must match the graph")
    omega = np.empty(graph.n_nodes, dtype=float)
    for c in range(mixture.n_groups):
        members = np.flatnonzero(graph.community == c + 1)
        weights, centers, sigmas = mixture.components(c)
        picks = rng.choice(weights.size, size=members.size, p=weights)
        omega[members] = _sample_truncated(picks, centers, sigmas, rng)
    return omega


def empirical_f(omega, grid):
    """Histogram density of the opinions: count / (N dx) per cell."""
    omega = np.asarray(omega, dtype=float)
    if omega.size == 0:
        raise ConfigError("empirical: no opinions to bin")
    # NaN fails the range test
    if not np.all(np.abs(omega) <= 1.0):
        raise ConfigError("empirical: opinions must lie in [-1, 1]")
    counts, _ = np.histogram(omega, bins=grid.edges)
    return ScalarField(grid, counts / (omega.size * grid.dx))


def _opinions(graph, omega):
    # the lifts' opinions as floats, one per node and all in [-1, 1]; NaN
    # fails the range test
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (graph.n_nodes,):
        raise ConfigError("empirical: need one opinion per node, got shape "
                          "%s for %d nodes" % (omega.shape, graph.n_nodes))
    if not np.all(np.abs(omega) <= 1.0):
        raise ConfigError("empirical: opinions must lie in [-1, 1]")
    return omega


def _kernel_rows(omega, grid, bandwidth):
    # the row source of the lift: rows(nodes, out) fills out, one row per
    # node, with node nodes[r]'s 1-D Gaussian kernel at the cell midpoints
    # up to its constant factor, exp(-(mid - omega)^2 / (2 h^2)), in five
    # ufunc passes; the lift's normalization to mass 1 takes the factor.
    # Subtracting before scaling keeps the round-off relative to mid -
    # omega at any h, where a*mid - a*omega would carry an error growing
    # as 1 / h.  Copying mid into out and subtracting omega in place is
    # faster than one broadcast subtract into it, for the same bits.
    if bandwidth <= 0 or not np.isfinite(bandwidth):
        raise ConfigError("kde: bandwidth must be positive and finite")
    if bandwidth < _MIN_BANDWIDTH_CELLS * grid.dx:
        raise ConfigError(
            "kde: bandwidth h = %.3g is below dx / %.1f = %.3g for the grid's "
            "dx = %.3g, so an edge's kernel could underflow on every cell"
            % (bandwidth, 1.0 / _MIN_BANDWIDTH_CELLS,
               _MIN_BANDWIDTH_CELLS * grid.dx, grid.dx))
    scale = -0.5 / bandwidth ** 2

    def rows(nodes, out):
        np.copyto(out, grid.mids)
        out -= omega[nodes, None]
        np.square(out, out=out)
        out *= scale
        np.exp(out, out=out)

    return rows


def _block_sums(graph, rows, n, labels, k):
    # s[p, q] = sum of K[i] (x) K[j] over the edges (i, j) from label p to
    # label q, in the edges' stored orientation; rows is a row source as
    # _kernel_rows returns.  The edges are stably sorted by their (label,
    # label) pair, which keeps the stored order when k = 1, so within each
    # label segment they stay sorted by head i, and each chunk of a label
    # segment splits into runs of one head (a head whose neighbours
    # straddle two chunks contributes from both).  The runs, longest first,
    # sum their tails' rows K[j] position by position: the tails' rows are
    # formed with the r-th rows of the runs longer than r next to each
    # other, and one add per position joins them to a prefix of the sums,
    # so a chunk takes as many adds as its longest run.  K[heads]^T sums
    # then joins one block s[p, q].  A chunk forms its tails' rows into one
    # buffer and its heads' rows, one per run, into a second, so no array
    # holds a row per edge or one per node; both buffers go when this
    # returns.
    if k == 1:
        by_key, sizes = None, np.array([graph.n_edges])
    else:
        keys = labels[graph.tail] * k + labels[graph.head]
        by_key = np.argsort(keys, kind="stable")
        sizes = np.bincount(keys, minlength=k * k)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    # no chunk is longer than the longest label segment; the heads' buffer
    # grows to the most runs a chunk has
    chunk = min(max(1, _CHUNK_CELLS // n), int(sizes.max()))
    tail_buf, head_buf = np.empty((chunk, n)), np.empty((0, n))
    s = np.zeros((k, k, n, n))
    for key in range(k * k):
        block, end = s[divmod(key, k)], bounds[key + 1]
        for start in range(bounds[key], end, chunk):
            part = slice(start, min(start + chunk, end))
            heads, tails = graph.edges[part if by_key is None
                                       else by_key[part]].T
            first = np.flatnonzero(np.diff(heads, prepend=-1))
            lengths = np.diff(first, append=heads.size)
            order = np.argsort(-lengths, kind="stable")
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            # longer[r] runs are longer than r; their r-th rows start at
            # offsets[r] of the tails' rows, in the order of the sums
            longer = first.size - np.cumsum(np.bincount(lengths))
            offsets = np.cumsum(longer) - longer
            at = offsets[np.arange(heads.size) - np.repeat(first, lengths)]
            picks = np.empty_like(tails)
            picks[at + np.repeat(rank, lengths)] = tails
            tail_rows = tail_buf[:heads.size]
            rows(picks, tail_rows)
            sums = tail_rows[:first.size]
            for m, o in zip(longer[1:-1].tolist(), offsets[1:-1].tolist()):
                sums[:m] += tail_rows[o:o + m]
            if first.size > head_buf.shape[0]:
                head_buf = np.empty((first.size, n))
            head_rows = head_buf[:first.size]
            rows(heads[first[order]], head_rows)
            block += head_rows.T @ sums
    return s


def _lift_g(graph, rows, grid, labels, k):
    # g[p, q] sums the product kernels of the edges from label p to label q
    # in both orientations, with one normalization to total mass 1; rows
    # is a row source as _kernel_rows returns, and labels (0 .. k - 1 per
    # node) are not read when k = 1.  g = s + s^T over the (omega, m) axes
    # is bit-symmetric: g[q, p] == g[p, q].T.
    if graph.n_edges == 0:
        raise ConfigError("kde: graph has no edges")
    s = _block_sums(graph, rows, grid.n_cells, labels, k)
    g = s + s.transpose(1, 0, 3, 2)
    total = grid.dx ** 2 * g.sum()
    if total <= 0:
        raise SimulationError("kde: estimate has no mass on the grid")
    g /= total
    return g


def empirical_g_kde(graph, omega, grid, bandwidth):
    """Edge density by product-Gaussian KDE, renormalized to mass 1.

    Every undirected edge (i, j) contributes kernels at (omega_i, omega_j)
    and at the mirrored point, so the estimate is symmetric bit for bit.
    Cell values use the midpoint rule.  This is the labeled lift with k = 1.
    omega needs one opinion in [-1, 1] per node.
    """
    omega = _opinions(graph, omega)
    rows = _kernel_rows(omega, grid, bandwidth)
    return PairField(grid, _lift_g(graph, rows, grid, None, 1)[0, 0])


def split_by_group(graph, omega, grid, bandwidth):
    """Community-resolved f and g from a microscopic state.

    f[p] is the histogram density of community p's opinions against the
    full population count, so the label sum recovers empirical_f.  g[p, q]
    collects the product kernels of the p-q edges; the blocks share one
    normalization, giving the labeled array total mass 1, and cross blocks
    are exact transposes of each other.  Cell values use the midpoint rule.
    omega needs one opinion in [-1, 1] per node.
    """
    omega = _opinions(graph, omega)
    k = graph.n_groups
    f = np.empty((k, grid.n_cells))
    for p in range(k):
        counts, _ = np.histogram(omega[graph.community == p + 1],
                                 bins=grid.edges)
        f[p] = counts / (omega.size * grid.dx)
    rows = _kernel_rows(omega, grid, bandwidth)
    return LabeledFields(grid, f,
                         _lift_g(graph, rows, grid, graph.community - 1, k))


def bandwidth_select(data, method="silverman"):
    """Gaussian-KDE bandwidth for a 1-D sample.

    The only method is 'silverman', the normal-reference rule
    1.06 sd n^(-1/5).  Needs at least two finite samples, not all equal.
    """
    if method != "silverman":
        raise ConfigError("bandwidth: unknown method %r" % (method,))
    data = np.asarray(data, dtype=float).ravel()
    if data.size < 2:
        raise ConfigError("bandwidth: need at least two samples")
    # min and max carry a NaN through, so they check finiteness as well;
    # an all-equal sample can have a tiny nonzero sd from its rounded mean
    lo, hi = float(data.min()), float(data.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError("bandwidth: sample has a value that is not finite")
    if lo == hi:
        raise ConfigError("bandwidth: sample is degenerate")
    return 1.06 * float(np.std(data, ddof=1)) * data.size ** (-0.2)
