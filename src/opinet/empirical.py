"""Empirical measures on the opinion interval: grids, histograms, KDE.

The continuum solvers work with cell averages on a uniform grid over
[-1, 1].  This module builds that grid, turns analytic mixture densities
into cell averages, and lifts a microscopic state (opinions on a graph)
into the one-body density f and the two-body edge density g, the latter by
Gaussian product-kernel density estimation over the edge set, with the
bandwidth from Silverman's normal-reference rule.  The edge density has
one lift, by community blocks g[p, q]; the unlabeled g is its k = 1 case.
The lift sums each node's neighbour kernels over chunks of edges, so its
working set is the N x n kernel matrix plus one chunk of gathered rows,
O(N n + chunk n), never one row per edge, O(E n).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SimulationError

_SQRT2PI = float(np.sqrt(2.0 * np.pi))
_SQRT2 = math.sqrt(2.0)

# kernel-matrix cells gathered per chunk of edges in the lift: 2**19
# float64 cells are 4 MiB, max(1, 2**19 // n) edges per chunk
_CHUNK_CELLS = 2 ** 19

# least Gaussian mass a mixture component keeps inside [-1, 1]; rejection
# sampling takes 1 / mass draws per opinion on average, so at most 100
_MIN_IN_RANGE_MASS = 1e-2


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
                if w <= 0:
                    raise ConfigError("mixture: component weights must be positive")
                if s <= 0:
                    raise ConfigError("mixture: component sigma must be positive")
                if not -1.0 <= c <= 1.0:
                    raise ConfigError("mixture: component centers lie in [-1, 1]")
                lo, hi = _normal_cdf(np.array([-1.0 - c, 1.0 - c]) / s)
                if not hi - lo >= _MIN_IN_RANGE_MASS:
                    raise ConfigError(
                        "mixture: component %g:%g:%g keeps mass %.3g "
                        "inside [-1, 1], below %g"
                        % (w, c, s, hi - lo, _MIN_IN_RANGE_MASS))

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


def sample_initial_opinions(graph, mixture, rng):
    """Draw one opinion per node from its community's mixture.

    Components are chosen by weight, then the opinion is rejection-sampled
    from the component Gaussian until it lands in [-1, 1].
    """
    if mixture.n_groups != graph.n_groups:
        raise ConfigError("mixture: community count must match the graph")
    omega = np.empty(graph.n_nodes, dtype=float)
    for c in range(mixture.n_groups):
        members = np.flatnonzero(graph.community == c + 1)
        weights, centers, sigmas = mixture.components(c)
        picks = rng.choice(weights.size, size=members.size, p=weights)
        for node, k in zip(members, picks):
            while True:
                x = rng.normal(centers[k], sigmas[k])
                if -1.0 <= x <= 1.0:
                    omega[node] = x
                    break
    return omega


def empirical_f(omega, grid):
    """Histogram density of the opinions: count / (N dx) per cell."""
    omega = np.asarray(omega, dtype=float)
    if omega.size == 0:
        raise ConfigError("empirical: no opinions to bin")
    if omega.min() < -1.0 or omega.max() > 1.0:
        raise ConfigError("empirical: opinions must lie in [-1, 1]")
    counts, _ = np.histogram(omega, bins=grid.edges)
    return ScalarField(grid, counts / (omega.size * grid.dx))


def _kernel_matrix(omega, grid, bandwidth):
    # rows: one normalized 1-D Gaussian kernel per node at the cell
    # midpoints, exp(-x^2 / 2) / (sqrt(2 pi) bandwidth) with
    # x = (mid - omega) / bandwidth, built in one N x n buffer
    if bandwidth <= 0 or not np.isfinite(bandwidth):
        raise ConfigError("kde: bandwidth must be positive and finite")
    omega = np.asarray(omega, dtype=float)[:, None]
    kern = grid.mids[None, :] - omega
    kern /= bandwidth
    np.square(kern, out=kern)
    kern *= -0.5
    np.exp(kern, out=kern)
    kern /= _SQRT2PI
    kern /= bandwidth
    return kern


def _lift_g(graph, kern, grid, labels, k):
    # g[p, q] sums the product kernels of the edges from label p to label q
    # in both orientations, with one normalization to total mass 1.  The
    # edges are stably sorted by their (label, label) pair, so within each
    # label segment they stay sorted by head i, and each chunk of a label
    # segment splits into runs of one head (a head whose neighbours
    # straddle two chunks contributes from both).  The runs, longest first,
    # sum their tails' rows K[j] position by position: one gather puts the
    # r-th rows of the runs longer than r next to each other, and one add
    # per position joins them to a prefix of the sums, so a chunk takes as
    # many adds as its longest run.  K[heads]^T sums then joins one block
    # s[p, q], and no array holds a row per edge.  g = s + s^T over the
    # (omega, m) axes is bit-symmetric: g[q, p] == g[p, q].T.
    if graph.n_edges == 0:
        raise ConfigError("kde: graph has no edges")
    n = grid.n_cells
    chunk = max(1, _CHUNK_CELLS // n)
    keys = labels[graph.tail] * k + labels[graph.head]
    edges = graph.edges[np.argsort(keys, kind="stable")]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(keys,
                                                        minlength=k * k))])
    s = np.zeros((k, k, n, n))
    for key in range(k * k):
        block, end = s[divmod(key, k)], bounds[key + 1]
        for start in range(bounds[key], end, chunk):
            heads, tails = edges[start:min(start + chunk, end)].T
            first = np.flatnonzero(np.diff(heads, prepend=-1))
            lengths = np.diff(first, append=heads.size)
            order = np.argsort(-lengths, kind="stable")
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            # longer[r] runs are longer than r; their r-th rows start at
            # offsets[r] of the gathered rows, in the order of the sums
            longer = first.size - np.cumsum(np.bincount(lengths))
            offsets = np.cumsum(longer) - longer
            at = offsets[np.arange(heads.size) - np.repeat(first, lengths)]
            picks = np.empty_like(tails)
            picks[at + np.repeat(rank, lengths)] = tails
            rows = kern[picks]
            sums = rows[:first.size]
            for m, o in zip(longer[1:-1].tolist(), offsets[1:-1].tolist()):
                sums[:m] += rows[o:o + m]
            block += kern[heads[first[order]]].T @ sums
    g = s + s.transpose(1, 0, 3, 2)
    total = grid.dx ** 2 * g.sum()
    if total <= 0:
        raise SimulationError("kde: estimate has no mass on the grid")
    return g / total


def empirical_g_kde(graph, omega, grid, bandwidth):
    """Edge density by product-Gaussian KDE, renormalized to mass 1.

    Every undirected edge (i, j) contributes kernels at (omega_i, omega_j)
    and at the mirrored point, so the estimate is symmetric bit for bit.
    Cell values use the midpoint rule.  This is the labeled lift with k = 1.
    """
    kern = _kernel_matrix(omega, grid, bandwidth)
    labels = np.zeros(graph.n_nodes, dtype=np.int64)
    return PairField(grid, _lift_g(graph, kern, grid, labels, 1)[0, 0])


def split_by_group(graph, omega, grid, bandwidth):
    """Community-resolved f and g from a microscopic state.

    f[p] is the histogram density of community p's opinions against the
    full population count, so the label sum recovers empirical_f.  g[p, q]
    collects the product kernels of the p-q edges; the blocks share one
    normalization, giving the labeled array total mass 1, and cross blocks
    are exact transposes of each other.  Cell values use the midpoint rule.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.min() < -1.0 or omega.max() > 1.0:
        raise ConfigError("empirical: opinions must lie in [-1, 1]")
    k = graph.n_groups
    f = np.empty((k, grid.n_cells))
    for p in range(k):
        counts, _ = np.histogram(omega[graph.community == p + 1],
                                 bins=grid.edges)
        f[p] = counts / (omega.size * grid.dx)
    kern = _kernel_matrix(omega, grid, bandwidth)
    return LabeledFields(grid, f,
                         _lift_g(graph, kern, grid, graph.community - 1, k))


def _silverman(data):
    sd = float(np.std(data, ddof=1))
    if sd == 0.0:
        raise ConfigError("bandwidth: sample is degenerate")
    return 1.06 * sd * data.size ** (-0.2)


def bandwidth_select(data, method="silverman"):
    """Gaussian-KDE bandwidth for a 1-D sample.

    The only method is 'silverman', the normal-reference rule
    1.06 sd n^(-1/5).  Needs at least two samples with spread.
    """
    if method != "silverman":
        raise ConfigError("bandwidth: unknown method %r" % (method,))
    data = np.asarray(data, dtype=float).ravel()
    if data.size < 2:
        raise ConfigError("bandwidth: need at least two samples")
    return _silverman(data)
