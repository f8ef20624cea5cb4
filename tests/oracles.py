"""Reference formulas the tests compare the package against.

Each one computes, by a separate and plainer route, something the package
computes for its workflows: the local Lax-Friedrichs interface fluxes and
the padded zero-flux second difference of the continuum step, the step
with each row's update as three row-scaled products, an operator on the
dense matrix of midpoint differences, the speeds of any D streamed
against such a matrix, the row-normalized pair density
eta, the cell-integrated Gaussian KDE, the
truncated mixture pdf and its cell averages through scipy's normal CDF, the
opinion sampler with one scalar draw at a time, the set-based stub matching
of the graph generator, the depth-first component labels, the lexsorted
CSR adjacency, the per-component bridging of ensure_connected, the dense
Laplacian whose eigenvalues check spectral_gap and the micro right-hand
side gathered over the CSR half-edges, and the bivariate normal state
that the linear closure carries exactly.  No workflow calls them.  Besides
the package's linear rule, the tests take two more as plain functions:
cubic_d, the D of the potential quartic_w(z) = z^4 / 4, and zero.

Two graph helpers that no workflow needs live here as well, so the
package imports nothing but numpy and the standard library:
graph_from_pairs, which builds the tests' hand-made graphs, and
spectral_gap, the Laplacian gap of criterion 3 by one sparse scipy solve.
"""

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.linalg import LinearOperator, eigsh
from scipy.special import ndtr

from opinet import CommunityGraph, ConfigError, PairField
from opinet.empirical import _lift_g
from opinet.graph import _MATCH_ROUNDS

_SQRT2PI = float(np.sqrt(2.0 * np.pi))


def _interface_flux(u, a):
    # local Lax-Friedrichs along axis 0, zero flux at the domain boundary
    a_col = a.reshape((a.size,) + (1,) * (u.ndim - 1))
    al, ar = a_col[:-1], a_col[1:]
    ul, ur = u[:-1], u[1:]
    amax = np.maximum(np.abs(al), np.abs(ar))
    inner = 0.5 * (al * ul + ar * ur - (ur - ul) * amax)
    pad = np.zeros((1,) + u.shape[1:])
    return np.concatenate([pad, inner, pad], axis=0)


def llf_flux_f(f, a):
    """Interface fluxes for the one-body transport, shape (n_cells + 1,)."""
    f = np.asarray(f, dtype=float)
    a = np.asarray(a, dtype=float)
    if f.shape != a.shape or f.ndim != 1:
        raise ConfigError("flux: f and a must be matching 1-D arrays")
    return _interface_flux(f, a)


def llf_flux_g(g, a_omega, a_m):
    """Interface fluxes for the pair transport.

    Returns (F_omega, F_m) with shapes (n+1, n) and (n, n+1); the m-axis
    fluxes are built by transposing, so a symmetric g with a_omega == a_m
    yields exactly mirrored flux arrays.
    """
    g = np.asarray(g, dtype=float)
    a_omega = np.asarray(a_omega, dtype=float)
    a_m = np.asarray(a_m, dtype=float)
    n = g.shape[0]
    if g.shape != (n, n) or a_omega.shape != (n,) or a_m.shape != (n,):
        raise ConfigError("flux: g must be (n, n) with matching velocities")
    fw = _interface_flux(g, a_omega)
    fm = _interface_flux(g.T, a_m).T
    return fw, fm


def mirrored_laplacian(u):
    """Zero-flux second difference along axis 0, in units of 1/dx^2."""
    grad = np.diff(u, axis=0)
    pad = np.zeros((1,) + u.shape[1:])
    gflux = np.concatenate([pad, grad, pad], axis=0)
    return gflux[1:] - gflux[:-1]


def three_point_transport(f, g, a, dt, dx, params):
    """ContinuumStepper.advance at the speeds a: each row's update formed
    as three row-scaled products of the zero-padded row above, the row and
    the row below, summed in that order; each g block takes c (w - 1/2) of
    its axis-0 stencil w, c = 1 - dt d, as U and becomes U[p, q] + U[q,
    p].T.  The birth term is an outer product with its row factor
    prescaled: a diagonal block takes half of it into U before the mirror
    sum, a block above the diagonal all of it after the sum, and a block
    below the diagonal is its mirror's transpose.  In the stepper's order
    otherwise, so the result is meant to match the stepper bit for bit."""
    al, ar = a[:, :-1], a[:, 1:]
    amax = np.maximum(np.abs(al), np.abs(ar))
    lam = dt / dx
    nu = dt * params.diffusion_sigma / dx ** 2
    # wl and -wr of faces -1/2 .. n - 1/2, none at the boundary faces
    zero = np.zeros((a.shape[0], 1))
    wl = np.hstack([zero, (al + amax) * (0.5 * lam) + nu, zero])
    wr = np.hstack([zero, (amax - ar) * (0.5 * lam) + nu, zero])
    w = np.stack([wl[:, :-1], (1.0 - wl[:, 1:]) - wr[:, :-1], wr[:, 1:]],
                 axis=1)

    def stencil(w, u):
        # along axis -2, label p on axis 0
        w = w.reshape(w.shape[:2] + (1,) * (u.ndim - 3) + w.shape[2:] + (1,))
        pad = np.zeros(u.shape[:-2] + (1,) + u.shape[-1:])
        up = np.concatenate([pad, u, pad], axis=-2)
        return (w[:, 0] * up[..., :-2, :] + w[:, 1] * u
                + w[:, 2] * up[..., 2:, :])

    f_new = stencil(w, f[:, :, None])[:, :, 0]
    c = 1.0 - dt * params.death_rate
    w[:, 1] -= 0.5
    u = stencil(w * c, g)
    birth = dt * params.birth_rate
    k = f.shape[0]
    if birth > 0:
        for p in range(k):
            u[p, p] += np.outer((0.5 * birth) * f_new[p], f_new[p])
    g_new = u + u.transpose(1, 0, 3, 2)
    if birth > 0:
        for q in range(k):
            for p in range(q):
                g_new[p, q] += np.outer(birth * f_new[p], f_new[q])
                g_new[q, p] = g_new[p, q].T
    return f_new, g_new


def difference_matrix(grid, fn):
    """fn(mid_i - mid_j) at (i, j), evaluated on the dense n x n matrix
    of midpoint differences."""
    return np.asarray(fn(grid.mids[:, None] - grid.mids[None, :]),
                      dtype=float)


def difference_speeds(g4, grid, d, cutoff):
    """Per-label speeds a (k, n) of g4 (k, k, n, n) under the rule d, and
    the row masses: a[p, i] = sum_{q,j} g[p,q,i,j] d(mid_i - mid_j) /
    sum_{q,j} g[p,q,i,j], streamed against the dense difference_matrix of
    d, and 0 on a row whose mass dx sum_{q,j} g[p,q,i,j] is below
    cutoff."""
    # g4[:, 0] + g4[:, 1] + ...: the sum over q in order
    rows = sum((g4[:, q] for q in range(1, g4.shape[1])), g4[:, 0])
    den = grid.dx * rows.sum(axis=-1)
    num = grid.dx * np.einsum("pij,ij->pi", rows, difference_matrix(grid, d))
    keep = den >= cutoff
    return np.where(keep, num / np.where(keep, den, 1.0), 0.0), den


def eta_discrete(g, dx, cutoff):
    """Row-normalized pair density: g_ij / (dx sum_k g_ik).

    Rows whose integral falls below cutoff are zeroed instead of divided,
    so vacuum regions produce no spurious velocity.
    """
    g = np.asarray(g, dtype=float)
    den = dx * g.sum(axis=-1)
    keep = den >= cutoff
    safe = np.where(keep, den, 1.0)
    return np.where(keep[..., None], g / safe[..., None], 0.0)


def bivariate_normal_state(grid, sd, rho):
    """A k = 1 state (f, g), (1, n) and (1, 1, n, n): g the density of a
    bivariate normal with mean 0, standard deviation sd on both axes and
    correlation rho at the cell midpoints, symmetrized and normalized to
    mass 1, and f its marginal, dx sum_j g_ij.

    For D(z) = -z it is an exact solution of the closure: g stays normal
    with correlation rho, and its variance, and f's, decays as
    exp(-2 (1 - rho) t), up to the tail mass beyond [-1, 1].
    """
    x, y = grid.mids[:, None], grid.mids[None, :]
    g = np.exp(-0.5 * (x * x - 2.0 * rho * x * y + y * y)
               / (sd * sd * (1.0 - rho * rho)))
    g = 0.5 * (g + g.T)
    g /= grid.dx ** 2 * g.sum()
    return grid.dx * g.sum(axis=1)[None], g[None, None]


def exact_g_kde(graph, omega, grid, bandwidth):
    """empirical_g_kde with the kernels integrated over the cells instead
    of sampled at the midpoints, formed row by row as the lift asks."""
    omega = np.asarray(omega, dtype=float)

    def rows(nodes, out):
        at = omega[nodes, None]
        out[:] = (ndtr((grid.edges[None, 1:] - at) / bandwidth)
                  - ndtr((grid.edges[None, :-1] - at) / bandwidth)) / grid.dx

    return PairField(grid, _lift_g(graph, rows, grid, None, 1)[0, 0])


def _phi(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT2PI


def community_pdf(mixture, c):
    """Density of community c as a callable on arrays in [-1, 1]."""
    weights, centers, sigmas = mixture.components(c)
    # truncation renormalizer per component
    z = ndtr((1.0 - centers) / sigmas) - ndtr((-1.0 - centers) / sigmas)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for w, m, s, zz in zip(weights, centers, sigmas, z):
            out = out + w * _phi((x - m) / s) / (s * zz)
        return np.where((x >= -1.0) & (x <= 1.0), out, 0.0)

    return pdf


def cell_averages(mixture, grid, c):
    """MixtureSpec.community_cell_averages(grid, c).values with scipy's
    ndtr for the normal CDF."""
    out = np.zeros(grid.n_cells)
    for w, m, s in zip(*mixture.components(c)):
        z = ndtr((grid.edges - m) / s)
        out += w * np.diff(z) / (z[-1] - z[0])
    return out / grid.dx


def sample_initial_opinions(graph, mixture, rng):
    """opinet.sample_initial_opinions one draw at a time: each node redraws
    center + sigma * z on the next standard normal z until the opinion
    lands in [-1, 1].  That is the draw rng.normal(center, sigma) takes;
    forming it here pins the draw order, not whether numpy's C code fuses
    the multiply-add."""
    omega = np.empty(graph.n_nodes, dtype=float)
    for c in range(mixture.n_groups):
        members = np.flatnonzero(graph.community == c + 1)
        weights, centers, sigmas = mixture.components(c)
        picks = rng.choice(weights.size, size=members.size, p=weights)
        for node, k in zip(members, picks):
            while True:
                x = centers[k] + sigmas[k] * rng.standard_normal()
                if -1.0 <= x <= 1.0:
                    omega[node] = x
                    break
    return omega


def graph_from_pairs(n_nodes, pairs, community=None):
    """The CommunityGraph of arbitrary (i, j) pairs: each pair, in either
    order and however often it repeats, is the one edge (min, max)."""
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
    return CommunityGraph(n, np.stack(np.divmod(keys, n), axis=1), community)


def csr_adjacency(edges, n_nodes):
    """(heads, indices, offsets) of the half-edges, lexsorted by head and
    then by neighbour."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    heads = np.concatenate([e[:, 0], e[:, 1]])
    tails = np.concatenate([e[:, 1], e[:, 0]])
    order = np.lexsort((tails, heads))
    deg = np.bincount(heads, minlength=n_nodes)
    return heads[order], tails[order], np.concatenate([[0], np.cumsum(deg)])


def laplacian(graph):
    """Dense combinatorial Laplacian: diag(degrees) minus adjacency."""
    n = graph.n_nodes
    lap = np.zeros((n, n))
    lap[graph.tail, graph.head] = -1.0
    lap[graph.head, graph.tail] = -1.0
    lap[np.arange(n), np.arange(n)] = graph.degrees
    return lap


def spectral_gap(graph):
    """Smallest nonzero Laplacian eigenvalue, 0 for a disconnected graph.

    A graph of fewer than two nodes has none, which is refused.  A
    disconnected graph gets exactly 0 without a solve, at any size.  A
    connected one takes one sparse Lanczos solve (ARPACK eigsh) at any
    size: the smallest eigenvalue of L + (s/N) 11^T, s = 2 max degree >=
    lambda_max(L) (Gershgorin).  The shift moves the kernel's zero exactly
    to s, so lambda_2 <= s is the smallest and no kernel check is needed.
    The start vector is seeded with N, so a graph always gets the same bits.
    """
    n = graph.n_nodes
    if n < 2:
        raise ConfigError("graph: spectral gap needs at least two nodes")
    # the solve would give round-off of either sign for the second zero
    if component_labels(graph)[1] > 1:
        return 0.0
    nodes = np.arange(n)
    lap = csr_array(
        (np.concatenate([np.full(2 * graph.n_edges, -1.0), graph.degrees]),
         (np.concatenate([graph.tail, graph.head, nodes]),
          np.concatenate([graph.head, graph.tail, nodes]))), shape=(n, n))
    s = 2.0 * float(graph.degrees.max())
    shifted = LinearOperator((n, n), dtype=float,
                             matvec=lambda x: lap @ x + s / n * x.sum())
    gap = float(eigsh(shifted, k=1, which="SA", tol=1e-10,
                      v0=np.random.default_rng(n).standard_normal(n),
                      return_eigenvectors=False)[0])
    assert 0.0 < gap <= s, (gap, s)
    return gap


def neighbor_lists(graph):
    """Each node's neighbours, ascending, cut from csr_adjacency."""
    _, indices, offsets = csr_adjacency(graph.edges, graph.n_nodes)
    return np.split(indices, offsets[1:-1])


def greedy_match(stubs, rng, ok_pair, edge_set, rounds=_MATCH_ROUNDS):
    # Random pairing with rejection; rejected stubs get reshuffled a few
    # times, whatever is left after the last round is dropped.
    pool = np.asarray(stubs, dtype=np.int64)
    for _ in range(rounds):
        if pool.size < 2:
            break
        rng.shuffle(pool)
        work = pool[:-1] if pool.size % 2 else pool
        leftover = [int(pool[-1])] if pool.size % 2 else []
        for u, v in zip(work[0::2], work[1::2]):
            u, v = int(u), int(v)
            key = (u, v) if u < v else (v, u)
            if u == v or key in edge_set or not ok_pair(u, v):
                leftover.extend((u, v))
                continue
            edge_set.add(key)
        pool = np.asarray(leftover, dtype=np.int64)


def generate_community_graph(config):
    """opinet.generate_community_graph matching one stub pair at a time
    into a Python set of edges."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    n = config.n_nodes
    sizes = config.community_sizes()
    community = np.repeat(np.arange(1, config.n_groups + 1), sizes)

    target = rng.poisson(config.mean_degree, size=n)
    np.clip(target, 1, n - 1, out=target)
    n_intra = rng.binomial(target, 1.0 - config.mixing_mu)
    n_inter = target - n_intra

    edge_set = set()
    for c in range(1, config.n_groups + 1):
        members = np.flatnonzero(community == c)
        stubs = np.repeat(members, n_intra[members])
        greedy_match(stubs, rng, lambda u, v: True, edge_set)

    inter_stubs = np.repeat(np.arange(n), n_inter)
    greedy_match(inter_stubs, rng,
                 lambda u, v: community[u] != community[v], edge_set)

    e = np.asarray(sorted(edge_set), dtype=np.int64).reshape(-1, 2)
    return CommunityGraph(n, e, community)


def component_labels(graph):
    """(label, count) by depth-first search from each unlabeled node in
    turn, so components are numbered in order of their smallest node."""
    n = graph.n_nodes
    hoods = neighbor_lists(graph)
    label = np.full(n, -1, dtype=np.int64)
    count = 0
    for start in range(n):
        if label[start] >= 0:
            continue
        stack = [start]
        label[start] = count
        while stack:
            u = stack.pop()
            for v in hoods[u]:
                v = int(v)
                if label[v] < 0:
                    label[v] = count
                    stack.append(v)
        count += 1
    return label, count


def ensure_connected(graph):
    """opinet.ensure_connected with depth-first labels, a flatnonzero
    scan per component and the graph rebuilt from all its pairs."""
    label, count = component_labels(graph)
    if count <= 1:
        return graph
    rng = np.random.default_rng(graph.n_nodes)
    sizes = np.bincount(label)
    main = int(np.argmax(sizes))
    pool = np.flatnonzero(label == main)
    bridges = []
    for c in range(count):
        if c == main:
            continue
        members = np.flatnonzero(label == c)
        bridges.append((members[rng.integers(members.size)],
                        pool[rng.integers(pool.size)]))
    return graph_from_pairs(graph.n_nodes,
                            np.concatenate([graph.edges, bridges]),
                            graph.community)


def micro_rhs(graph, omega, operator):
    """opinet.micro_rhs as a gather over the CSR half-edges: each node sums
    D over its ascending neighbour list."""
    heads, indices, _ = csr_adjacency(graph.edges, graph.n_nodes)
    diffs = omega[heads] - omega[indices]
    sums = np.bincount(heads, weights=operator.d(diffs),
                       minlength=graph.n_nodes)
    deg = graph.degrees
    return np.where(deg > 0, sums / np.maximum(deg, 1), 0.0)


def bincount_rhs(graph, omega):
    """opinet.micro_rhs as two np.bincount scatters over the edges, the
    form the jagged-diagonal rows replaced: each node sums its neighbours'
    opinions from 0.0 in edge order, once over the edges it is the tail of
    and once over those it is the head of, and adds the two sums.  The
    package's right-hand side equals it bit for bit."""
    n = graph.n_nodes
    # an edgeless graph's bincount is integer, hence the cast
    sums = np.bincount(graph.tail, minlength=n,
                       weights=omega[graph.head]).astype(float, copy=False)
    sums += np.bincount(graph.head, minlength=n, weights=omega[graph.tail])
    deg = graph.degrees.astype(float)
    sums -= deg * omega
    sums /= np.maximum(deg, 1.0)
    return sums


def edge_potential(graph, omega, operator):
    """opinet.potential_v as one pairwise sum of W over the edges, in edge
    order."""
    return float(np.sum(operator.w(omega[graph.tail] - omega[graph.head])))


# products, not np.power, which takes the general pow path and is ~100x
# slower; -z * -z equals z * z, so D stays odd and W even bit for bit
def cubic_d(z):
    """D(z) = -z^3 = -quartic_w'(z)."""
    z = np.asarray(z, dtype=float)
    return -(z * z * z)


def quartic_w(z):
    """W(z) = z^4 / 4."""
    z = np.asarray(z, dtype=float)
    return 0.25 * ((z * z) * (z * z))


def zero(z):
    """The rule, and the potential, that move nothing."""
    return np.zeros_like(np.asarray(z, dtype=float))
