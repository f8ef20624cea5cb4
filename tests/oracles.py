"""Reference formulas the tests compare the package against.

Each one computes, by a separate and plainer route, something the package
computes for its workflows: the local Lax-Friedrichs interface fluxes and
the padded zero-flux second difference of the continuum step, the step
with each row's update as three row-scaled products, the
row-normalized pair density eta, the cell-integrated Gaussian KDE, the
truncated mixture pdf and its cell averages through scipy's normal CDF, the
opinion sampler with one scalar draw at a time, the set-based stub matching
of the graph generator, the depth-first component labels, the lexsorted
CSR adjacency, the per-component bridging of ensure_connected and the
micro right-hand side gathered over the CSR half-edges.  No workflow calls
them.
"""

import numpy as np
from scipy.special import ndtr

from opinet import CommunityGraph, ConfigError, PairField, graph_from_pairs
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
    p].T, then the birth term.  In the stepper's order otherwise, so the
    result is meant to match the stepper bit for bit."""
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
    g_new = u + u.transpose(1, 0, 3, 2)
    if params.birth_rate > 0:
        g_new += (np.einsum("pi,qj->pqij", f_new, f_new)
                  * (dt * params.birth_rate))
    return f_new, g_new


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


def exact_g_kde(graph, omega, grid, bandwidth):
    """empirical_g_kde with the kernels integrated over the cells instead
    of sampled at the midpoints."""
    omega = np.asarray(omega, dtype=float)[:, None]
    upper = ndtr((grid.edges[None, 1:] - omega) / bandwidth)
    lower = ndtr((grid.edges[None, :-1] - omega) / bandwidth)
    kern = (upper - lower) / grid.dx
    labels = np.zeros(graph.n_nodes, dtype=np.int64)
    return PairField(grid, _lift_g(graph, kern, grid, labels, 1)[0, 0])


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


def csr_adjacency(edges, n_nodes):
    """(heads, indices, offsets) of the half-edges, lexsorted by head and
    then by neighbour."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    heads = np.concatenate([e[:, 0], e[:, 1]])
    tails = np.concatenate([e[:, 1], e[:, 0]])
    order = np.lexsort((tails, heads))
    deg = np.bincount(heads, minlength=n_nodes)
    return heads[order], tails[order], np.concatenate([[0], np.cumsum(deg)])


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
    """opinet.ensure_connected with depth-first labels and a flatnonzero
    scan per component."""
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
