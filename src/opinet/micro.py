"""Agent-based opinion dynamics on a community graph.

Each node carries a scalar opinion omega_i and relaxes toward its graph
neighbors through the paper's linear debate rule D(z) = -z, applied to
opinion differences and averaged over the neighborhood.  D is minus the
derivative of the even convex potential W(z) = z^2 / 2, so pairwise
potential energy decays along trajectories and the degree-weighted opinion
sum is conserved.

A step needs no edge differences: the mean of D(omega_i - omega_j) over
the neighbours is their mean opinion minus omega_i.  The neighbour sums
run along the graph's jagged-diagonal rows (graph._jagged_rows), which
keep each node's two sums, over the edges it is the tail of and over
those it is the head of, from 0.0 in edge order, so the right-hand side
is that of two np.bincount scatters over the edges, bit for bit.  The
potential sums W a chunk of edges at a time and adds the chunks' pairwise
sums in edge order, which rounds differently from one pairwise sum over
more than a chunk of edges.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_CHUNK = 1 << 14    # edges per chunk of the potential


@dataclass(frozen=True)
class DebateOperator:
    """The linear debate rule D(z) = -z with its potential W(z) = z^2 / 2
    and the bound 1 on |D'|.

    d maps arrays of opinion differences to arrays; w is the potential with
    w(0) = 0 and d = -w'.  lipschitz bounds |d'| and controls the
    explicit-Euler step bound.  All three are class constants, so every
    operator equals every other one.
    """

    lipschitz = 1.0

    @staticmethod
    def d(z):
        return -np.asarray(z, dtype=float)

    @staticmethod
    def w(z):
        # squared and halved in one temporary
        w = np.square(z, dtype=float)
        w *= 0.5
        return w

    @classmethod
    def linear(cls):
        return cls()


def _opinions(graph, omega):
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (graph.n_nodes,):
        raise ConfigError("micro: omega must have one entry per node")
    return omega


def micro_rhs(graph, omega, operator):
    """d omega_i / dt = mean over neighbors j of D(omega_i - omega_j)."""
    # (sum_j omega_j - deg_i omega_i) / max(deg_i, 1); every index is in
    # range once omega has one entry per node, so each take may "clip",
    # which skips the bounds check and, for out=, the buffered copy
    omega = _opinions(graph, omega)
    chunks, sums, at_tail, at_head = graph._neighbour_rows
    for ends, gathered, adds in chunks:
        np.take(omega, ends, out=gathered, mode="clip")
        for row, prior, into in adds:
            np.add(row, prior, into)
    total = np.take(sums, at_tail, mode="clip")
    total += np.take(sums, at_head, mode="clip")
    total -= graph._degree_float * omega
    total /= graph._degree_divisor
    return total


def step_size_bound(operator):
    """Largest stable explicit-Euler step, 1 / sup|D'|."""
    return 1.0 / operator.lipschitz


def euler_step(graph, omega, operator, dt):
    """One explicit Euler step; dt may equal the bound but not exceed it."""
    if not (0.0 < dt <= step_size_bound(operator)):
        raise ConfigError(
            "micro: dt=%g violates 0 < dt <= %g" % (dt, step_size_bound(operator)))
    omega = np.asarray(omega, dtype=float)
    step = micro_rhs(graph, omega, operator)
    step *= dt
    step += omega
    return step


def _reflect_unit(x):
    # fold the real line into [-1, 1] by repeated reflection at the endpoints
    y = np.mod(x + 1.0, 4.0)
    y = np.where(y > 2.0, 4.0 - y, y)
    return y - 1.0


def euler_maruyama_step(graph, omega, operator, dt, sigma, rng):
    """Euler-Maruyama step with additive noise, reflected into [-1, 1].

    sigma = 0 reproduces euler_step exactly (no rng draw is made).
    """
    if not 0 <= sigma < np.inf:
        raise ConfigError("micro: noise sigma must be >= 0 and finite")
    drifted = euler_step(graph, omega, operator, dt)
    if sigma == 0.0:
        return drifted
    kicked = drifted + np.sqrt(2.0 * sigma * dt) * rng.standard_normal(drifted.size)
    return _reflect_unit(kicked)


def conserved_quantity(graph, omega):
    """Degree-weighted opinion sum, invariant under the deterministic flow."""
    # a pairwise sum, not np.dot: BLAS would wake its thread pool for
    # every record
    return float(np.sum(graph._degree_float * _opinions(graph, omega)))


def consensus_value(graph, omega):
    """Limit opinion: degree-weighted mean of the current state."""
    total = float(graph.degrees.sum())
    if total == 0:
        raise ConfigError("micro: consensus undefined on an edgeless graph")
    return conserved_quantity(graph, omega) / total


def potential_v(graph, omega, operator):
    """Total pairwise potential, half the sum of W over ordered neighbor pairs."""
    # W over the edges, a chunk at a time, so no temporary is edge-sized
    omega = _opinions(graph, omega)
    total = 0.0
    for lo in range(0, graph.n_edges, _CHUNK):
        diff = np.take(omega, graph.tail[lo:lo + _CHUNK], mode="clip")
        diff -= np.take(omega, graph.head[lo:lo + _CHUNK], mode="clip")
        total += float(np.sum(operator.w(diff)))
    return total


def e_micro(graph, omega):
    """Root-mean-square distance from the consensus value."""
    omega = np.asarray(omega, dtype=float)
    target = consensus_value(graph, omega)
    return float(np.sqrt(np.mean(np.square(omega - target))))
