"""Agent-based opinion dynamics on a community graph.

Each node carries a scalar opinion omega_i and relaxes toward its graph
neighbors through the paper's linear debate rule D(z) = -z, applied to
opinion differences and averaged over the neighborhood.  D is minus the
derivative of the even convex potential W(z) = z^2 / 2, so pairwise
potential energy decays along trajectories and the degree-weighted opinion
sum is conserved.

A step needs no edge differences: the mean of D(omega_i - omega_j) over
the neighbours is their mean opinion minus omega_i, two gathers of omega,
each summed into the nodes by one bincount.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


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


def _gather(graph, omega, ends):
    # omega at one end of every edge, into the graph's per-edge scratch;
    # every index is in range once omega has one entry per node, and
    # "clip" only spares take the buffered copy it makes for out= under
    # "raise"
    return np.take(omega, ends, out=graph._edge_scratch, mode="clip")


def _edge_differences(graph, omega):
    """omega_i - omega_j over the edges (i, j), in the graph's per-edge
    scratch, so the potential allocates one E-sized temporary, the head
    gather, beside W's."""
    omega = _opinions(graph, omega)
    diff = _gather(graph, omega, graph.tail)
    diff -= np.take(omega, graph.head)
    return diff


def micro_rhs(graph, omega, operator):
    """d omega_i / dt = mean over neighbors j of D(omega_i - omega_j)."""
    # (sum_j omega_j - deg_i omega_i) / max(deg_i, 1): each gather feeds
    # one bincount before the next overwrites the scratch; an edgeless
    # graph's bincount is integer, hence the cast
    n = graph.n_nodes
    omega = _opinions(graph, omega)
    sums = np.bincount(graph.tail, minlength=n,
                       weights=_gather(graph, omega, graph.head))
    sums = sums.astype(float, copy=False)
    sums += np.bincount(graph.head, minlength=n,
                        weights=_gather(graph, omega, graph.tail))
    sums -= graph._degree_float * omega
    sums /= graph._degree_divisor
    return sums


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
    return float(np.sum(operator.w(_edge_differences(graph, omega))))


def e_micro(graph, omega):
    """Root-mean-square distance from the consensus value."""
    omega = np.asarray(omega, dtype=float)
    target = consensus_value(graph, omega)
    return float(np.sqrt(np.mean(np.square(omega - target))))
