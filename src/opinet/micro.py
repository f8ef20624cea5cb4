"""Agent-based opinion dynamics on a community graph.

Each node carries a scalar opinion omega_i and relaxes toward its graph
neighbors through an odd, nonincreasing interaction rule D applied to
opinion differences and averaged over the neighborhood.  D is minus the
derivative of an even convex potential W, so pairwise potential energy
decays along trajectories and the degree-weighted opinion sum is conserved.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


# products, not np.power, which takes the general pow path and is ~100x
# slower; -z * -z equals z * z, so D stays odd and W even bit for bit
def _quartic_d(z):
    z = np.asarray(z, dtype=float)
    return -(z * z * z)


def _quartic_w(z):
    z = np.asarray(z, dtype=float)
    return 0.25 * ((z * z) * (z * z))


@dataclass(frozen=True)
class DebateOperator:
    """Interaction rule D with its potential W and a bound on |D'|.

    d maps arrays of opinion differences to arrays; w is the potential with
    w(0) = 0 and d = -w'.  lipschitz bounds |d'| on the admissible opinion
    range and controls the explicit-Euler step bound.
    """

    d: object
    w: object
    lipschitz: float

    @classmethod
    def linear(cls):
        return cls(d=lambda z: -np.asarray(z, dtype=float),
                   w=lambda z: 0.5 * np.square(z),
                   lipschitz=1.0)

    @classmethod
    def quartic(cls):
        # W(z) = z^4 / 4 on differences in (-2, 2); |W''| <= 12 there
        return cls(d=_quartic_d, w=_quartic_w, lipschitz=12.0)

    @classmethod
    def zero(cls):
        return cls(d=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
                   w=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
                   lipschitz=0.0)

    def validate(self):
        """Sample-based sanity checks: D odd nonincreasing, W even, W(0)=0."""
        # opinions in [-1, 1] differ by at most 2
        z = np.linspace(-2.0, 2.0, 401)
        dz = np.asarray(self.d(z), dtype=float)
        wz = np.asarray(self.w(z), dtype=float)
        tol = 1e-10 * max(1.0, float(np.max(np.abs(dz))))
        if abs(float(self.d(np.asarray(0.0)))) > tol:
            raise ConfigError("operator: D(0) must vanish")
        if np.max(np.abs(dz + dz[::-1])) > tol:
            raise ConfigError("operator: D must be odd")
        if np.any(np.diff(dz) > tol):
            raise ConfigError("operator: D must be nonincreasing")
        wtol = 1e-10 * max(1.0, float(np.max(np.abs(wz))))
        if abs(float(self.w(np.asarray(0.0)))) > wtol:
            raise ConfigError("operator: W(0) must vanish")
        if np.max(np.abs(wz - wz[::-1])) > wtol:
            raise ConfigError("operator: W must be even")
        if self.lipschitz < 0 or not np.isfinite(self.lipschitz):
            raise ConfigError("operator: lipschitz bound must be finite and >= 0")
        return self


def _edge_differences(graph, omega):
    """omega_i - omega_j over the edges (i, j), in the graph's per-edge
    scratch, so a micro step frees at most one E-sized temporary at a time.

    When the step freed three, glibc returned the heap top to the OS after
    each step and faulted it in again on the next: ~1050 minor page faults
    per step on a 2.5e5-edge graph, 1.5x its wall time.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (graph.n_nodes,):
        raise ConfigError("micro: omega must have one entry per node")
    # every index is in range once omega has one entry per node; "clip"
    # only spares take the buffered copy it makes for out= under "raise"
    diff = np.take(omega, graph.tail, out=graph._edge_scratch, mode="clip")
    diff -= np.take(omega, graph.head)
    return diff


def micro_rhs(graph, omega, operator):
    """d omega_i / dt = mean over neighbors j of D(omega_i - omega_j)."""
    # D is odd, so each edge gives D(w_i - w_j) to i and its negative to j
    n = graph.n_nodes
    d = operator.d(_edge_differences(graph, omega))
    sums = (np.bincount(graph.tail, weights=d, minlength=n)
            - np.bincount(graph.head, weights=d, minlength=n))
    return sums / graph._degree_divisor


def step_size_bound(operator):
    """Largest stable explicit-Euler step, 1 / sup|D'|."""
    if operator.lipschitz == 0.0:
        return np.inf
    return 1.0 / operator.lipschitz


def euler_step(graph, omega, operator, dt):
    """One explicit Euler step; dt may equal the bound but not exceed it."""
    if not (0.0 < dt <= step_size_bound(operator)):
        raise ConfigError(
            "micro: dt=%g violates 0 < dt <= %g" % (dt, step_size_bound(operator)))
    omega = np.asarray(omega, dtype=float)
    return omega + dt * micro_rhs(graph, omega, operator)


def _reflect_unit(x):
    # fold the real line into [-1, 1] by repeated reflection at the endpoints
    y = np.mod(x + 1.0, 4.0)
    y = np.where(y > 2.0, 4.0 - y, y)
    return y - 1.0


def euler_maruyama_step(graph, omega, operator, dt, sigma, rng):
    """Euler-Maruyama step with additive noise, reflected into [-1, 1].

    sigma = 0 reproduces euler_step exactly (no rng draw is made).
    """
    if sigma < 0:
        raise ConfigError("micro: noise sigma must be >= 0")
    drifted = euler_step(graph, omega, operator, dt)
    if sigma == 0.0:
        return drifted
    kicked = drifted + np.sqrt(2.0 * sigma * dt) * rng.standard_normal(drifted.size)
    return _reflect_unit(kicked)


def conserved_quantity(graph, omega):
    """Degree-weighted opinion sum, invariant under the deterministic flow."""
    omega = np.asarray(omega, dtype=float)
    return float(np.dot(graph.degrees.astype(float), omega))


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
