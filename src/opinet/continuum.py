"""Finite-volume transport for the one- and two-body opinion densities.

State is cell-averaged on a uniform grid over [-1, 1]: f(omega) and the
pair density g(omega, m), optionally resolved by community label.  Each
step freezes the velocity field computed from g, then advances f and g
with a local Lax-Friedrichs flux; boundary fluxes are zero, so mass is
conserved up to round-off.  Optional additive noise enters as explicit
diffusion with mirrored (zero-flux) boundaries, and optional edge
birth-death acts on g as g (1 - dt d) + dt b f_p f_q, which stays positive
because a step keeps dt < 1 / d.

The LLF flux and the diffusion flux of a face combine into one monotone
two-point flux, so a row's update is a three-point stencil; g takes it
along one axis per block, as ContinuumStepper describes.  For D(z) = -z a
bivariate normal g with correlation rho is an exact solution: it keeps rho,
its variance decays as exp(-2 (1 - rho) t) and E at rate 1 - rho.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .empirical import ScalarField, PairField, LabeledFields


@dataclass(frozen=True)
class ContinuumParams:
    """The [continuum] section of a run, and the step parameters.

    dt is the step a step function takes; in a run config, None lets the
    runner choose each step from the realized stability bound.
    """

    dt: float = None
    t_end: float = 10.0
    eta_cutoff: float = 1e-10
    diffusion_sigma: float = 0.0
    birth_rate: float = 0.0
    death_rate: float = 0.0

    def validate(self):
        # NaN fails every test here, as it fails the INI reader
        if self.dt is not None and not 0 < self.dt < np.inf:
            raise ConfigError("continuum.dt: must be positive and finite "
                              "when given")
        for key in ("t_end", "eta_cutoff"):
            if not 0 < getattr(self, key) < np.inf:
                raise ConfigError("continuum.%s: must be positive and finite"
                                  % key)
        for key in ("diffusion_sigma", "birth_rate", "death_rate"):
            if not 0 <= getattr(self, key) < np.inf:
                raise ConfigError("continuum.%s: must be >= 0 and finite"
                                  % key)
        return self


def _moment_speeds(g4, moments, dx, cutoff):
    # a[p, i] = sum_{q,j} g[p,q,i,j] D(mid_i - mid_j) / sum_{q,j}
    # g[p,q,i,j], which for D(z) = -z is sum_{q,j} g[p,q,i,j] mid_j /
    # sum_{q,j} g[p,q,i,j] - mid_i, returned with the row masses dx
    # sum_{q,j} g[p,q,i,j]; both row moments from one matmul with
    # moments = [mids, 1], summed over q in order
    rows = np.matmul(g4, moments)
    rows = sum((rows[:, q] for q in range(1, rows.shape[1])), rows[:, 0])
    den = dx * rows[..., 1]
    keep = den >= cutoff
    mean = rows[..., 0] / np.where(keep, rows[..., 1], 1.0)
    return np.where(keep, mean - moments[:, 0], 0.0), den


def _dt_bound(dx, speed, params):
    # strict positivity limit of the 2-D g update at the given speed, with
    # the diffusion it carries: dt (2 speed / dx + 4 sigma / dx^2) < 1,
    # then capped by the death limit of params
    bound = dx / (2.0 * speed) if speed > 0 else np.inf
    if params.diffusion_sigma > 0:
        bound = 1.0 / (2.0 * speed / dx
                       + 4.0 * params.diffusion_sigma / dx ** 2)
    if params.death_rate > 0:
        bound = min(bound, 1.0 / params.death_rate)
    return bound


def cfl_max_dt(grid, operator, params=ContinuumParams()):
    """Strict upper bound on dt for any state: advection at the worst-case
    speed max |D(+-2)|, and the diffusion and death limits."""
    span = np.asarray([-2.0, 2.0])
    d_max = float(np.max(np.abs(operator.d(span))))
    return _dt_bound(grid.dx, d_max, params)


def _stencil_weights(a, lam, nu):
    # w[p, :, i] = (wl_{i-1/2}, 1 - wl_{i+1/2} + wr_{i-1/2}, -wr_{i+1/2}),
    # the weights of cells i - 1, i and i + 1 in the update of cell i, with
    # the face weights wl = lam (a_i + amax) / 2 + nu >= 0 and wr = lam
    # (a_{i+1} - amax) / 2 - nu <= 0, and none at the two boundary faces
    k, n = a.shape
    w = np.zeros((k, 3, n))
    left, mid, right = w[:, 0, 1:], w[:, 1], w[:, 2, :-1]
    speed = np.abs(a)
    amax = np.maximum(speed[:, :-1], speed[:, 1:])
    np.add(a[:, :-1], amax, out=left)
    np.subtract(amax, a[:, 1:], out=right)
    for side in (left, right):
        side *= 0.5 * lam
        side += nu
    np.subtract(1.0, left, out=mid[:, :-1])
    mid[:, -1] = 1.0
    mid[:, 1:] -= right
    return w


def _half_update(w, g, out):
    # out[p, q, i] = w[p, 0, i] g[p, q, i - 1] + w[p, 1, i] g[p, q, i]
    #     + w[p, 2, i] g[p, q, i + 1], summed in that order, for the rows i
    # of every block of the C-contiguous g; the first and last rows leave
    # out their missing neighbour
    k, _, n, _ = g.shape
    s0, s1, row, col = g.strides
    # rows[p, q, t, i] is row i + t of block g[p, q]
    rows = np.ndarray((k, k, 3, n - 2, n), g.dtype, g, 0,
                      (s0, s1, row, row, col))
    rows.flags.writeable = False
    np.einsum("pti,pqtij->pqij", w[:, :, 1:-1], rows, out=out[:, :, 1:-1])
    np.einsum("pt,pqtj->pqj", w[:, 1:, 0], g[:, :, :2], out=out[:, :, 0])
    np.einsum("pt,pqtj->pqj", w[:, :2, -1], g[:, :, -2:], out=out[:, :, -1])


class ContinuumStepper:
    """Local Lax-Friedrichs step for k labels on one grid.

    f is (k, n) and g is (k, k, n, n); the unlabeled model is k = 1.  The
    parameters are validated once, when the stepper is built; dt is passed
    per step.  g must be bit-symmetric, g[q, p] == g[p, q].T for every p
    and q, the diagonal blocks included: each block takes its axis-1
    update from its mirror block, so an asymmetric g gets a step that is
    not the LLF scheme, and nothing checks this.  Only the p <= q blocks
    are advanced and the others are their transposes, so a step keeps the
    symmetry.

    Each face carries one two-point flux: the LLF flux lam (cl u_i +
    cr u_{i+1}), cl >= 0 >= cr, plus the zero-flux diffusion flux
    nu (u_i - u_{i+1}), with lam = dt/dx and nu = dt sigma/dx^2; together
    wl u_i + wr u_{i+1}, wl >= 0 >= wr.  A cell's update is the
    three-point stencil (wl_{i-1/2}, 1 - wl_{i+1/2} + wr_{i-1/2},
    -wr_{i+1/2}) of its row and the rows above and below it, none across
    the boundary faces.  f takes it as it is.  For g, every block takes
    U = c (stencil - 1/2) g along axis 0 at the speeds of its row label,
    c = 1 - dt d, and becomes U[p, q] + U[q, p].T.  This is exact: the
    axis-1 update of g[p, q] at the speeds of q forms the same products
    and sums as the axis-0 update of g[q, p] = g[p, q].T, and IEEE
    addition commutes, so a diagonal block stays bit-symmetric.  One einsum
    over a read-only view of g that puts rows i - 1, i and i + 1 of every
    block side by side forms U for the inner rows, and two more for the
    first and last rows; they form the three products and their sum in
    one pass, straight into the new g.  Each axis takes at most half of
    the two-dimensional step bound, lam max|a| + 2 nu < 1/2, so every
    weight of U is nonnegative.

    Birth adds dt b f_p f_q to the new block, an outer product whose row
    factor is prescaled, so no pass scales the product.  A diagonal block
    takes half of it, (0.5 dt b f_p) f_p, into U before the mirror sum,
    which adds the two halves symmetrically and so keeps the block
    bit-symmetric; a block above the diagonal takes (dt b f_p) f_q after
    the sum, and its mirror block is its transpose.  With the death factor
    in U, the block is (1 - dt d) g + dt b f_p f_q after transport; every
    term is nonnegative because the step bound keeps dt < 1 / d.  It is
    g + dt (b f_p f_q - d g) up to round-off.

    The stepper holds one n x n scratch block, used by every k it
    advances, so a step allocates little beyond its outputs; a stepper
    must not be advanced from two threads at once.  For the debate
    operator's D(z) = -z the speeds are two row moments, a = sum_j g_ij
    mid_j / sum_j g_ij - mid_i, and the row masses come with them, from one
    matmul of g with the n x 2 matrix [mids, 1]; the stepper holds n^2 +
    O(n) floats.

    advance steps at the speeds a that its caller gives it, and check
    returns them with the state's bound, so a caller that checks a state
    before stepping it pays for one velocity pass, not two.
    """

    def __init__(self, grid, params):
        self.grid = grid
        self.params = params.validate()
        # the speeds are two row moments of g, as micro_rhs takes its
        # neighbour sums
        self._moments = np.stack([grid.mids, np.ones(grid.n_cells)], axis=1)
        # a transposed block, then a birth term
        self._work = np.empty((grid.n_cells, grid.n_cells))

    def speeds(self, g):
        """Per-label speeds a (k, n) and row masses (k, n) of g."""
        return _moment_speeds(g, self._moments, self.grid.dx,
                              self.params.eta_cutoff)

    def check(self, f, g):
        """Realized stability bound of a state, its speeds a (k, n) and its
        total mass: (bound, a, mass).

        The bound is dx / (2 max|a|) at the state's own speeds, with the
        diffusion limit combined into it and capped by the death limit.
        The mass dx sum f + dx^2 sum g reuses the row masses of the speeds,
        and is not finite whenever f or g holds a value that is not finite.
        """
        a, rows = self.speeds(g)
        mass = self.grid.dx * f.sum() + self.grid.dx * rows.sum()
        return _dt_bound(self.grid.dx, float(np.max(np.abs(a))),
                         self.params), a, float(mass)

    def advance(self, f, g, dt, a):
        """Advance (f, g) by dt at the speeds a; returns new arrays.

        a is meant to be the speeds of g, as check or speeds returns them.
        Raises ConfigError unless 0 < dt < the realized bound at a.
        """
        if dt is None:
            raise ConfigError("continuum: dt must be given for a step")
        params = self.params
        dx = self.grid.dx
        k = f.shape[0]
        bound = _dt_bound(dx, float(np.max(np.abs(a))), params)
        if not (dt > 0 and dt < bound):
            raise ConfigError("continuum: dt=%g violates 0 < dt < %g"
                              % (dt, bound))
        w = _stencil_weights(a, dt / dx,
                             dt * params.diffusion_sigma / dx ** 2)
        left, mid, right = w[:, 0], w[:, 1], w[:, 2]
        # the stencil itself, (mid f_i + left f_{i-1}) + right f_{i+1}
        f_new = mid * f
        f_new[:, 1:] += left[:, 1:] * f[:, :-1]
        f_new[:, :-1] += right[:, :-1] * f[:, 1:]

        # U = c (stencil - 1/2) g along axis 0 of every block, at the
        # speeds of its row label, straight into g_new
        mid -= 0.5
        w *= 1.0 - dt * params.death_rate
        g_new = np.empty(g.shape)
        _half_update(w, np.ascontiguousarray(g), g_new)
        work = self._work
        birth = dt * params.birth_rate
        for q in range(k):
            for p in range(q + 1):
                block = g_new[p, q]
                if birth > 0 and q == p:
                    # half the birth term before the mirror sum, which
                    # adds the two halves symmetrically
                    np.einsum("i,j->ij", (0.5 * birth) * f_new[p],
                              f_new[q], out=work)
                    block += work
                # U[p, q] + U[q, p].T; the transpose is copied first, as a
                # ufunc reading a transposed operand buffers it
                np.copyto(work, g_new[q, p].T)
                block += work
                if q != p:
                    if birth > 0:
                        np.einsum("i,j->ij", birth * f_new[p], f_new[q],
                                  out=work)
                        block += work
                    g_new[q, p] = block.T
        return f_new, g_new


def step_unlabeled(f, g, operator, params, speeds=None, stepper=None):
    """Advance (f, g) one step; returns new fields on the same grid.

    This is step_labeled with one label, so speeds, when given, are the
    (1, n) speeds of g.  g.values must be bit-symmetric, as
    ContinuumStepper requires.
    """
    if f.grid is not g.grid and f.grid.n_cells != g.grid.n_cells:
        raise ConfigError("continuum: f and g live on different grids")
    out = step_labeled(LabeledFields(f.grid, f.values[None],
                                     g.values[None, None]),
                       operator, params, speeds=speeds, stepper=stepper)
    return ScalarField(f.grid, out.f[0]), PairField(f.grid, out.g[0, 0])


def step_labeled(fields, operator, params, speeds=None, stepper=None):
    """Advance labeled (f, g) one step; label p transports with its own speed.

    fields.g must be bit-symmetric, g[q, p] == g[p, q].T, as
    ContinuumStepper requires.  speeds, the (k, n) speeds of fields.g, are
    computed from it when not given.  stepper, the caller's ContinuumStepper,
    must be built for the fields' cell count and for params up to dt, or
    ConfigError names the mismatch; without one, the call builds its own.
    """
    if stepper is None:
        stepper = ContinuumStepper(fields.grid, params)
    for key, have, want in [("n_cells", stepper.grid, fields.grid)] + [
            (key, stepper.params, params) for key in
            ("eta_cutoff", "diffusion_sigma", "birth_rate", "death_rate")]:
        if getattr(have, key) != getattr(want, key):
            raise ConfigError("continuum: stepper built for %s=%g, not %g"
                              % (key, getattr(have, key), getattr(want, key)))
    if speeds is None:
        speeds = stepper.speeds(fields.g)[0]
    f_new, g_new = stepper.advance(fields.f, fields.g, params.dt, speeds)
    return LabeledFields(fields.grid, f_new, g_new)
