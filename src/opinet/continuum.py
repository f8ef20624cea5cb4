"""Finite-volume transport for the one- and two-body opinion densities.

State is cell-averaged on a uniform grid over [-1, 1]: f(omega) and the
pair density g(omega, m), optionally resolved by community label.  Each
step freezes the velocity field computed from g, then advances f and g
with a local Lax-Friedrichs flux; boundary fluxes are zero, so mass is
conserved exactly.  Optional additive noise enters as explicit diffusion
with mirrored (zero-flux) boundaries, and optional edge birth-death acts
on g after the transport stage.

The LLF flux and the diffusion flux of a face combine into one monotone
two-point stencil, H = wl u_i + wr u_{i+1} with wl >= 0 >= wr, and a step
updates u - (dH_0 + dH_1); g is symmetric, so a block's dH_1 is the dH_0
of its mirror block g[q, p] = g[p, q].T, transposed, bit for bit.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

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
        if self.dt is not None and self.dt <= 0:
            raise ConfigError("continuum.dt: must be positive when given")
        if self.t_end <= 0:
            raise ConfigError("continuum.t_end: must be positive")
        if self.eta_cutoff <= 0:
            raise ConfigError("continuum.eta_cutoff: must be positive")
        if self.diffusion_sigma < 0:
            raise ConfigError("continuum.diffusion_sigma: must be >= 0")
        if self.birth_rate < 0 or self.death_rate < 0:
            raise ConfigError("continuum: birth/death rates must be >= 0")
        return self


def _d_matrix(grid, operator):
    return np.asarray(operator.d(grid.mids[:, None] - grid.mids[None, :]),
                      dtype=float)


def _speeds(g4, dmat, dx, cutoff):
    # a[p, i] = sum_{q,j} g[p,q,i,j] D(mid_i - mid_j) / sum_{q,j} g[p,q,i,j],
    # returned with the row masses dx sum_{q,j} g[p,q,i,j]
    # g4[:, 0] + g4[:, 1] + ...: the sum over q in order, and a view of g4
    # when k = 1
    rows = sum((g4[:, q] for q in range(1, g4.shape[1])), g4[:, 0])
    den = dx * rows.sum(axis=-1)
    num = dx * np.einsum("pij,ij->pi", rows, dmat)
    keep = den >= cutoff
    return np.where(keep, num / np.where(keep, den, 1.0), 0.0), den


def _dt_bound(dx, speed, params):
    # strict positivity limit of the 2-D g update at the given speed, with
    # the diffusion it carries: dt (2 speed / dx + 4 sigma / dx^2) < 1,
    # then capped by the death limit of params
    bound = dx / (2.0 * speed) if speed > 0 else np.inf
    if params is not None:
        if params.diffusion_sigma > 0:
            bound = 1.0 / (2.0 * speed / dx
                           + 4.0 * params.diffusion_sigma / dx ** 2)
        if params.death_rate > 0:
            bound = min(bound, 1.0 / params.death_rate)
    return bound


def cfl_max_dt(grid, operator, params=None):
    """Strict upper bound on dt for any state: advection at the worst-case
    speed max |D(+-2)|, and the diffusion and death limits."""
    span = np.asarray([-2.0, 2.0])
    d_max = float(np.max(np.abs(operator.d(span))))
    return _dt_bound(grid.dx, d_max, params)


def _flux_difference(flux, out):
    # F_{i+1/2} - F_{i-1/2} into out from the interior fluxes along axis 0;
    # the boundary fluxes are zero, so the first and last rows are exact
    # copies
    out[0] = flux[0]
    np.subtract(flux[1:], flux[:-1], out=out[1:-1])
    # not np.negative(..., out=...): numpy 2.4 ignores the input stride
    # there for some strided lengths (f's transposed view at 9 cells)
    out[-1] = -flux[-1]
    return out


# states a stepper keeps speeds for; a run steps at most two (its closures)
_MEMO_ENTRIES = 4


def _identity(arr):
    # equal for any two views of one buffer with one layout, such as two
    # values[None, None] of one PairField
    return arr.__array_interface__["data"][0], arr.shape, arr.strides


class ContinuumStepper:
    """Local Lax-Friedrichs step for k labels on one grid and operator.

    f is (k, n) and g is (k, k, n, n); the unlabeled model is k = 1.  The
    parameters are validated and the D matrix built once, when the stepper
    is built; dt is passed per step.  g must be bit-symmetric, g[q, p] ==
    g[p, q].T for every p and q, the diagonal blocks included: each block
    takes its axis-1 flux difference from its mirror block, so an
    asymmetric g gets a step that is not the LLF scheme, and nothing checks
    this.  Only the p <= q blocks are advanced and the others are their
    transposes, so a step keeps the symmetry.

    Each face carries one two-point stencil: the LLF flux lam (cl u_i +
    cr u_{i+1}), cl >= 0 >= cr, plus the zero-flux diffusion flux
    nu (u_i - u_{i+1}), with lam = dt/dx and nu = dt sigma/dx^2.  A step
    first writes every block's axis-0 flux difference, at the speeds of its
    row label, into the new g; block (p, q) then subtracts it plus its
    mirror's, transposed.  This is exact: the axis-1 faces of g[p, q] at
    the speeds of q form the same products and sums as the axis-0 faces of
    g[q, p] = g[p, q].T, and IEEE addition commutes, so a diagonal block
    stays bit-symmetric.

    The stepper holds two n x n scratch blocks, used by every k it
    advances, so a step allocates little beyond its outputs; a stepper
    must not be advanced from two threads at once.

    The speeds that max_dt computes for a g are kept, one entry per
    array, until the next advance of that array, so a caller that checks a
    state before stepping it pays for one velocity pass, not two, even when
    several states share the stepper.  The array must not change in
    between.
    """

    def __init__(self, grid, operator, params):
        self.grid = grid
        self.params = params.validate()
        self.dmat = _d_matrix(grid, operator)
        self.dmat.flags.writeable = False
        self._memo = {}     # identity of g -> (g, its speeds) from max_dt
        n = grid.n_cells
        # face fluxes and a second operand, each for one n x n block
        self._face = np.empty((n, n))
        self._work = np.empty((n, n))

    def speeds(self, g):
        """Per-label speeds a (k, n) and row masses (k, n) of g."""
        return _speeds(g, self.dmat, self.grid.dx, self.params.eta_cutoff)

    def max_dt(self, f, g):
        """Realized stability bound of a state, and the state's total mass.

        The bound is dx / (2 max|a|) at the state's own speeds, with the
        diffusion limit combined into it and capped by the death limit.
        The mass dx sum f + dx^2 sum g reuses the row masses of the speeds,
        and is not finite whenever f or g holds a value that is not finite.
        """
        a, rows = self.speeds(g)
        if len(self._memo) >= _MEMO_ENTRIES:
            del self._memo[next(iter(self._memo))]
        # g itself is kept so that its buffer, and with it the key, stays
        # unique while the entry lives
        self._memo[_identity(g)] = (g, a)
        mass = self.grid.dx * f.sum() + self.grid.dx * rows.sum()
        return _dt_bound(self.grid.dx, float(np.max(np.abs(a))),
                         self.params), float(mass)

    def advance(self, f, g, dt):
        """Advance (f, g) by dt; returns new arrays.

        Raises ConfigError unless 0 < dt < the realized bound of max_dt.
        """
        if dt is None:
            raise ConfigError("continuum: dt must be given for a step")
        params = self.params
        dx = self.grid.dx
        k = f.shape[0]
        memo = self._memo.pop(_identity(g), None)
        a = memo[1] if memo is not None else self.speeds(g)[0]
        bound = _dt_bound(dx, float(np.max(np.abs(a))), params)
        if not (dt > 0 and dt < bound):
            raise ConfigError("continuum: dt=%g violates 0 < dt < %g"
                              % (dt, bound))
        # the stencil of each face: wl = lam cl + nu >= 0 on the left cell
        # and wr = lam cr - nu <= 0 on the right one
        al, ar = a[:, :-1], a[:, 1:]
        amax = np.maximum(np.abs(al), np.abs(ar))
        lam = dt / dx
        nu = dt * params.diffusion_sigma / dx ** 2
        wl = lam * (0.5 * (al + amax)) + nu
        wr = lam * (0.5 * (ar - amax)) - nu

        f_new = np.empty(f.shape)
        _flux_difference((wl * f[:, :-1] + wr * f[:, 1:]).T, f_new.T)
        np.subtract(f, f_new, out=f_new)

        g_new = np.empty(g.shape)
        face, work = self._face, self._work
        face0, work0 = face[:-1], work[:-1]
        # axis 0 of every block at the speeds of its row label, the
        # difference straight into g_new; einsum, as a column broadcast
        # multiplies through a buffer
        for p in range(k):
            for q in range(k):
                np.einsum("i,ij->ij", wl[p], g[p, q, :-1], out=face0)
                np.einsum("i,ij->ij", wr[p], g[p, q, 1:], out=work0)
                face0 += work0
                _flux_difference(face0, g_new[p, q])
        birth_death = params.birth_rate > 0 or params.death_rate > 0
        for q in range(k):
            for p in range(q + 1):
                block = g_new[p, q]
                # the axis-1 difference of block (p, q) is the axis-0
                # difference of its mirror g[q, p] = g[p, q].T, transposed;
                # copied first, as a ufunc reading a transposed operand
                # buffers it
                np.copyto(work, g_new[q, p].T)
                work += block
                np.subtract(g[p, q], work, out=block)
                if birth_death:
                    # splitting stage on the post-transport state, block +=
                    # dt (b f_p f_q - d block); no renormalization
                    np.einsum("i,j->ij", f_new[p], f_new[q], out=face)
                    face *= params.birth_rate
                    np.multiply(params.death_rate, block, out=work)
                    face -= work
                    face *= dt
                    block += face
                if q != p:
                    g_new[q, p] = block.T
        return f_new, g_new


# each stepper may hold a few states' g for its speed memo, so keep few
@lru_cache(maxsize=2)
def _cached_stepper(grid, operator, params):
    return ContinuumStepper(grid, operator, params)


def stepper_for(grid, operator, params):
    """The ContinuumStepper for grid, operator and params (dt is ignored).

    Steppers are cached, so the step functions validate the parameters and
    build the D matrix once per grid, operator and parameter set.
    """
    return _cached_stepper(grid, operator, replace(params, dt=None))


def step_unlabeled(f, g, operator, params):
    """Advance (f, g) one step; returns new fields on the same grid.

    g.values must be bit-symmetric, as ContinuumStepper requires.
    """
    if f.grid is not g.grid and f.grid.n_cells != g.grid.n_cells:
        raise ConfigError("continuum: f and g live on different grids")
    f_new, g_new = stepper_for(f.grid, operator, params).advance(
        f.values[None, :], g.values[None, None, :, :], params.dt)
    return ScalarField(f.grid, f_new[0]), PairField(f.grid, g_new[0, 0])


def step_labeled(fields, operator, params):
    """Advance labeled (f, g) one step; label p transports with its own speed.

    fields.g must be bit-symmetric, g[q, p] == g[p, q].T, as
    ContinuumStepper requires.
    """
    f_new, g_new = stepper_for(fields.grid, operator, params).advance(
        fields.f, fields.g, params.dt)
    return LabeledFields(fields.grid, f_new, g_new)
