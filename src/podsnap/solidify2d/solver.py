"""Fractional-step solver for buoyant flow with freezing viscosity.

Each step runs the classical three-stage projection on the staggered
grid: an implicit tentative-momentum solve per component, a pressure-
correction Poisson solve with homogeneous Neumann walls, and an exact
discrete velocity projection. Temperature then advances by explicit
upwind advection plus implicit diffusion with the cooled right wall.

Scheme details: the convecting velocity is the two-level Adams-
Bashforth extrapolation ``1.5 u^{n-1} - 0.5 u^{n-2}``, the convected
and diffused velocity is the Crank-Nicolson average ``(u^I + u^{n-1}) / 2``,
viscosity is evaluated at the previous temperature (keeping the
momentum systems linear), and buoyancy is ``g beta (T^{n-1} - t_ref)``
on vertical faces. On this grid the discrete projection is exact, so
the corrected velocity is divergence-free to solver precision.

All three implicit operators are five-point stencils. The pressure and
temperature operators have constant coefficients on this uniform grid,
so each is a 1D operator along y plus one along x, solved by fast
diagonalisation in the eigenbases of the two (Lynch, Rice & Thomas
1964); momentum is factored every step.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal

from ..errors import NumericalError, StabilityError
from ..snapshots import FieldLayout, SnapshotMatrix, assemble
from .model import FlowState, SimConfig, initial_state, viscosity_of

DIV_TOL = 1e-8
SOLVE_TOL = 1e-10
# minimum-degree column ordering on A^T + A: the momentum systems are
# structurally symmetric, and on them this cuts LU fill by about 40 %
# against the default COLAMD
_PERMC_SPEC = "MMD_AT_PLUS_A"
# the momentum systems arrive already symmetrically permuted into that
# ordering (see _Pattern), so their per-step factor keeps the natural
# order; single-column panels suit a five-point operator this sparse.
# Together these take a late-step 64x64 factor from about 11 to 7 ms at
# unchanged fill (2-vCPU x86-64 VM)
_MOMENTUM_FACTOR = {"permc_spec": "NATURAL", "panel_size": 1}


def _five_point(ny, nx):
    """(rows, cols) of the five-point operator on an ny*nx field, in the
    entry order of :meth:`_Stencil.values` (diag/east/west/north/south)."""
    idx = np.arange(ny * nx).reshape(ny, nx)
    blocks = [
        (idx, idx),
        (idx[:, :-1], idx[:, 1:]),
        (idx[:, 1:], idx[:, :-1]),
        (idx[:-1, :], idx[1:, :]),
        (idx[1:, :], idx[:-1, :]),
    ]
    rows = np.concatenate([r.ravel() for r, _ in blocks])
    cols = np.concatenate([c.ravel() for _, c in blocks])
    return rows, cols


@functools.lru_cache(maxsize=8)
def _mmd_position(ny, nx):
    """Position of each node of an ny*nx field in the ``MMD_AT_PLUS_A``
    ordering of the five-point structure.

    The ordering reads the structure only, so one probe factor of a
    diagonally dominant matrix of this structure yields the ordering
    SuperLU derives from every step's matrix. Cached per field shape, the
    probe is paid once per grid rather than once per solver; only this
    array is shared, as caching whole patterns raised peak RSS by about
    7 MB at 64x64.
    """
    rows, cols = _five_point(ny, nx)
    n = ny * nx
    probe = sp.csc_matrix((np.where(rows == cols, 5.0, -1.0), (rows, cols)), shape=(n, n))
    # the panel width shapes the numeric factor only; perm_c is a view
    # that would keep the probe's whole factor alive, so keep a copy
    lu = spla.splu(probe, permc_spec=_PERMC_SPEC, panel_size=1)
    position = lu.perm_c.astype(np.int64)
    position.flags.writeable = False
    return position


class _Pattern:
    """Fixed CSC structure of the five-point operator on an ny*nx field.

    Built once per solver. The structure is stored symmetrically permuted
    into its ``MMD_AT_PLUS_A`` ordering (:func:`_mmd_position`): row and
    column ``k`` of :meth:`matrix` are node ``perm[k]`` of the field.
    ``order`` gathers :meth:`_Stencil.values` into that CSC data order,
    so each step fills ``data`` without a COO conversion, index sort or
    reordering.
    """

    __slots__ = ("n", "rows", "cols", "perm", "order", "indices", "indptr")

    def __init__(self, ny, nx):
        self.n = ny * nx
        self.rows, self.cols = _five_point(ny, nx)
        position = _mmd_position(ny, nx)
        self.perm = np.argsort(position)
        prow, pcol = position[self.rows], position[self.cols]
        # column-major sort key; (row, col) pairs are unique
        self.order = np.argsort(pcol * self.n + prow)
        self.indices = prow[self.order].astype(np.int32)
        counts = np.bincount(pcol, minlength=self.n)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)

    def matrix(self, stencil, shift):
        """Permuted CSC matrix of ``stencil`` plus ``shift`` on the diagonal."""
        vals = stencil.values()
        vals[: self.n] += shift
        return sp.csc_matrix(
            (vals[self.order], self.indices, self.indptr), shape=(self.n, self.n)
        )


class _Stencil:
    """Five-point operator stored as per-node coefficient arrays."""

    __slots__ = ("diag", "east", "west", "north", "south")

    def __init__(self, diag, east, west, north, south):
        self.diag = diag
        self.east = east
        self.west = west
        self.north = north
        self.south = south

    def apply(self, f):
        out = self.diag * f
        out[:, :-1] += self.east[:, :-1] * f[:, 1:]
        out[:, 1:] += self.west[:, 1:] * f[:, :-1]
        out[:-1, :] += self.north[:-1, :] * f[1:, :]
        out[1:, :] += self.south[1:, :] * f[:-1, :]
        return out

    def values(self):
        return np.concatenate(
            [
                self.diag.ravel(),
                self.east[:, :-1].ravel(),
                self.west[:, 1:].ravel(),
                self.north[:-1, :].ravel(),
                self.south[1:, :].ravel(),
            ]
        )


def _factor(matrix, label, **options):
    """SuperLU factor of ``matrix``; a failure raises :class:`NumericalError`."""
    try:
        return spla.splu(matrix, **options)
    except RuntimeError as exc:
        raise NumericalError(f"{label} factorization failed: {exc}") from exc


def _check_residual(sol, residual, rhs, tol, label):
    """Raise :class:`NumericalError` unless the solution ``sol`` is finite
    and ``|residual| <= tol * max(|rhs|, 1)``."""
    residual = np.linalg.norm(residual)
    scale = max(np.linalg.norm(rhs), 1.0)
    if not np.all(np.isfinite(sol)) or residual > tol * scale:
        raise NumericalError(
            f"{label} solve did not reach tolerance", residual=float(residual / scale)
        )


def _second_difference(n, d):
    """Dense ``-d^2/dx^2`` on n cells of width d with homogeneous-Neumann
    ends: a wall cell simply drops its missing neighbour."""
    off = np.full(n - 1, -1.0 / (d * d))
    a = np.diag(off, 1) + np.diag(off, -1)
    np.fill_diagonal(a, -a.sum(axis=1))
    return a


class _Separable:
    """``shift + A_y (x) I + I (x) A_x`` on an ny*nx field, from two
    symmetric tridiagonal 1D operators ``ay`` (along axis 0) and ``ax``.

    Solved by fast diagonalisation (Lynch, Rice & Thomas 1964): with each
    ``A = Q diag(lam) Q^T``, ``f -> Q_y (Q_y^T f Q_x / eig) Q_x^T`` where
    ``eig = shift + lam_y + lam_x``; every solve is residual-checked.
    """

    def __init__(self, ay, ax, shift, label):
        self.ay, self.ax, self.shift, self.label = ay, ax, shift, label
        lam_y, self.qy = eigh_tridiagonal(np.diag(ay), np.diag(ay, 1))
        lam_x, self.qx = eigh_tridiagonal(np.diag(ax), np.diag(ax, 1))
        self.eig = shift + lam_y[:, None] + lam_x[None, :]

    def apply(self, f):
        return self.shift * f + self.ay @ f + f @ self.ax

    def solve(self, rhs):
        sol = self.qy @ ((self.qy.T @ rhs @ self.qx) / self.eig) @ self.qx.T
        _check_residual(sol, self.apply(sol) - rhs, rhs, SOLVE_TOL, self.label)
        return sol


class CavitySolver:
    """Holds the grid operators and advances :class:`FlowState` objects.

    The pressure and temperature operators are :class:`_Separable`, built
    from Neumann :func:`_second_difference` matrices at construction. The
    momentum stencils change with the viscosity field and are
    refactorized every step: each is filled into a CSC pattern already
    symmetrically permuted into the grid's shared ``MMD_AT_PLUS_A``
    ordering (``1/dt`` added on its diagonal) and factored in natural
    order with single-column panels; the right-hand side is permuted in
    and the solution out. Every factor goes through :func:`_factor`, and
    every solve through the residual check of :func:`_check_residual`.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        g = cfg.grid
        self.dx, self.dy = g.dx, g.dy
        self._ghost = -1.0 if cfg.wall_tangential == "no_slip" else 1.0
        self._u_pattern = _Pattern(g.ny, g.nx - 1)
        self._v_pattern = _Pattern(g.nx, g.ny - 1)
        ay, ax = _second_difference(g.ny, g.dy), _second_difference(g.nx, g.dx)
        self._pressure = _Separable(ay, ax, 0.0, "pressure Poisson")
        # the constant mode comes first in ascending order; an infinite
        # eigenvalue there keeps phi zero-mean
        self._pressure.eig[0, 0] = np.inf
        k, wall = cfg.thermal_diffusivity, cfg.right_wall
        ax = k * ax
        ax[-1, -1] += wall.h / g.dx
        self._temperature = _Separable(k * ay, ax, 1.0 / cfg.dt, "temperature")

    # ------------------------------------------------------------------
    # pressure correction
    # ------------------------------------------------------------------
    def divergence(self, u, v) -> np.ndarray:
        return (u[:, 1:] - u[:, :-1]) / self.dx + (v[1:, :] - v[:-1, :]) / self.dy

    def pressure_correction(self, u_tent, v_tent) -> np.ndarray:
        """Zero-mean correction phi with lap(phi) = div(u_tent) / dt."""
        rhs = self.divergence(u_tent, v_tent) / self.cfg.dt
        # constants lie outside the Neumann Laplacian's range: -lap(phi)
        # meets -rhs less its mean
        return self._pressure.solve(rhs.mean() - rhs)

    # ------------------------------------------------------------------
    # momentum
    # ------------------------------------------------------------------
    def _stencil(self, wb, ob, mu, d_own, d_other) -> _Stencil:
        """L = (conv - diff) / 2 on the interior faces normal to axis 1;
        ``wb``/``d_own`` and ``ob``/``d_other`` convect along axes 1 and 0."""
        pad = np.pad(mu, ((1, 1), (0, 0)), mode="edge")
        corner = 0.25 * (pad[:-1, :-1] + pad[:-1, 1:] + pad[1:, :-1] + pad[1:, 1:])
        ce = mu[:, 1:] / d_own**2
        cw = mu[:, :-1] / d_own**2
        cn = corner[1:] / d_other**2
        cs = corner[:-1] / d_other**2
        east = 0.5 * (wb / (2 * d_own) - ce)
        west = 0.5 * (-wb / (2 * d_own) - cw)
        north = 0.5 * (ob / (2 * d_other) - cn)
        south = 0.5 * (-ob / (2 * d_other) - cs)
        diag = 0.5 * (ce + cw + cn + cs)
        # fold the tangential wall ghost (ghost = sgn * interior) into
        # the diagonal on the two walls the component slides along
        diag[0, :] += self._ghost * south[0, :]
        diag[-1, :] += self._ghost * north[-1, :]
        return _Stencil(diag, east, west, north, south)

    def _solve_component(self, stencil, pattern, old_interior, forcing, label):
        """Solve the permuted system; returns the field in natural order."""
        dt = self.cfg.dt
        matrix = pattern.matrix(stencil, 1.0 / dt)
        rhs = (old_interior / dt - stencil.apply(old_interior) + forcing).ravel()[pattern.perm]
        sol = _factor(matrix, label, **_MOMENTUM_FACTOR).solve(rhs)
        _check_residual(sol, matrix @ sol - rhs, rhs, SOLVE_TOL, label)
        out = np.empty_like(sol)
        out[pattern.perm] = sol
        return out.reshape(old_interior.shape)

    def _component(self, w, wbar, obar, p, mu, forcing, d_own, d_other, pattern, label):
        """Tentative field of the component ``w`` whose faces are normal to
        array axis 1; ``wbar`` and ``obar`` are the convecting velocities
        of this and the other component. Wall faces keep their values."""
        ob = 0.25 * (obar[:-1, :-1] + obar[:-1, 1:] + obar[1:, :-1] + obar[1:, 1:])
        grad = (p[:, 1:] - p[:, :-1]) / d_own
        stencil = self._stencil(wbar[:, 1:-1], ob, mu, d_own, d_other)
        out = w.copy()
        out[:, 1:-1] = self._solve_component(stencil, pattern, w[:, 1:-1], forcing - grad, label)
        return out

    def tentative_velocity(self, state: FlowState):
        """Implicit momentum predictor; returns (u_tent, v_tent).

        Wall-normal faces stay at zero (impermeable box); the pressure
        gradient of the current guess and buoyancy enter the right-hand
        side. The predictor is written once, for u; v is solved as the u
        problem on transposed fields, with dx and dy swapped.
        """
        cfg = self.cfg
        mu = viscosity_of(cfg.viscosity, state.temp)
        if state.step == 0:
            ubar, vbar = state.u, state.v
        else:
            ubar = 1.5 * state.u - 0.5 * state.u_prev
            vbar = 1.5 * state.v - 0.5 * state.v_prev
        t_face = 0.5 * (state.temp[:-1, :] + state.temp[1:, :])
        buoyancy = cfg.buoyancy_coeff * (t_face - cfg.t_ref)
        u_tent = self._component(state.u, ubar, vbar, state.p_star, mu, 0.0,
                                 self.dx, self.dy, self._u_pattern, "u-momentum")
        v_tent = self._component(state.v.T, vbar.T, ubar.T, state.p_star.T, mu.T, buoyancy.T,
                                 self.dy, self.dx, self._v_pattern, "v-momentum")
        return u_tent, v_tent.T

    def velocity_update(self, u_tent, v_tent, phi):
        """Apply the correction: u <- u_tent - dt grad(phi).

        With phi from :meth:`pressure_correction` of the same tentative
        field this is an exact discrete projection; :meth:`step`
        enforces the resulting divergence bound.
        """
        dt = self.cfg.dt
        u_new = u_tent.copy()
        v_new = v_tent.copy()
        u_new[:, 1:-1] -= dt * (phi[:, 1:] - phi[:, :-1]) / self.dx
        v_new[1:-1, :] -= dt * (phi[1:, :] - phi[:-1, :]) / self.dy
        return u_new, v_new

    def _check_projected(self, u_new, v_new):
        div_norm = np.max(np.abs(self.divergence(u_new, v_new)))
        scale = max(1.0, np.max(np.abs(u_new)), np.max(np.abs(v_new)))
        if div_norm > DIV_TOL * scale:
            raise NumericalError(
                "projection left residual divergence", residual=float(div_norm / scale)
            )

    # ------------------------------------------------------------------
    # temperature
    # ------------------------------------------------------------------
    def temperature_step(self, state: FlowState, u, v) -> np.ndarray:
        """Advance temperature: explicit upwind advection, implicit
        diffusion, cooled right wall, adiabatic elsewhere; ``u``, ``v``
        are the advecting face velocities."""
        cfg = self.cfg
        g = cfg.grid
        dx, dy = self.dx, self.dy
        temp = state.temp
        flux_x = np.zeros((g.ny, g.nx + 1))
        ui = u[:, 1:-1]
        flux_x[:, 1:-1] = np.where(ui > 0, temp[:, :-1], temp[:, 1:]) * ui
        flux_y = np.zeros((g.ny + 1, g.nx))
        vi = v[1:-1, :]
        flux_y[1:-1, :] = np.where(vi > 0, temp[:-1, :], temp[1:, :]) * vi
        advection = (flux_x[:, 1:] - flux_x[:, :-1]) / dx + (flux_y[1:, :] - flux_y[:-1, :]) / dy
        rhs = temp / cfg.dt - advection
        rhs[:, -1] += cfg.right_wall.h * cfg.right_wall.t_ambient / dx
        # solve for the change, so a field at rest stays exactly at rest
        return temp + self._temperature.solve(rhs - self._temperature.apply(temp))

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def check_cfl(self, u, v) -> float:
        cfl = self.cfg.dt * (np.max(np.abs(u)) / self.dx + np.max(np.abs(v)) / self.dy)
        if cfl > 1.0:
            raise StabilityError(
                f"advective CFL number {cfl:.3f} exceeds 1; reduce dt below "
                f"{self.cfg.dt / cfl:.3e}"
            )
        return cfl

    def step(self, state: FlowState) -> FlowState:
        """One full time step; returns the next state."""
        u_tent, v_tent = self.tentative_velocity(state)
        phi = self.pressure_correction(u_tent, v_tent)
        u_new, v_new = self.velocity_update(u_tent, v_tent, phi)
        self._check_projected(u_new, v_new)
        self.check_cfl(u_new, v_new)
        temp_new = self.temperature_step(state, u_new, v_new)
        return FlowState(
            u=u_new,
            v=v_new,
            p_star=state.p_star + phi,
            temp=temp_new,
            u_prev=state.u,
            v_prev=state.v,
            time=state.time + self.cfg.dt,
            step=state.step + 1,
        )

    def snapshot_layout(self) -> FieldLayout:
        g = self.cfg.grid
        return FieldLayout.from_sizes(
            [("u", g.n_u), ("v", g.n_v), ("p", g.n_cells), ("T", g.n_cells)]
        )

    def run(self, observer=None) -> SnapshotMatrix:
        """March ``n_steps`` steps from :func:`initial_state`, collecting a
        snapshot column every ``snap_every`` steps; ``observer(state)`` is
        called after each collected snapshot."""
        cfg = self.cfg
        state = initial_state(cfg)
        columns, labels = [], []
        for _ in range(cfg.n_steps):
            try:
                state = self.step(state)
            except (NumericalError, StabilityError) as exc:
                raise type(exc)(
                    f"aborted at step {state.step + 1} (t = {state.time + cfg.dt:.6g}): {exc}"
                ) from exc
            if state.step % cfg.snap_every == 0:
                columns.append(
                    np.concatenate(
                        [state.u.ravel(), state.v.ravel(), state.p_star.ravel(), state.temp.ravel()]
                    )
                )
                labels.append(state.time)
                if observer is not None:
                    observer(state)
        return assemble(columns, self.snapshot_layout(), labels)


def run_case(cfg: SimConfig, observer=None) -> SnapshotMatrix:
    """Run one configured case from the quiescent initial state."""
    return CavitySolver(cfg).run(observer=observer)
