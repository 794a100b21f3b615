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
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import NumericalError, StabilityError
from ..snapshots import FieldLayout, SnapshotMatrix, assemble
from .model import FlowState, SimConfig, initial_state, viscosity_of

DIV_TOL = 1e-8
POISSON_TOL = 1e-10
MOMENTUM_TOL = 1e-10
# minimum-degree column ordering on A^T + A: every operator factorized
# here is structurally symmetric, and on the momentum systems this cuts
# LU fill by about 40 % against the default COLAMD
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


class CavitySolver:
    """Holds the grid operators and advances :class:`FlowState` objects.

    The pressure-Poisson and temperature systems are factorized once at
    construction; the momentum systems change with the viscosity field
    and are refactorized every step. Every LU uses the ``MMD_AT_PLUS_A``
    column ordering. For the momentum systems it is computed once per
    grid shape and shared between solvers: each step's matrix is filled
    into a CSC pattern already symmetrically permuted into that ordering
    (``1/dt`` added on its diagonal) and factored in natural order with
    single-column panels; the right-hand side is permuted in and the
    solution out. A momentum solve whose residual exceeds
    ``MOMENTUM_TOL`` relative to its right-hand side raises
    :class:`NumericalError`.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        g = cfg.grid
        self.dx, self.dy = g.dx, g.dy
        self._ghost = -1.0 if cfg.wall_tangential == "no_slip" else 1.0
        self._u_pattern = _Pattern(g.ny, g.nx - 1)
        self._v_pattern = _Pattern(g.ny - 1, g.nx)
        self._build_poisson()
        self._build_temperature()

    # ------------------------------------------------------------------
    # pressure correction
    # ------------------------------------------------------------------
    def _build_poisson(self):
        g = self.cfg.grid
        nx, ny, dx, dy = g.nx, g.ny, self.dx, self.dy
        n = nx * ny
        idx = np.arange(n).reshape(ny, nx)
        rows, cols, vals = [], [], []
        diag = np.zeros((ny, nx))
        for dj, di, h2 in ((0, 1, dx * dx), (0, -1, dx * dx), (1, 0, dy * dy), (-1, 0, dy * dy)):
            src = idx[max(0, -dj) : ny - max(0, dj), max(0, -di) : nx - max(0, di)]
            dst = idx[max(0, dj) : ny - max(0, -dj), max(0, di) : nx - max(0, -di)]
            rows.append(src.ravel())
            cols.append(dst.ravel())
            vals.append(np.full(src.size, 1.0 / h2))
            diag[max(0, -dj) : ny - max(0, dj), max(0, -di) : nx - max(0, di)] -= 1.0 / h2
        rows.append(idx.ravel())
        cols.append(idx.ravel())
        vals.append(diag.ravel())
        # border the singular all-Neumann system with the zero-mean
        # constraint (Lagrange multiplier) instead of pinning a cell
        rows.append(np.full(n, n))
        cols.append(np.arange(n))
        vals.append(np.ones(n))
        rows.append(np.arange(n))
        cols.append(np.full(n, n))
        vals.append(np.ones(n))
        matrix = sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n + 1, n + 1),
        )
        self._poisson_matrix = matrix
        try:
            self._poisson_lu = spla.splu(matrix, permc_spec=_PERMC_SPEC)
        except RuntimeError as exc:
            raise NumericalError(f"pressure Poisson factorization failed: {exc}") from exc

    def divergence(self, u, v) -> np.ndarray:
        return (u[:, 1:] - u[:, :-1]) / self.dx + (v[1:, :] - v[:-1, :]) / self.dy

    def pressure_correction(self, u_tent, v_tent) -> np.ndarray:
        """Zero-mean correction phi with lap(phi) = div(u_tent) / dt."""
        div = self.divergence(u_tent, v_tent)
        rhs = np.append((div / self.cfg.dt).ravel(), 0.0)
        sol = self._poisson_lu.solve(rhs)
        residual = np.linalg.norm(self._poisson_matrix @ sol - rhs)
        scale = max(np.linalg.norm(rhs), 1.0)
        if not np.all(np.isfinite(sol)) or residual > POISSON_TOL * scale:
            raise NumericalError(
                "pressure Poisson solve did not reach tolerance",
                residual=float(residual / scale),
            )
        return sol[:-1].reshape(self.cfg.grid.cell_shape)

    # ------------------------------------------------------------------
    # momentum
    # ------------------------------------------------------------------
    def _stencil_u(self, ub, vb, mu) -> _Stencil:
        """L = (conv - diff) / 2 acting on interior u faces (ny, nx-1)."""
        mu_e = mu[:, 1:]
        mu_w = mu[:, :-1]
        pad = np.pad(mu, ((1, 1), (0, 0)), mode="edge")
        mu_n = 0.25 * (pad[1:-1, :-1] + pad[1:-1, 1:] + pad[2:, :-1] + pad[2:, 1:])
        mu_s = 0.25 * (pad[:-2, :-1] + pad[:-2, 1:] + pad[1:-1, :-1] + pad[1:-1, 1:])
        return self._combine(ub, vb, mu_e, mu_w, mu_n, mu_s, axis="u")

    def _stencil_v(self, ub, vb, mu) -> _Stencil:
        """L = (conv - diff) / 2 acting on interior v faces (ny-1, nx)."""
        mu_n = mu[1:, :]
        mu_s = mu[:-1, :]
        pad = np.pad(mu, ((0, 0), (1, 1)), mode="edge")
        mu_e = 0.25 * (pad[:-1, 1:-1] + pad[1:, 1:-1] + pad[:-1, 2:] + pad[1:, 2:])
        mu_w = 0.25 * (pad[:-1, :-2] + pad[1:, :-2] + pad[:-1, 1:-1] + pad[1:, 1:-1])
        return self._combine(ub, vb, mu_e, mu_w, mu_n, mu_s, axis="v")

    def _combine(self, ub, vb, mu_e, mu_w, mu_n, mu_s, axis) -> _Stencil:
        dx, dy = self.dx, self.dy
        ce = mu_e / dx**2
        cw = mu_w / dx**2
        cn = mu_n / dy**2
        cs = mu_s / dy**2
        east = 0.5 * (ub / (2 * dx) - ce)
        west = 0.5 * (-ub / (2 * dx) - cw)
        north = 0.5 * (vb / (2 * dy) - cn)
        south = 0.5 * (-vb / (2 * dy) - cs)
        diag = 0.5 * (ce + cw + cn + cs)
        # fold the tangential wall ghost (ghost = sgn * interior) into
        # the diagonal on the two walls the component slides along
        if axis == "u":
            diag[0, :] += self._ghost * south[0, :]
            diag[-1, :] += self._ghost * north[-1, :]
        else:
            diag[:, 0] += self._ghost * west[:, 0]
            diag[:, -1] += self._ghost * east[:, -1]
        return _Stencil(diag, east, west, north, south)

    def _solve_component(self, stencil, pattern, old_interior, forcing, label):
        """Solve the permuted system; returns the field in natural order."""
        dt = self.cfg.dt
        matrix = pattern.matrix(stencil, 1.0 / dt)
        rhs = (old_interior / dt - stencil.apply(old_interior) + forcing).ravel()[pattern.perm]
        try:
            lu = spla.splu(matrix, **_MOMENTUM_FACTOR)
        except RuntimeError as exc:
            raise NumericalError(f"{label}-momentum factorization failed: {exc}") from exc
        sol = lu.solve(rhs)
        residual = np.linalg.norm(matrix @ sol - rhs)
        scale = max(np.linalg.norm(rhs), 1.0)
        if not np.all(np.isfinite(sol)) or residual > MOMENTUM_TOL * scale:
            raise NumericalError(
                f"{label}-momentum solve did not reach tolerance",
                residual=float(residual / scale),
            )
        out = np.empty_like(sol)
        out[pattern.perm] = sol
        return out.reshape(old_interior.shape)

    def tentative_velocity(self, state: FlowState):
        """Implicit momentum predictor; returns (u_tent, v_tent).

        Wall-normal faces stay at zero (impermeable box); the pressure
        gradient of the current guess and buoyancy enter the right-hand
        side.
        """
        cfg = self.cfg
        dx, dy = self.dx, self.dy
        mu = viscosity_of(cfg.viscosity, state.temp)
        if state.step == 0:
            ubar, vbar = state.u, state.v
        else:
            ubar = 1.5 * state.u - 0.5 * state.u_prev
            vbar = 1.5 * state.v - 0.5 * state.v_prev

        # u faces i = 1..nx-1
        ub = ubar[:, 1:-1]
        vb = 0.25 * (vbar[:-1, :-1] + vbar[:-1, 1:] + vbar[1:, :-1] + vbar[1:, 1:])
        grad_px = (state.p_star[:, 1:] - state.p_star[:, :-1]) / dx
        u_tent = state.u.copy()
        u_tent[:, 1:-1] = self._solve_component(
            self._stencil_u(ub, vb, mu), self._u_pattern, state.u[:, 1:-1], -grad_px, "u"
        )

        # v faces j = 1..ny-1
        vb2 = vbar[1:-1, :]
        ub2 = 0.25 * (ubar[:-1, :-1] + ubar[:-1, 1:] + ubar[1:, :-1] + ubar[1:, 1:])
        grad_py = (state.p_star[1:, :] - state.p_star[:-1, :]) / dy
        t_face = 0.5 * (state.temp[:-1, :] + state.temp[1:, :])
        buoyancy = cfg.buoyancy_coeff * (t_face - cfg.t_ref)
        v_tent = state.v.copy()
        v_tent[1:-1, :] = self._solve_component(
            self._stencil_v(ub2, vb2, mu), self._v_pattern, state.v[1:-1, :],
            -grad_py + buoyancy, "v",
        )
        return u_tent, v_tent

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
    def _build_temperature(self):
        cfg = self.cfg
        g = cfg.grid
        nx, ny, dx, dy = g.nx, g.ny, self.dx, self.dy
        k = cfg.thermal_diffusivity
        n = nx * ny
        idx = np.arange(n).reshape(ny, nx)
        rows, cols, vals = [], [], []
        diag = np.full((ny, nx), 1.0 / cfg.dt)
        for dj, di, h2 in ((0, 1, dx * dx), (0, -1, dx * dx), (1, 0, dy * dy), (-1, 0, dy * dy)):
            src = idx[max(0, -dj) : ny - max(0, dj), max(0, -di) : nx - max(0, di)]
            dst = idx[max(0, dj) : ny - max(0, -dj), max(0, di) : nx - max(0, -di)]
            rows.append(src.ravel())
            cols.append(dst.ravel())
            vals.append(np.full(src.size, -k / h2))
            diag[max(0, -dj) : ny - max(0, dj), max(0, -di) : nx - max(0, di)] += k / h2
        wall = cfg.right_wall
        if wall.kind == "robin":
            diag[:, -1] += wall.h / dx
            self._wall_rhs = wall.h * wall.t_ambient / dx
        else:
            diag[:, -1] += 2.0 * k / dx**2
            self._wall_rhs = 2.0 * k * wall.t_cold / dx**2
        rows.append(idx.ravel())
        cols.append(idx.ravel())
        vals.append(diag.ravel())
        matrix = sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )
        try:
            self._temp_lu = spla.splu(matrix, permc_spec=_PERMC_SPEC)
        except RuntimeError as exc:
            raise NumericalError(f"temperature factorization failed: {exc}") from exc

    def temperature_step(self, state: FlowState, u=None, v=None) -> np.ndarray:
        """Advance temperature: explicit upwind advection, implicit
        diffusion, cooled right wall, adiabatic elsewhere."""
        cfg = self.cfg
        g = cfg.grid
        dx, dy = self.dx, self.dy
        u = state.u if u is None else u
        v = state.v if v is None else v
        temp = state.temp
        flux_x = np.zeros((g.ny, g.nx + 1))
        ui = u[:, 1:-1]
        flux_x[:, 1:-1] = np.where(ui > 0, temp[:, :-1], temp[:, 1:]) * ui
        flux_y = np.zeros((g.ny + 1, g.nx))
        vi = v[1:-1, :]
        flux_y[1:-1, :] = np.where(vi > 0, temp[:-1, :], temp[1:, :]) * vi
        advection = (flux_x[:, 1:] - flux_x[:, :-1]) / dx + (flux_y[1:, :] - flux_y[:-1, :]) / dy
        rhs = temp / cfg.dt - advection
        rhs[:, -1] += self._wall_rhs
        new_temp = self._temp_lu.solve(rhs.ravel()).reshape(g.cell_shape)
        if not np.all(np.isfinite(new_temp)):
            raise NumericalError("temperature solve produced non-finite values")
        return new_temp

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
        cfg = self.cfg
        work = state
        for inner in range(cfg.inner_iterations):
            u_tent, v_tent = self.tentative_velocity(work)
            phi = self.pressure_correction(u_tent, v_tent)
            if inner < cfg.inner_iterations - 1:
                work = FlowState(
                    u=work.u, v=work.v, p_star=work.p_star + phi, phi=phi,
                    temp=work.temp, u_prev=work.u_prev, v_prev=work.v_prev,
                    time=work.time, step=work.step,
                )
        u_new, v_new = self.velocity_update(u_tent, v_tent, phi)
        self._check_projected(u_new, v_new)
        self.check_cfl(u_new, v_new)
        temp_new = self.temperature_step(state, u_new, v_new)
        return FlowState(
            u=u_new,
            v=v_new,
            p_star=work.p_star + phi,
            phi=phi,
            temp=temp_new,
            u_prev=state.u,
            v_prev=state.v,
            time=state.time + cfg.dt,
            step=state.step + 1,
        )

    def snapshot_layout(self) -> FieldLayout:
        g = self.cfg.grid
        return FieldLayout.from_sizes(
            [("u", g.n_u), ("v", g.n_v), ("p", g.n_cells), ("T", g.n_cells)]
        )

    def run(self, state: FlowState | None = None, observer=None) -> SnapshotMatrix:
        """March ``n_steps`` steps, collecting a snapshot column every
        ``snap_every`` steps; ``observer(state)`` is called after each
        collected snapshot."""
        cfg = self.cfg
        state = initial_state(cfg) if state is None else state
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
