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
1964). The momentum operators move with the viscosity every step. Each
is applied as a stencil, which gives the explicit half, and solved by a
banded Cholesky factor of its symmetric part (implicit viscosity plus
``I/dt``) with iterative refinement removing the small skew convective
remainder.
"""

from __future__ import annotations

import numpy as np
# unused here; perfbench/spans.py patches ``solver.spla``, so the name stays
import scipy.sparse.linalg as spla  # noqa: F401
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpbtrf, dpbtrs

from ..errors import NumericalError
from ..snapshots import FieldLayout, SnapshotMatrix
from .model import FlowState, SimConfig, initial_state, viscosity_of

DIV_TOL = 1e-8
SOLVE_TOL = 1e-10
# refinement sweeps per momentum solve before it counts as not converged.
# The sweeps stop once the error estimate fails to halve, and halving from
# ||w|| reaches round-off (2^-52 ||w||) in 52 sweeps. A cavity solve takes
# about 2, Taylor-Green up to 12, and flow at viscosity 1e-4 near the CFL
# limit up to 23
MAX_SWEEPS = 60
_EPS = np.finfo(float).eps


def _apply(coeffs, shift, w):
    """``(shift I + L) w`` for the five-point coefficients ``coeffs`` of
    :meth:`CavitySolver._stencil` and a field ``w`` of their shape."""
    diag, east, west, north, south = coeffs
    out = (shift + diag) * w
    out[:, :-1] += east[:, :-1] * w[:, 1:]
    out[:, 1:] += west[:, 1:] * w[:, :-1]
    out[:-1] += north[:-1] * w[1:]
    out[1:] += south[1:] * w[:-1]
    return out


def _symmetric_band(coeffs, shift):
    """The symmetric part of ``shift I + L`` in LAPACK lower band storage:
    nodes in natural row-major order, so the bandwidth is the row length
    ``m`` and row ``d`` of the returned ``(m + 1, n)`` array holds the
    ``d``-th subdiagonal."""
    diag, east, west, north, south = coeffs
    rows, m = diag.shape
    # node-major, so the transpose is the Fortran-ordered (m + 1, n) array
    band = np.zeros((rows * m, m + 1))
    band[:, 0] = (shift + diag).ravel()
    band.reshape(rows, m, m + 1)[:, :-1, 1] = 0.5 * (east[:, :-1] + west[:, 1:])
    band[:-m, m] = 0.5 * (north[:-1] + south[1:]).ravel()
    return band.T


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
    from Neumann :func:`_second_difference` matrices at construction.
    The momentum operators move with the viscosity field, so each step
    rebuilds them as five-point coefficient arrays (:meth:`_stencil`)
    and solves them by :meth:`_solve_component`: a banded Cholesky factor
    of the symmetric part, then iterative refinement against the full
    operator. A factor that is not positive definite and a refinement
    that has not converged in ``MAX_SWEEPS`` sweeps raise
    :class:`NumericalError`, as does every solve that fails the residual
    check of :func:`_check_residual`.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        g = cfg.grid
        self.dx, self.dy = g.dx, g.dy
        self._ghost = -1.0 if cfg.wall_tangential == "no_slip" else 1.0
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
    def _stencil(self, wb, ob, mu, d_own, d_other) -> np.ndarray:
        """Coefficients of L = (conv - diff) / 2 on the interior faces normal
        to axis 1, stacked as diagonal, east, west, north and south fields;
        a coupling that would leave the field is never read. ``wb``/``d_own``
        and ``ob``/``d_other`` convect along axes 1 and 0."""
        # mu edge-padded by one row above and below
        pad = np.concatenate((mu[:1], mu, mu[-1:]))
        corner = 0.25 * (pad[:-1, :-1] + pad[:-1, 1:] + pad[1:, :-1] + pad[1:, 1:])
        ce = mu[:, 1:] / d_own**2
        cw = mu[:, :-1] / d_own**2
        cn = corner[1:] / d_other**2
        cs = corner[:-1] / d_other**2
        coeffs = np.stack([
            0.5 * (ce + cw + cn + cs),
            0.5 * (wb / (2 * d_own) - ce),
            0.5 * (-wb / (2 * d_own) - cw),
            0.5 * (ob / (2 * d_other) - cn),
            0.5 * (-ob / (2 * d_other) - cs),
        ])
        diag, east, west, north, south = coeffs
        # fold the tangential wall ghost (ghost = sgn * interior) into
        # the diagonal on the two walls the component slides along
        diag[0, :] += self._ghost * south[0, :]
        diag[-1, :] += self._ghost * north[-1, :]
        return coeffs

    def _solve_component(self, coeffs, old, forcing, label):
        """Solve ``A w = (I/dt - L) old + forcing`` for ``A = I/dt + L``.

        ``A = S + K`` splits into its symmetric part S, which ``I/dt`` and
        the viscous stencil make positive definite, and the skew
        convective remainder K. S is factored by banded Cholesky
        (``dpbtrf``) and K removed by iterative refinement ``w <- w +
        S^-1 (rhs - A w)`` (Concus & Golub 1976; Widlund 1978), with A
        applied as the stencil. The error contracts by
        ``||S^-1/2 K S^-1/2||_2`` per sweep, so the sweeps converge iff
        that norm is below 1; it is at most ``dt ||K||``, about half the
        CFL number of the convecting velocity.

        The sweeps stop at the round-off floor, measured on the Jacobi-
        scaled residual ``D^-1 (rhs - A w)``, which estimates the error of
        each row in units of w: once its norm is at most machine epsilon
        times ``||w||``, or stops halving (the halving test of LAPACK's
        ``dgerfs``; Arioli, Demmel & Duff 1989). The scaling puts solid
        rows, with viscosities up to 1e8, on the footing of liquid ones,
        so the liquid converges even where the solid dominates ``||rhs||``.
        ``dgerfs``'s componentwise backward error is not used: on rows
        near rest it falls unevenly and stopped low-viscosity solves early.
        """
        shift = 1.0 / self.cfg.dt
        factor, info = dpbtrf(_symmetric_band(coeffs, shift), lower=1, overwrite_ab=1)
        if info != 0:
            raise NumericalError(
                f"{label} factorization failed: symmetric part not positive definite "
                f"(dpbtrf info {info})"
            )

        def solve(r):
            return dpbtrs(factor, r.ravel(), lower=1)[0].reshape(r.shape)

        rhs = (2.0 * shift) * old - _apply(coeffs, shift, old) + forcing
        inverse_diagonal = 1.0 / (shift + coeffs[0])
        sol = solve(rhs)
        last = np.inf
        for _ in range(MAX_SWEEPS):
            residual = rhs - _apply(coeffs, shift, sol)
            error = np.linalg.norm(inverse_diagonal * residual)
            if error <= _EPS * np.linalg.norm(sol) or not error <= 0.5 * last:
                break
            sol += solve(residual)
            last = error
        else:
            raise NumericalError(f"{label} refinement did not converge in {MAX_SWEEPS} sweeps")
        _check_residual(sol, residual, rhs, SOLVE_TOL, label)
        return sol

    def _component(self, w, wbar, obar, p, mu, forcing, d_own, d_other, label):
        """Tentative field of the component ``w`` whose faces are normal to
        array axis 1; ``wbar`` and ``obar`` are the convecting velocities
        of this and the other component. Wall faces keep their values."""
        ob = 0.25 * (obar[:-1, :-1] + obar[:-1, 1:] + obar[1:, :-1] + obar[1:, 1:])
        grad = (p[:, 1:] - p[:, :-1]) / d_own
        coeffs = self._stencil(wbar[:, 1:-1], ob, mu, d_own, d_other)
        out = w.copy()
        out[:, 1:-1] = self._solve_component(coeffs, w[:, 1:-1], forcing - grad, label)
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
                                 self.dx, self.dy, "u-momentum")
        v_tent = self._component(state.v.T, vbar.T, ubar.T, state.p_star.T, mu.T, buoyancy.T,
                                 self.dy, self.dx, "v-momentum")
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
            raise NumericalError(
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

    def run(self, observer=None) -> SnapshotMatrix:
        """March ``n_steps`` steps from :func:`initial_state`, collecting a
        snapshot column every ``snap_every`` steps; ``observer(state)`` is
        called after each collected snapshot. Each snapshot is written
        once, into its column of a snapshot-major matrix."""
        cfg = self.cfg
        layout = snapshot_layout(cfg.grid)
        rows = np.empty((cfg.n_steps // cfg.snap_every, layout.n_rows))
        labels = []
        state = initial_state(cfg)
        for _ in range(cfg.n_steps):
            try:
                state = self.step(state)
            except NumericalError as exc:
                raise NumericalError(
                    f"aborted at step {state.step + 1} (t = {state.time + cfg.dt:.6g}): {exc}"
                ) from exc
            if state.step % cfg.snap_every == 0:
                np.concatenate(
                    [state.u.ravel(), state.v.ravel(), state.p_star.ravel(), state.temp.ravel()],
                    out=rows[len(labels)],
                )
                labels.append(state.time)
                if observer is not None:
                    observer(state)
        return SnapshotMatrix(rows.T, layout, labels)


def snapshot_layout(grid) -> FieldLayout:
    """Row layout of a cavity snapshot: the u, v, p and T blocks."""
    return FieldLayout.from_sizes(
        [("u", grid.n_u), ("v", grid.n_v), ("p", grid.n_cells), ("T", grid.n_cells)]
    )


def run_case(cfg: SimConfig, observer=None) -> SnapshotMatrix:
    """Run one configured case from the quiescent initial state."""
    return CavitySolver(cfg).run(observer=observer)
