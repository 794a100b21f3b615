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
1964). The momentum operators move with the viscosity and the
convecting velocity every step. Each component's system is a
:class:`_Momentum`, and the banded Cholesky factor of its viscous part
that it keeps between steps is a :class:`_KeptBand`.
"""

from __future__ import annotations

import numpy as np
# unused here; perfbench/spans.py patches ``solver.spla``, so the name stays
import scipy.sparse.linalg as spla  # noqa: F401
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dpbtrf

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
    :meth:`_Momentum.stencil` and a field ``w`` of their shape.

    The field is walked flat, which runs about 40 % faster than by rows:
    east and west are the next and previous entries, north and south one
    row away. The east and west couplings across a row end are zero, so
    the neighbour that wraps around adds nothing."""
    line = w.shape[1]
    diag, east, west, north, south = coeffs.reshape(5, -1)
    flat = w.reshape(-1)
    out = (shift + diag) * flat
    out[:-1] += east[:-1] * flat[1:]
    out[1:] += west[1:] * flat[:-1]
    out[:-line] += north[:-line] * flat[line:]
    out[line:] += south[line:] * flat[:-line]
    return out.reshape(w.shape)


def _check_residual(sol, residual, rhs, label):
    """Raise :class:`NumericalError` unless the solution ``sol`` is finite
    and ``|residual| <= SOLVE_TOL * max(|rhs|, 1)``."""
    residual = np.linalg.norm(residual)
    scale = max(np.linalg.norm(rhs), 1.0)
    if not np.all(np.isfinite(sol)) or residual > SOLVE_TOL * scale:
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
        _check_residual(sol, self.apply(sol) - rhs, rhs, self.label)
        return sol


class _KeptBand:
    """The kept Cholesky factor ``L L^T`` of a symmetric positive definite
    five-point operator on a field of ``shape``, named ``label`` in errors,
    whose nodes are numbered in numpy index ``order`` ('C' row by row, 'F'
    column by column); a numbered line is the band width ``kd`` long.

    Kept are the band ``diagonals``, flat ``(3, n)``: each node's LAPACK
    lower band column, its main diagonal, first subdiagonal and ``kd``-th,
    zero where a coupling would leave the field; and L's transpose in upper
    band storage, ``upper[kd - d, j] = L[j, j - d]``, allocated once with
    ``kd`` zero columns past the last.
    """

    def __init__(self, shape, order, label):
        self.order, self.label = order, label
        self.kd = kd = shape[0] if order == "F" else shape[1]
        self.upper = np.zeros((kd + 1, shape[0] * shape[1] + kd), order="F")
        self.clear()

    def clear(self):
        """Forget the factor; the next refresh factors every column."""
        self.diagonals = None

    def refresh(self, coeffs, shift):
        """Keep the band diagonals of ``shift I + A``, A the symmetric five-point
        ``coeffs`` (as :meth:`_Momentum.stencil`), and bring ``upper`` up to date.

        A Cholesky factor's leading columns depend only on the matrix's
        leading columns, so the kept factor's columns before the first
        one, ``j0``, whose diagonals changed are kept; a cleared factor's
        diagonals differ everywhere. L's columns from ``j0 - kd`` on are
        built in a zeroed lower band workspace: its ``kd`` context columns,
        zero before column 0, hold ``B = L[j0:j0+kd, j0-kd:j0]``, and
        ``B B^T`` is subtracted from the leading corner of the new trailing
        band, which ``dpbtrf`` then factors alone. A factor that fails
        is cleared. ``dpbtrf(lower=0)`` on upper storage gives the same
        factor 4.4 to 8.9 times slower on OpenBLAS (kd 31 to 64).

        Every move is a strided view, with no index arrays. Past the first
        ``kd`` entries of either storage, the entry at ``c (kd + 1) + d kd``
        is the other storage's ``(d, c)``: L's band is read from ``upper``
        (from its zero columns past the last where ``c + d >= n``) and
        written back from the workspace. ``B[r, c]`` and the corner's
        ``(r, c)`` lie at stride 1 along r and kd along c.
        """
        # the couplings along a numbered line and across to the next one
        diag, along, _, across, _ = coeffs
        if self.order == "F":
            diag, along, across = diag.T, across.T, along.T
        diagonals = np.zeros((3,) + diag.shape)
        diagonals[0] = shift + diag
        diagonals[1, :, :-1] = along[:, :-1]
        diagonals[2, :-1] = across[:-1]
        diagonals = diagonals.reshape(3, -1)
        kd, upper, n = self.kd, self.upper, diagonals.shape[1]
        # a cleared factor's None differs from every diagonal
        changed = np.flatnonzero(np.any(diagonals != self.diagonals, axis=0))
        j0 = changed[0] if changed.size else n
        self.diagonals = diagonals
        if j0 == n:
            return

        def transposed(flat, columns):
            step = flat.itemsize
            return as_strided(flat[kd:], shape=(kd + 1, columns),
                              strides=(kd * step, (kd + 1) * step), writeable=False)

        lower = np.zeros((kd + 1, n - j0 + kd), order="F")
        # the context columns from column 0 on
        c0 = max(j0 - kd, 0)
        lower[:, kd - j0 + c0:kd] = transposed(upper.reshape(-1, order="F")[c0 * (kd + 1):],
                                               j0 - c0)
        # the trailing columns; Fortran order keeps them contiguous
        band = lower[:, kd:]
        band[0], band[1], band[kd] = diagonals[:, j0:]
        work, start = lower.reshape(-1, order="F"), kd * (kd + 1)
        # B's rows stop at the last column
        k = min(kd, n - j0)
        # B through a view of its transpose; triu drops the entries
        # below B's triangle, which belong to other factor columns
        block = np.triu(work[kd:start].reshape(kd, kd)[:, :k].T)
        update = block @ block.T
        corner = work[start:start + k * kd].reshape(k, kd)[:, :k]
        # the view's entries below its diagonal alias other band entries
        corner -= np.triu(update.T)
        trailing, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info != 0:
            self.clear()
            raise NumericalError(
                f"{self.label} factorization failed: viscous part not positive definite "
                f"(dpbtrf info {info} from column {j0})"
            )
        # a no-op when dpbtrf factored in place, as it does for this band
        band[...] = trailing
        upper[:, j0:n] = transposed(work, n - j0)

    def solve(self, r):
        """``(shift I + A)^-1 r`` for a field ``r``, by two sweeps of
        ``upper``: L forward in the dot form of ``dtbsv`` with transpose,
        then ``L^T`` backward in its axpy form, which starts on the columns
        the first sweep left in cache. The dot form from lower storage, which
        ``dpbtrs`` uses for ``L^T``, runs 1.5 times slower on OpenBLAS at
        kd = 64 and 2.8 times at kd = 63."""
        kd, order = self.kd, self.order
        upper = self.upper[:, :-kd]
        x = dtbsv(kd, upper, r.flatten(order), trans=1, overwrite_x=1)
        x = dtbsv(kd, upper, x, overwrite_x=1)
        # back in r's row-major layout, which the stencil applies read fastest
        return np.ascontiguousarray(x.reshape(r.shape, order=order))


class _Momentum:
    """One momentum component's system ``A = I/dt + L`` on its interior
    faces, which are normal to array axis 1 (v is solved as the u problem
    on transposed fields), and what the component keeps between steps.

    Fixed at construction: the ``label`` that errors name, the spacings
    ``d_own`` along the component and ``d_other`` across it, ``shift =
    1/dt``, the tangential wall ``ghost`` sign, and ``band``, the
    :class:`_KeptBand` of the interior field ``shape`` with its nodes
    numbered in numpy index ``order``.

    ``A = S + C`` splits into ``S = I/dt + V``, V the viscous part
    (:meth:`viscous_part`), which is symmetric positive definite and
    depends on the viscosity alone, and the convective remainder C. Kept
    are the viscosity ``mu`` and its viscous fields ``viscous``. The
    viscosity moves only where the melt is below freezing, a slab against
    the cooled right wall, so both and S's factor are reused while it has
    not moved, and the factor is refreshed from its first moved column.
    """

    def __init__(self, label, shape, d_own, d_other, shift, ghost, order):
        self.label, self.d_own, self.d_other = label, d_own, d_other
        self.shift, self.ghost = shift, ghost
        self.band = _KeptBand(shape, order, label)
        self.clear()

    def clear(self):
        """Forget the kept system; the next solve factors every column."""
        self.mu = self.viscous = None
        self.band.clear()

    def viscous_part(self, mu):
        """The viscous part V = -diff / 2 of L as diagonal, east, west,
        north and south fields; a coupling that would leave the field is
        never read, and the tangential wall ghost is left to
        :meth:`stencil`. V depends on the viscosity ``mu`` alone."""
        # mu edge-padded by one row above and below
        pad = np.concatenate((mu[:1], mu, mu[-1:]))
        corner = 0.25 * (pad[:-1, :-1] + pad[:-1, 1:] + pad[1:, :-1] + pad[1:, 1:])
        ce = mu[:, 1:] / self.d_own**2
        cw = mu[:, :-1] / self.d_own**2
        cn = corner[1:] / self.d_other**2
        cs = corner[:-1] / self.d_other**2
        return 0.5 * np.stack([ce + cw + cn + cs, -ce, -cw, -cn, -cs])

    def stencil(self, wb, ob, viscous):
        """Coefficients of L = (conv - diff) / 2, stacked as diagonal, east,
        west, north and south fields: the central convection by ``wb``
        along axis 1 and ``ob`` along axis 0 added to the fields of
        ``viscous`` (:meth:`viscous_part`). The east and west couplings
        across a row end, which would leave the field, are zero."""
        along = wb / (4 * self.d_own)
        across = ob / (4 * self.d_other)
        coeffs = viscous.copy()
        diag, east, west, north, south = coeffs
        east += along
        west -= along
        north += across
        south -= across
        # fold the tangential wall ghost (ghost = sgn * interior) into
        # the diagonal on the two walls the component slides along
        diag[0, :] += self.ghost * south[0, :]
        diag[-1, :] += self.ghost * north[-1, :]
        # :func:`_apply` reads them across the row end
        east[:, -1] = 0.0
        west[:, 0] = 0.0
        return coeffs

    def solve(self, coeffs, old, forcing):
        """Solve ``A w = (I/dt - L) old + forcing`` for the stencil ``coeffs``
        of L (:meth:`stencil`), with S's kept factor ``band``.

        C is removed by iterative refinement ``w <- w + S^-1 (rhs - A w)`` (Concus & Golub
        1976; Widlund 1978), with A applied as the stencil. The error
        contracts by ``||S^-1/2 C S^-1/2||_2`` per sweep, so the sweeps
        converge iff that norm is below 1; it is at most ``dt ||C||``,
        about half the CFL number of the convecting velocity.

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
        shift, inverse = self.shift, self.band.solve
        rhs = (2.0 * shift) * old - _apply(coeffs, shift, old) + forcing
        inverse_diagonal = 1.0 / (shift + coeffs[0])
        sol = inverse(rhs)
        last = np.inf
        for _ in range(MAX_SWEEPS):
            residual = rhs - _apply(coeffs, shift, sol)
            error = np.linalg.norm(inverse_diagonal * residual)
            if error <= _EPS * np.linalg.norm(sol) or not error <= 0.5 * last:
                break
            sol += inverse(residual)
            last = error
        else:
            raise NumericalError(
                f"{self.label} refinement did not converge in {MAX_SWEEPS} sweeps"
            )
        _check_residual(sol, residual, rhs, self.label)
        return sol

    def tentative(self, w, wbar, obar, p, mu, forcing):
        """Tentative field of the component ``w``; ``wbar`` and ``obar`` are
        the convecting velocities of this and the other component, ``p``
        the pressure and ``mu`` the cell viscosity. The kept system serves
        unchanged while ``mu`` equals the kept viscosity exactly. Wall
        faces keep their values."""
        ob = 0.25 * (obar[:-1, :-1] + obar[:-1, 1:] + obar[1:, :-1] + obar[1:, 1:])
        grad = (p[:, 1:] - p[:, :-1]) / self.d_own
        if not np.array_equal(self.mu, mu):
            viscous = self.viscous_part(mu)
            self.band.refresh(self.stencil(0.0, 0.0, viscous), self.shift)
            # kept only once S is factored, so a failed refresh is retried
            self.mu, self.viscous = mu, viscous
        coeffs = self.stencil(wbar[:, 1:-1], ob, self.viscous)
        out = w.copy()
        out[:, 1:-1] = self.solve(coeffs, w[:, 1:-1], forcing - grad)
        return out


class CavitySolver:
    """Holds the grid operators and advances :class:`FlowState` objects.

    The pressure and temperature operators are :class:`_Separable`, built
    from Neumann :func:`_second_difference` matrices at construction, and
    each momentum component is a :class:`_Momentum`. A momentum factor
    that is not positive definite and a refinement that has not converged
    in ``MAX_SWEEPS`` sweeps raise :class:`NumericalError`, as does every
    solve that fails the residual check of :func:`_check_residual`.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        g = cfg.grid
        self.dx, self.dy = g.dx, g.dy
        ay, ax = _second_difference(g.ny, g.dy), _second_difference(g.nx, g.dx)
        self._pressure = _Separable(ay, ax, 0.0, "pressure Poisson")
        # the constant mode comes first in ascending order; an infinite
        # eigenvalue there keeps phi zero-mean
        self._pressure.eig[0, 0] = np.inf
        k, wall = cfg.thermal_diffusivity, cfg.right_wall
        ax = k * ax
        ax[-1, -1] += wall.h / g.dx
        self._temperature = _Separable(k * ay, ax, 1.0 / cfg.dt, "temperature")
        ghost, shift = (-1.0 if cfg.wall_tangential == "no_slip" else 1.0), 1.0 / cfg.dt
        # both factors number the faces x-major, u column by column and v in
        # the natural order of its transposed field, so a viscosity change
        # near the cooled right wall leaves the leading columns of both in place
        self._u = _Momentum("u-momentum", (g.ny, g.nx - 1), g.dx, g.dy, shift, ghost, "F")
        self._v = _Momentum("v-momentum", (g.nx, g.ny - 1), g.dy, g.dx, shift, ghost, "C")

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
    def tentative_velocity(self, state: FlowState):
        """Implicit momentum predictor; returns (u_tent, v_tent).

        Wall-normal faces stay at zero (impermeable box); the pressure
        gradient of the current guess and buoyancy enter the right-hand
        side. The predictor is written once, for u; v is solved as the u
        problem on transposed fields, with dx and dy swapped.
        """
        cfg = self.cfg
        mu = viscosity_of(cfg.viscosity, state.temp)
        ubar = 1.5 * state.u - 0.5 * state.u_prev
        vbar = 1.5 * state.v - 0.5 * state.v_prev
        t_face = 0.5 * (state.temp[:-1, :] + state.temp[1:, :])
        buoyancy = cfg.buoyancy_coeff * (t_face - cfg.t_ref)
        u_tent = self._u.tentative(state.u, ubar, vbar, state.p_star, mu, 0.0)
        v_tent = self._v.tentative(state.v.T, vbar.T, ubar.T, state.p_star.T, mu.T, buoyancy.T)
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
        for system in (self._u, self._v):
            system.clear()
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
