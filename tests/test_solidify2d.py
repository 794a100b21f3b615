"""2D fractional-step solver: projection exactness, oracles, physics."""

import dataclasses
import typing

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf
from scipy.optimize import brentq

from conftest import advance_taylor_green, taylor_green
from podsnap.errors import ArgumentError, DataError, FormatError, NumericalError
from podsnap.grids import StaggeredGrid2D
from podsnap.pod import unit_energy_weighted
from podsnap.solidify2d import (
    CavitySolver,
    CoolingWall,
    SimConfig,
    ViscosityModel,
    default_mushy_config,
    default_pure_metal_config,
    initial_state,
    parse_config_text,
    read_config,
    run_case,
    viscosity_of,
    write_config,
)
from podsnap.solidify2d import solver as solver_module
from podsnap.solidify2d.configfile import _SCHEMA, config_text


def small_config(**overrides):
    overrides.setdefault("grid", StaggeredGrid2D(16, 16))
    overrides.setdefault("dt", 2e-3)
    overrides.setdefault("n_steps", 10)
    overrides.setdefault("snap_every", 5)
    return SimConfig(**overrides)


def quiescent_config(**overrides):
    """Uniform temperature at the reference, cooling disabled."""
    overrides.setdefault("right_wall", CoolingWall(h=0.0))
    overrides.setdefault("initial_temp", 700.0)
    overrides.setdefault("t_ref", 700.0)
    return small_config(**overrides)


class TestViscosityModel:
    def test_liquid_above_freezing(self):
        model = ViscosityModel(kind="mushy", mu_liquid=1.0)
        assert viscosity_of(model, 660.0) == 1.0

    def test_mushy_quadratic_subcooling(self):
        model = ViscosityModel(kind="mushy", mu_liquid=1.0)
        assert viscosity_of(model, 640.0) == pytest.approx(1.0 + 10.0 * 100.0)

    def test_continuous_at_freezing_point(self):
        model = ViscosityModel(kind="mushy", mu_liquid=1.0)
        assert viscosity_of(model, 650.0) == 1.0

    def test_sharp_jump(self):
        model = ViscosityModel(kind="sharp_jump", mu_liquid=1.0, jump_factor=1e6)
        assert viscosity_of(model, 649.9) == pytest.approx(1e6)
        assert viscosity_of(model, 650.0) == 1.0

    def test_array_evaluation(self):
        model = ViscosityModel(kind="mushy", mu_liquid=1.0)
        temps = np.array([[660.0, 640.0], [650.0, 645.0]])
        mu = viscosity_of(model, temps)
        assert mu.shape == temps.shape
        assert mu[0, 0] == 1.0 and mu[0, 1] == pytest.approx(1001.0)

    def test_small_jump_factor_rejected(self):
        with pytest.raises(ArgumentError):
            ViscosityModel(kind="sharp_jump", jump_factor=10.0)


class TestTentativeVelocity:
    def test_quiescent_stays_zero(self):
        cfg = quiescent_config()
        solver = CavitySolver(cfg)
        u_tent, v_tent = solver.tentative_velocity(initial_state(cfg))
        assert np.max(np.abs(u_tent)) <= 1e-14
        assert np.max(np.abs(v_tent)) <= 1e-14

    def test_buoyancy_lifts_warm_fluid(self):
        # uniform T above the reference with no-slip walls: after one
        # step from rest the only force is buoyancy, and the momentum
        # matrix is an M-matrix, so tentative v cannot go negative
        cfg = small_config(initial_temp=700.0, t_ref=650.0, wall_tangential="no_slip")
        solver = CavitySolver(cfg)
        u_tent, v_tent = solver.tentative_velocity(initial_state(cfg))
        assert np.min(v_tent) >= 0.0
        assert np.max(v_tent) > 0.0

    def test_wall_faces_pinned(self):
        cfg = small_config(initial_temp=700.0, t_ref=600.0)
        solver = CavitySolver(cfg)
        u_tent, v_tent = solver.tentative_velocity(initial_state(cfg))
        assert np.all(u_tent[:, 0] == 0.0) and np.all(u_tent[:, -1] == 0.0)
        assert np.all(v_tent[0, :] == 0.0) and np.all(v_tent[-1, :] == 0.0)


# the node order of each component's factor: x-major for both
ORDER = {"u": "F", "v": "C"}


def momentum(solver, component):
    """The solver's momentum system of ``component``."""
    return solver._u if component == "u" else solver._v


def interior_shape(g, component):
    """The interior field shape of ``component``; v is the u problem on
    transposed fields, so its shape is transposed."""
    return (g.ny, g.nx - 1) if component == "u" else (g.nx, g.ny - 1)


def random_values(solver, component, rng):
    """Momentum-operator coefficients of ``component`` from random
    velocities and temperatures, as the ``(coeffs, viscous)`` pair of
    ``stencil`` and ``viscous_part``; returns them with the interior field
    shape they act on."""
    g = solver.cfg.grid
    mu = viscosity_of(solver.cfg.viscosity, rng.uniform(600.0, 700.0, g.cell_shape))
    system, shape = momentum(solver, component), interior_shape(g, component)
    viscous = system.viscous_part(mu if component == "u" else mu.T)
    coeffs = system.stencil(rng.normal(size=shape), rng.normal(size=shape), viscous)
    return (coeffs, viscous), shape


def solve_system(system, values, old, forcing):
    """``system.solve`` of the ``(coeffs, viscous)`` pair ``values``, its
    viscous part factored and kept by ``system.band`` first."""
    coeffs, viscous = values
    system.band.refresh(system.stencil(0.0, 0.0, viscous), system.shift)
    return system.solve(coeffs, old, forcing)


def five_point(ny, nx):
    """(rows, cols) of the five-point operator on an ny*nx field in natural
    row-major order: diagonal, then east, west, north and south couplings."""
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


def reference_operator(coeffs, shape):
    """The operator L of the stencil ``coeffs`` in natural node order, built
    through COO from the couplings that stay inside the field."""
    diag, east, west, north, south = coeffs
    values = np.concatenate([
        diag.ravel(), east[:, :-1].ravel(), west[:, 1:].ravel(),
        north[:-1, :].ravel(), south[1:, :].ravel(),
    ])
    rows, cols = five_point(*shape)
    n = shape[0] * shape[1]
    return sp.csc_matrix((values, (rows, cols)), shape=(n, n))


def reference_matrix(coeffs, shape, dt):
    """The momentum matrix ``I/dt + L`` in natural node order."""
    n = shape[0] * shape[1]
    return reference_operator(coeffs, shape) + sp.identity(n, format="csc") / dt


def diagonals_to_dense(diagonals, kd):
    """The symmetric matrix whose nonzero lower band diagonals, main, first
    and kd-th, are the flat ``(3, n)`` array ``diagonals``."""
    n = diagonals.shape[1]
    dense = np.zeros((n, n))
    for d, values in zip((0, 1, kd), diagonals, strict=True):
        j = np.arange(n - d)
        dense[j + d, j] = dense[j, j + d] = values[: n - d]
    return dense


def unknowns(g, component):
    """Unknown number of each interior face of ``component``, laid out like
    the field: u faces are numbered row by row and v faces column by
    column, as v is solved as the u problem on transposed fields."""
    if component == "u":
        return np.arange(g.ny * (g.nx - 1)).reshape(g.ny, g.nx - 1)
    return np.arange(g.nx * (g.ny - 1)).reshape(g.nx, g.ny - 1).T


def x_major(dense, g, component):
    """``dense``, numbered as :func:`unknowns`, renumbered x-major: the
    faces of both components column by column."""
    natural = unknowns(g, component)
    columns = np.arange(natural.size).reshape(natural.shape[::-1]).T
    out = np.empty_like(dense)
    out[np.ix_(columns.ravel(), columns.ravel())] = dense[np.ix_(natural.ravel(), natural.ravel())]
    return out


def dense_momentum(cfg, ubar, vbar, mu, component):
    """The momentum matrix of ``component``, built face by face from the
    discretization: central convection and viscous couplings, both halved,
    the tangential-wall ghost folded into the diagonal and 1/dt added."""
    g = cfg.grid
    dx, dy = g.dx, g.dy
    ghost = -1.0 if cfg.wall_tangential == "no_slip" else 1.0
    idx = unknowns(g, component)
    rows, cols = idx.shape
    dense = np.zeros((idx.size, idx.size))

    def corner(j, i):
        """Viscosity at the corner below-left of cell (j, i), edge-padded."""
        cells = [(min(max(jj, 0), g.ny - 1), min(max(ii, 0), g.nx - 1))
                 for jj in (j - 1, j) for ii in (i - 1, i)]
        return 0.25 * sum(mu[c] for c in cells)

    for r in range(rows):
        for c in range(cols):
            if component == "u":
                # the face between cells (j, i-1) and (j, i)
                j, i = r, c + 1
                speed_x = ubar[j, i]
                speed_y = 0.25 * (vbar[j, i - 1] + vbar[j, i] + vbar[j + 1, i - 1] + vbar[j + 1, i])
                mu_e, mu_w = mu[j, i], mu[j, i - 1]
                mu_n, mu_s = corner(j + 1, i), corner(j, i)
            else:
                # the face between cells (j-1, i) and (j, i)
                j, i = r + 1, c
                speed_x = 0.25 * (ubar[j - 1, i] + ubar[j - 1, i + 1] + ubar[j, i] + ubar[j, i + 1])
                speed_y = vbar[j, i]
                mu_e, mu_w = corner(j, i + 1), corner(j, i)
                mu_n, mu_s = mu[j, i], mu[j - 1, i]
            k = idx[r, c]
            dense[k, k] += 1.0 / cfg.dt + 0.5 * (
                mu_e / dx**2 + mu_w / dx**2 + mu_n / dy**2 + mu_s / dy**2
            )
            couplings = {
                (0, 1): 0.5 * (speed_x / (2 * dx) - mu_e / dx**2),
                (0, -1): 0.5 * (-speed_x / (2 * dx) - mu_w / dx**2),
                (1, 0): 0.5 * (speed_y / (2 * dy) - mu_n / dy**2),
                (-1, 0): 0.5 * (-speed_y / (2 * dy) - mu_s / dy**2),
            }
            for (dr, dc), coeff in couplings.items():
                if 0 <= r + dr < rows and 0 <= c + dc < cols:
                    dense[k, idx[r + dr, c + dc]] += coeff
                elif (dr if component == "u" else dc) != 0:
                    # across a wall the component slides along: ghost = sgn * face
                    dense[k, k] += ghost * coeff
                # across a wall-normal face the neighbour is the wall's zero
    return dense


def random_state(cfg, rng):
    """A state with random velocities and pressure and temperatures within
    30 degrees of freezing, so the viscosity varies from cell to cell."""
    g, t_freeze = cfg.grid, cfg.viscosity.t_freeze
    return dataclasses.replace(
        initial_state(cfg),
        u=rng.normal(size=g.u_shape),
        v=rng.normal(size=g.v_shape),
        p_star=rng.normal(size=g.cell_shape),
        temp=rng.uniform(t_freeze - 30.0, t_freeze + 30.0, g.cell_shape),
    )


def count_factored(monkeypatch):
    """The list to which every ``dpbtrf`` call of the solver module appends
    the number of band columns it factors."""
    columns = []
    factor = solver_module.dpbtrf

    def record(band, **kw):
        columns.append(band.shape[1])
        return factor(band, **kw)

    monkeypatch.setattr(solver_module, "dpbtrf", record)
    return columns


class TestMomentumSystems:
    @pytest.mark.parametrize("tangential", ["no_slip", "free_slip"])
    @pytest.mark.parametrize("kind", ["mushy", "sharp_jump"])
    def test_matrices_match_dense_oracle_on_anisotropic_grid(self, monkeypatch, kind, tangential):
        # dx != dy and nx != ny, so a dx/dy or east/north swap in either
        # component's assembly shows
        g = StaggeredGrid2D(6, 4, lx=1.3, ly=0.7)
        cfg = small_config(
            grid=g, wall_tangential=tangential, viscosity=ViscosityModel(kind=kind)
        )
        solver = CavitySolver(cfg)
        state = random_state(cfg, np.random.default_rng(23))
        calls = []
        solve = solver_module._Momentum.solve

        def record(self, coeffs, old, forcing):
            calls.append((coeffs, self))
            return solve(self, coeffs, old, forcing)

        monkeypatch.setattr(solver_module._Momentum, "solve", record)
        solver.tentative_velocity(state)
        monkeypatch.undo()
        mu = viscosity_of(cfg.viscosity, state.temp)
        assert np.ptp(mu) > 0.0
        # the Adams-Bashforth convecting velocities; the random state's
        # previous level is zero, so they are 1.5 times the current ones
        ubar, vbar = 1.5 * state.u - 0.5 * state.u_prev, 1.5 * state.v - 0.5 * state.v_prev
        for component, (coeffs, system) in zip("uv", calls, strict=True):
            assert (system.label, system.band.order) == (f"{component}-momentum", ORDER[component])
            dense = dense_momentum(cfg, ubar, vbar, mu, component)
            scale = np.max(np.abs(dense))
            # the stencil apply, column by column from unit fields
            n = dense.shape[0]
            units = np.eye(n).reshape((n,) + coeffs.shape[1:])
            applied = np.stack([
                solver_module._apply(coeffs, 1.0 / cfg.dt, e).ravel() for e in units
            ], axis=1)
            np.testing.assert_allclose(applied, dense, rtol=1e-12, atol=1e-12 * scale)
            # the factored matrix: I/dt plus the viscous operator alone, its
            # wall ghost folded once, by the stencil, and the faces numbered x-major
            zero_u, zero_v = np.zeros(g.u_shape), np.zeros(g.v_shape)
            viscous_dense = x_major(dense_momentum(cfg, zero_u, zero_v, mu, component), g, component)
            np.testing.assert_allclose(
                diagonals_to_dense(system.band.diagonals, system.band.kd), viscous_dense,
                rtol=1e-12, atol=1e-12 * np.max(np.abs(viscous_dense)),
            )

    @pytest.mark.parametrize("tangential", ["no_slip", "free_slip"])
    @pytest.mark.parametrize("component", ["u", "v"])
    def test_solve_returns_natural_order(self, component, tangential):
        cfg = small_config(grid=StaggeredGrid2D(7, 5), wall_tangential=tangential)
        solver = CavitySolver(cfg)
        rng = np.random.default_rng(17)
        system, shape = random_values(solver, component, rng)
        coeffs = system[0]
        old, forcing = rng.normal(size=shape), rng.normal(size=shape)
        rhs = old.ravel() / cfg.dt - reference_operator(coeffs, shape) @ old.ravel() + forcing.ravel()
        expected = spla.spsolve(reference_matrix(coeffs, shape, cfg.dt), rhs)
        # either node order of the factor gives the field back in its layout
        kept = momentum(solver, component)
        for order in "CF":
            like = solver_module._Momentum(f"{component}-{order}", shape, kept.d_own,
                                           kept.d_other, kept.shift, kept.ghost, order)
            sol = solve_system(like, system, old, forcing)
            assert sol.shape == shape
            np.testing.assert_allclose(
                sol.ravel(), expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected))
            )

    @pytest.mark.parametrize("component", ["u", "v"])
    def test_refinement_reaches_componentwise_round_off(self, component):
        # solid rows, at a million times the liquid viscosity, dominate
        # ||rhs||; each row's residual must still reach round-off against
        # its own scale, or the liquid rows would stop short of it
        g = StaggeredGrid2D(9, 7)
        cfg = small_config(grid=g, viscosity=ViscosityModel(kind="sharp_jump"))
        solver = CavitySolver(cfg)
        # solid in the right half of the cavity, liquid in the left
        temp = np.where(np.arange(g.nx) < g.nx // 2, 700.0, 600.0) * np.ones(g.cell_shape)
        mu = viscosity_of(cfg.viscosity, temp)
        system, shape = momentum(solver, component), interior_shape(g, component)
        rng = np.random.default_rng(37)
        viscous = system.viscous_part(mu if component == "u" else mu.T)
        coeffs = system.stencil(rng.normal(size=shape), rng.normal(size=shape), viscous)
        old, forcing = rng.normal(size=shape), rng.normal(size=shape)
        sol = solve_system(system, (coeffs, viscous), old, forcing).ravel()
        matrix = reference_matrix(coeffs, shape, cfg.dt)
        old, forcing = old.ravel(), forcing.ravel()
        rhs = (2.0 / cfg.dt) * old - matrix @ old + forcing
        backward = np.abs(rhs - matrix @ sol) / (abs(matrix) @ np.abs(sol) + np.abs(rhs))
        assert backward.max() <= 4 * np.finfo(float).eps, backward.max()

    def test_residual_check_rejects_inaccurate_factor(self, monkeypatch):
        cfg = small_config(initial_temp=700.0, t_ref=650.0)
        solver = CavitySolver(cfg)
        state = initial_state(cfg)
        # refinement removes any factor error it can contract; halving the
        # Cholesky factor factors S/4, and each sweep then triples the error
        factor = solver_module.dpbtrf
        monkeypatch.setattr(
            solver_module, "dpbtrf",
            lambda band, **kw: (lambda c, info: (0.5 * c, info))(*factor(band, **kw)),
        )
        with pytest.raises(NumericalError) as err:
            solver.tentative_velocity(state)
        assert "v-momentum solve did not reach tolerance" in str(err.value)
        assert err.value.residual > 1e-10

    def test_indefinite_symmetric_part_raises(self):
        cfg = small_config()
        solver = CavitySolver(cfg)
        (coeffs, viscous), shape = random_values(solver, "u", np.random.default_rng(5))
        viscous[0, 3, 4] = -2.0 / cfg.dt
        with pytest.raises(NumericalError, match="u-momentum factorization failed"):
            solve_system(solver._u, (coeffs, viscous), np.zeros(shape), np.ones(shape))

    def test_refinement_that_cannot_converge_raises_within_the_cap(self, monkeypatch):
        # a uniform stream at 40 times the advective CFL limit: the sweeps
        # diverge, since ||S^-1/2 C S^-1/2|| is about half that number
        cfg = small_config(viscosity=ViscosityModel(kind="mushy", mu_liquid=1e-6))
        g = cfg.grid
        solver = CavitySolver(cfg)
        shape = (g.ny, g.nx - 1)
        speed = 40.0 * g.dx / cfg.dt
        viscous = solver._u.viscous_part(np.full(g.cell_shape, 1e-6))
        system = solver._u.stencil(np.full(shape, speed), np.zeros(shape), viscous), viscous
        rng = np.random.default_rng(9)
        old, forcing = rng.normal(size=shape), rng.normal(size=shape)
        # each solve with the factor sweeps two triangles
        sweeps = []
        sweep = solver_module.dtbsv
        monkeypatch.setattr(solver_module, "dtbsv",
                            lambda *a, **kw: sweeps.append(1) or sweep(*a, **kw))
        with pytest.raises(NumericalError, match="u-momentum solve did not reach tolerance"):
            solve_system(solver._u, system, old, forcing)
        solves = len(sweeps) / 2
        assert 1 < solves <= solver_module.MAX_SWEEPS + 1
        # a refinement still contracting when the cap is reached raises too
        monkeypatch.setattr(solver_module, "MAX_SWEEPS", 1)
        converging, shape = random_values(solver, "u", rng)
        with pytest.raises(NumericalError,
                           match="u-momentum refinement did not converge in 1 sweeps"):
            solve_system(solver._u, converging, old, forcing)

    @pytest.mark.parametrize("make", [default_mushy_config, default_pure_metal_config])
    def test_refinement_takes_at_most_three_solves_per_momentum_solve(self, monkeypatch, make):
        # a sweep form or rounding that costs a refinement pass shows here,
        # not only in the benchmark's step time: both cases read 2.85
        cfg = make(grid=StaggeredGrid2D(16, 16), n_steps=40, snap_every=2)
        sweeps = []
        sweep = solver_module.dtbsv
        monkeypatch.setattr(solver_module, "dtbsv",
                            lambda *a, **kw: sweeps.append(1) or sweep(*a, **kw))
        run_case(cfg)
        # two sweeps per solve with the factor, two momentum solves per step
        solves = len(sweeps) / 2 / (2 * cfg.n_steps)
        assert 1.0 < solves <= 3.0, solves

    def test_low_viscosity_run_stops_on_cfl_not_in_refinement(self):
        # near rest at viscosity 1e-5 the sweeps contract by up to about half
        # the CFL number and take up to 23 of them; the run must end at the
        # CFL check, on the step where a direct solve's run ends too
        cfg = SimConfig(grid=StaggeredGrid2D(32, 32), dt=0.005, n_steps=800,
                        viscosity=ViscosityModel(kind="sharp_jump", mu_liquid=1e-5))
        with pytest.raises(NumericalError, match=r"aborted at step 24 .*advective CFL number 1.106"):
            run_case(cfg)

    def test_ordering_changes_snapshots_only_at_round_off(self, monkeypatch):
        cfg = default_pure_metal_config(grid=StaggeredGrid2D(16, 16), n_steps=40, snap_every=2)
        shipped = run_case(cfg)
        frozen = np.sum(shipped.field("T") < cfg.viscosity.t_freeze, axis=0)
        # the wall column freezes on step 1; the front then advances
        assert frozen[-1] > frozen[0] > 0
        labels = []

        def direct(self, coeffs, old, forcing):
            # SuperLU with its default COLAMD ordering on the full
            # nonsymmetric matrix, no refinement
            labels.append(self.label)
            matrix = reference_matrix(coeffs, old.shape, cfg.dt)
            rhs = (2.0 / cfg.dt) * old.ravel() - matrix @ old.ravel() + forcing.ravel()
            return spla.spsolve(matrix, rhs).reshape(old.shape)

        monkeypatch.setattr(solver_module._Momentum, "solve", direct)
        reordered = run_case(cfg)
        assert labels == ["u-momentum", "v-momentum"] * cfg.n_steps
        moved = False
        for name in shipped.layout.names:
            a, b = shipped.field(name), reordered.field(name)
            rel = np.linalg.norm(a - b, axis=0) / np.linalg.norm(a, axis=0)
            assert np.all(rel <= 1e-10), (name, rel.max())
            moved |= not np.array_equal(a, b)
        assert moved


def band_transpose(lower):
    """The transpose of a lower band matrix ``lower`` in LAPACK upper band
    storage, ``upper[kd - d, j] = lower[d, j - d]``, laid out as a kept
    factor: the unreferenced top-left triangle and ``kd`` columns past the
    last are zero."""
    kd, n = lower.shape[0] - 1, lower.shape[1]
    upper = np.zeros((kd + 1, n + kd), order="F")
    for d in range(kd + 1):
        upper[kd - d, d:n] = lower[d, :n - d]
    return upper


def band_of(upper):
    """The lower band factor L whose transpose the kept ``upper`` holds,
    read through the transpose, ``lower[d, j] = upper[kd - d, j + d]``."""
    kd = upper.shape[0] - 1
    n = upper.shape[1] - kd
    lower = np.zeros((kd + 1, n), order="F")
    for d in range(kd + 1):
        lower[d] = upper[kd - d, d:d + n]
    return lower


def full_factor(diagonals, kd):
    """The lower band Cholesky factor of the band ``diagonals`` of a
    :class:`_KeptBand` of width ``kd``, every column factored by dpbtrf."""
    n = diagonals.shape[1]
    band = np.zeros((kd + 1, n), order="F")
    band[0], band[1], band[kd] = diagonals
    factor, info = dpbtrf(band, lower=1)
    assert info == 0
    return factor


def index_array_refactor(lower, diagonals, j0):
    """The reference for a refactor from column ``j0 >= kd``: the kept factor
    ``lower`` with its trailing columns replaced by those of the band
    ``diagonals`` of a :class:`_KeptBand`, less ``B B^T``, ``B = L[j0:j0+kd,
    j0-kd:j0]`` gathered and scattered through index arrays, then factored
    by dpbtrf."""
    kd, n = lower.shape[0] - 1, diagonals.shape[1]
    factor = np.asfortranarray(lower.copy())
    band = factor[:, j0:]
    band[:] = 0.0
    band[0], band[1], band[kd] = diagonals[:, j0:]
    # B's rows stop at the last column
    k = min(kd, n - j0)
    r, c = np.triu_indices(kd)
    r, c = r[r < k], c[r < k]
    block = np.zeros((k, kd))
    block[r, c] = factor[kd + r - c, j0 - kd + c]
    update = block @ block.T
    r, c = np.tril_indices(k)
    band[r - c, c] -= update[r, c]
    trailing, info = dpbtrf(band, lower=1, overwrite_ab=1)
    assert info == 0
    band[...] = trailing
    return factor


def random_operator(shape, rng):
    """Symmetric five-point coefficients on a field of ``shape``, stacked as
    :meth:`_Momentum.stencil` stacks them: random negative couplings, zero
    where they would leave the field, and a diagonal that dominates them,
    so the operator is positive definite."""
    east, north = np.zeros(shape), np.zeros(shape)
    east[:, :-1] = -rng.uniform(0.5, 1.5, (shape[0], shape[1] - 1))
    north[:-1] = -rng.uniform(0.5, 1.5, (shape[0] - 1, shape[1]))
    west, south = np.zeros(shape), np.zeros(shape)
    west[:, 1:], south[1:] = east[:, :-1], north[:-1]
    diag = rng.uniform(0.1, 1.0, shape) - (east + west + north + south)
    return np.stack([diag, east, west, north, south])


class TestKeptBand:
    """The kept factor on its own: a random symmetric positive definite
    five-point operator, factored in both node orders and refreshed from
    each kind of first changed column."""

    # nx != ny, so the two orders' band widths differ
    shape, shift = (9, 6), 2.0

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("start", ["first", "first_line", "interior", "short_block", "none"])
    def test_refresh_matches_a_full_factor(self, monkeypatch, order, start):
        band = solver_module._KeptBand(self.shape, order, "test")
        coeffs = random_operator(self.shape, np.random.default_rng(43))
        columns = count_factored(monkeypatch)
        band.refresh(coeffs, self.shift)
        kd, n = band.kd, coeffs[0].size
        assert columns == [n] and band.upper.flags.f_contiguous
        # the band is shift I plus the operator, its nodes numbered in order
        nodes = np.arange(n).reshape(self.shape).ravel(order)
        dense = (reference_operator(coeffs, self.shape) + self.shift * sp.identity(n)).toarray()
        np.testing.assert_array_equal(diagonals_to_dense(band.diagonals, kd),
                                      dense[np.ix_(nodes, nodes)])
        # a first factor is a full dpbtrf factor bit for bit, zeros included
        np.testing.assert_array_equal(band.upper, band_transpose(full_factor(band.diagonals, kd)))
        # within the first numbered line the context columns are zero; past
        # n - kd the block B has fewer than kd rows; from n nothing moved
        j0 = {"first": 0, "first_line": 3, "interior": 2 * kd + 1,
              "short_block": n - 3, "none": n}[start]
        before = band.upper.copy()
        moved = coeffs.copy()
        if j0 < n:
            # node j0's diagonal, the only band entry that moves
            moved[0][np.unravel_index(j0, self.shape, order=order)] *= 2.0
        band.refresh(moved, self.shift)
        if j0 == n:
            assert columns == [n]
            np.testing.assert_array_equal(band.upper, before)
            return
        assert columns == [n, n - j0]
        factor = band_transpose(full_factor(band.diagonals, kd))
        if j0 == 0:
            np.testing.assert_array_equal(band.upper, factor)
            return
        np.testing.assert_array_equal(band.upper == 0.0, factor == 0.0)
        assert np.max(np.abs(band.upper - factor)) <= 1e-15 * np.max(np.abs(factor))
        if j0 >= kd:
            reference = index_array_refactor(band_of(before), band.diagonals, j0)
            np.testing.assert_array_equal(band.upper, band_transpose(reference))


class TestKeptFactor:
    """Each component keeps its viscosity and viscous fields, and refreshes
    its :class:`_KeptBand` of I/dt plus viscosity only when the viscosity
    moved."""

    # nx != ny, so u's kd = ny and v's kd = ny - 1 differ
    grid = StaggeredGrid2D(12, 10)

    def factored(self, monkeypatch):
        """A solver that has factored both components for a random state,
        the state, its rng and the list that counts factored columns."""
        cfg = small_config(grid=self.grid)
        solver = CavitySolver(cfg)
        rng = np.random.default_rng(41)
        state = random_state(cfg, rng)
        columns = count_factored(monkeypatch)
        solver.tentative_velocity(state)
        g = self.grid
        assert columns == [g.ny * (g.nx - 1), (g.ny - 1) * g.nx]
        columns.clear()
        return solver, state, rng, columns

    def trailing_move(self, state, rng, c0):
        """``state`` with new, solid temperatures in the cells from x-column
        ``c0`` on; the faces of x-column ``c0 - 1`` are the first that touch
        a moved cell: u's between cells c0 - 1 and c0, v's through their
        corners."""
        g = self.grid
        temp = state.temp.copy()
        temp[:, c0:] = rng.uniform(600.0, 650.0, (g.ny, g.nx - c0))
        return dataclasses.replace(state, temp=temp)

    def test_unchanged_viscosity_makes_no_factor(self, monkeypatch):
        solver, state, rng, columns = self.factored(monkeypatch)
        refreshed = []
        refresh = solver_module._KeptBand.refresh
        monkeypatch.setattr(solver_module._KeptBand, "refresh",
                            lambda self, *a: refreshed.append(1) or refresh(self, *a))
        # the convection moves, the temperature does not
        moved = dataclasses.replace(state, u=rng.normal(size=self.grid.u_shape),
                                    v=rng.normal(size=self.grid.v_shape))
        kept = solver.tentative_velocity(moved)
        assert columns == [] and refreshed == []
        fresh = CavitySolver(solver.cfg).tentative_velocity(moved)
        assert len(refreshed) == 2
        for a, b in zip(kept, fresh, strict=True):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.max(np.abs(b)))

    def test_trailing_change_factors_only_trailing_columns(self, monkeypatch):
        solver, state, rng, columns = self.factored(monkeypatch)
        g, c0 = self.grid, 7
        moved = self.trailing_move(state, rng, c0)
        solver.tentative_velocity(moved)
        n_u, n_v = g.ny * (g.nx - 1), (g.ny - 1) * g.nx
        assert columns == [n_u - (c0 - 1) * g.ny, n_v - (c0 - 1) * (g.ny - 1)]
        fresh = CavitySolver(solver.cfg)
        fresh.tentative_velocity(moved)
        for component in "uv":
            kept = momentum(solver, component).band.upper
            factor = momentum(fresh, component).band.upper
            assert np.max(np.abs(kept - factor)) <= 1e-15 * np.max(np.abs(factor)), component

    def test_first_column_change_refactors_everything(self, monkeypatch):
        solver, state, rng, columns = self.factored(monkeypatch)
        g = self.grid
        temp = state.temp.copy()
        temp[:, 0] = rng.uniform(600.0, 650.0, g.ny)
        solver.tentative_velocity(dataclasses.replace(state, temp=temp))
        assert columns == [g.ny * (g.nx - 1), (g.ny - 1) * g.nx]

    def test_indefinite_trailing_update_raises(self, monkeypatch):
        # a refresh that fails keeps neither its factor nor the viscosity
        # it was for: the next call, at that viscosity, refactors u whole
        solver, state, rng, columns = self.factored(monkeypatch)
        g, c0 = self.grid, 7
        moved = self.trailing_move(state, rng, c0)
        viscous_part = solver_module._Momentum.viscous_part

        def indefinite(self, mu):
            # a negative diagonal in the last x-column of faces, below its first rows
            viscous = viscous_part(self, mu)
            viscous[0, 3, -1] = -2.0 / solver.cfg.dt
            return viscous

        monkeypatch.setattr(solver_module._Momentum, "viscous_part", indefinite)
        with pytest.raises(NumericalError, match="u-momentum factorization failed"):
            solver.tentative_velocity(moved)
        monkeypatch.setattr(solver_module._Momentum, "viscous_part", viscous_part)
        kept = solver.tentative_velocity(moved)
        n_u, n_v = g.ny * (g.nx - 1), (g.ny - 1) * g.nx
        # the failed trailing refresh, then every u column and v's trailing ones
        assert columns == [n_u - (c0 - 1) * g.ny, n_u, n_v - (c0 - 1) * (g.ny - 1)]
        fresh = CavitySolver(solver.cfg).tentative_velocity(moved)
        np.testing.assert_array_equal(kept[0], fresh[0])

    @pytest.mark.parametrize("make", [default_mushy_config, default_pure_metal_config])
    def test_run_matches_refactoring_every_step(self, monkeypatch, make):
        cfg = make(grid=StaggeredGrid2D(16, 16), n_steps=40, snap_every=2)
        columns = count_factored(monkeypatch)
        kept = run_case(cfg)
        reused = sum(columns)
        columns.clear()
        predict = CavitySolver.tentative_velocity

        def from_scratch(self, state):
            # a solver without kept factors refactors every column
            self._u.clear()
            self._v.clear()
            return predict(self, state)

        monkeypatch.setattr(CavitySolver, "tentative_velocity", from_scratch)
        fresh = run_case(cfg)
        g = cfg.grid
        assert reused < sum(columns) == cfg.n_steps * (g.ny * (g.nx - 1) + (g.ny - 1) * g.nx)
        for name in kept.layout.names:
            a, b = kept.field(name), fresh.field(name)
            rel = np.linalg.norm(a - b, axis=0) / np.linalg.norm(b, axis=0)
            assert np.all(rel <= 1e-12), (name, rel.max())

    @pytest.mark.parametrize("make", [default_mushy_config, default_pure_metal_config])
    def test_reused_solver_reruns_bit_for_bit(self, make):
        # run() marches from initial_state; the systems kept at the end of
        # one run must not carry into the next
        cfg = make(grid=StaggeredGrid2D(16, 16), n_steps=40, snap_every=2)
        solver = CavitySolver(cfg)
        runs = [solver.run(), solver.run()]
        fresh = run_case(cfg)
        for m in runs:
            assert np.array_equal(m.data, fresh.data)


def manufactured_viscosity(a, b, component):
    """mu = 1 + cos(pi x) sin(2 pi y) / 2 + x y and its derivatives along
    (a) and across (b) the component: u's a is x, v's a is y."""
    x, y = (a, b) if component == "u" else (b, a)
    pi = np.pi
    mu = 1 + 0.5 * np.cos(pi * x) * np.sin(2 * pi * y) + x * y
    mu_x = -0.5 * pi * np.sin(pi * x) * np.sin(2 * pi * y) + y
    mu_y = pi * np.cos(pi * x) * np.cos(2 * pi * y) + x
    return (mu, mu_x, mu_y) if component == "u" else (mu, mu_y, mu_x)


def manufactured_momentum_error(n, component, power):
    """Max-norm error, no-slip rows included, of one momentum solve on the
    unit square at n x n whose exact solution is w = sin(pi a) sin^power(pi b),
    with a along the component (array axis 1) and b across it.

    Convecting velocities and pressure are zero, the old field is the exact
    one and the forcing is -div(mu grad w) = 2 L(w), so the continuous
    ``(I/dt + L) w' = (I/dt - L) w + 2 L(w)`` returns w; at dt = 1e3 the
    error is that of the nearly steady viscous operator. v is solved on
    transposed fields, as :meth:`CavitySolver.tentative_velocity` does.
    """
    solver = CavitySolver(SimConfig(grid=StaggeredGrid2D(n, n), dt=1e3))
    h = 1.0 / n
    faces, centres = np.arange(n + 1) * h, (np.arange(n) + 0.5) * h
    a, b = np.meshgrid(faces, centres)  # rows across the component, columns along it
    mu, mu_a, mu_b = manufactured_viscosity(a, b, component)
    pi = np.pi
    sa, sb, cb = np.sin(pi * a), np.sin(pi * b), np.cos(pi * b)
    w = sa * sb**power
    w_a = pi * np.cos(pi * a) * sb**power
    w_b = power * pi * sa * sb ** (power - 1) * cb
    w_bb = power * pi**2 * sa * ((power - 1) * sb ** (power - 2) * cb**2 - sb**power)
    laplacian = -(pi**2) * w + w_bb
    forcing = -(mu_a * w_a + mu_b * w_b + mu * laplacian)
    mu_cells = manufactured_viscosity(*np.meshgrid(centres, centres), component)[0]
    out = momentum(solver, component).tentative(
        w, np.zeros_like(w), np.zeros((n + 1, n)), np.zeros((n, n)), mu_cells, forcing[:, 1:-1]
    )
    return np.max(np.abs(out - w))


class TestMomentumManufacturedSolution:
    # Roache 2002 (J. Fluids Eng. 124): a smooth exact solution and its
    # analytic forcing; the no-slip ghost rows and the cell-to-corner
    # viscosity averages must keep the operator second order. sin^2 has
    # no shear at the sliding walls, so it holds under either ghost sign;
    # sin has shear there and fails (order about 0) with the free-slip sign
    @pytest.mark.parametrize("power", [2, 1], ids=["sin2", "sin"])
    @pytest.mark.parametrize("component", ["u", "v"])
    def test_second_order_in_max_norm(self, component, power):
        errors = np.array([manufactured_momentum_error(n, component, power)
                           for n in (16, 32, 64)])
        orders = np.log2(errors[:-1] / errors[1:])
        assert np.all(orders >= 1.8), (errors, orders)


class TestPressureCorrection:
    def test_divergence_free_gives_zero(self):
        cfg = quiescent_config()
        solver = CavitySolver(cfg)
        grid = cfg.grid
        # a rigid-rotation-like divergence-free pattern: u = y, v = -x
        u = np.tile((np.arange(grid.ny) + 0.5)[:, None], (1, grid.nx + 1)) * grid.dy
        v = -np.tile((np.arange(grid.nx) + 0.5)[None, :], (grid.ny + 1, 1)) * grid.dx
        phi = solver.pressure_correction(u, v)
        assert np.max(np.abs(phi)) <= 1e-12

    @pytest.mark.parametrize("grid", [
        StaggeredGrid2D(8, 8), StaggeredGrid2D(6, 9, lx=1.3, ly=0.7), StaggeredGrid2D(2, 3),
    ], ids=["8x8", "6x9-anisotropic", "2x3"])
    def test_matches_dense_oracle(self, grid):
        cfg = small_config(grid=grid)
        solver = CavitySolver(cfg)
        rng = np.random.default_rng(42)
        u = rng.normal(size=grid.u_shape)
        v = rng.normal(size=grid.v_shape)
        u[:, 0] = u[:, -1] = 0.0
        v[0, :] = v[-1, :] = 0.0
        phi = solver.pressure_correction(u, v)

        # dense 5-point Neumann Laplacian, assembled independently;
        # lstsq returns the zero-mean representative
        nx, ny = grid.nx, grid.ny
        dx, dy = grid.dx, grid.dy
        n = nx * ny
        dense = np.zeros((n, n))
        for j in range(ny):
            for i in range(nx):
                k = j * nx + i
                for dj, di, h2 in ((0, 1, dx * dx), (0, -1, dx * dx),
                                   (1, 0, dy * dy), (-1, 0, dy * dy)):
                    jj, ii = j + dj, i + di
                    if 0 <= jj < ny and 0 <= ii < nx:
                        dense[k, jj * nx + ii] += 1.0 / h2
                        dense[k, k] -= 1.0 / h2
        div = (u[:, 1:] - u[:, :-1]) / dx + (v[1:, :] - v[:-1, :]) / dy
        rhs = (div / cfg.dt).ravel()
        phi_oracle = np.linalg.lstsq(dense, rhs, rcond=None)[0].reshape(ny, nx)
        assert np.max(np.abs(phi - phi_oracle)) <= 1e-10 * max(1.0, np.max(np.abs(phi_oracle)))

    def test_zero_mean_and_rhs_constant_invariance(self):
        cfg = small_config()
        grid = cfg.grid
        solver = CavitySolver(cfg)
        rng = np.random.default_rng(3)
        u = rng.normal(size=grid.u_shape)
        v = rng.normal(size=grid.v_shape)
        phi = solver.pressure_correction(u, v)
        assert abs(phi.mean()) <= 1e-10 * np.max(np.abs(phi))
        # adding a linear-in-x potential shifts the divergence by a
        # constant, which lands in the Neumann nullspace: phi unchanged
        x_u = np.arange(grid.nx + 1) * grid.dx
        u_shifted = u + 0.7 * x_u[None, :]
        phi2 = solver.pressure_correction(u_shifted, v)
        assert np.max(np.abs(phi2 - phi)) <= 1e-9 * max(1.0, np.max(np.abs(phi)))


class TestVelocityUpdate:
    def test_zero_phi_identity(self):
        cfg = small_config()
        solver = CavitySolver(cfg)
        rng = np.random.default_rng(5)
        u = rng.normal(size=cfg.grid.u_shape)
        v = rng.normal(size=cfg.grid.v_shape)
        u[:, 0] = u[:, -1] = 0.0
        v[0, :] = v[-1, :] = 0.0
        u2, v2 = solver.velocity_update(u, v, np.zeros(cfg.grid.cell_shape))
        assert np.array_equal(u2, u) and np.array_equal(v2, v)

    def test_projection_kills_divergence(self):
        cfg = small_config(grid=StaggeredGrid2D(16, 16))
        solver = CavitySolver(cfg)
        rng = np.random.default_rng(8)
        u = rng.normal(size=cfg.grid.u_shape)
        v = rng.normal(size=cfg.grid.v_shape)
        u[:, 0] = u[:, -1] = 0.0
        v[0, :] = v[-1, :] = 0.0
        phi = solver.pressure_correction(u, v)
        u2, v2 = solver.velocity_update(u, v, phi)
        div = solver.divergence(u2, v2)
        scale = max(1.0, np.max(np.abs(u2)), np.max(np.abs(v2)))
        assert np.max(np.abs(div)) <= 1e-8 * scale

    def test_linear_phi_shifts_uniformly(self):
        cfg = small_config()
        grid = cfg.grid
        solver = CavitySolver(cfg)
        u = np.zeros(grid.u_shape)
        v = np.zeros(grid.v_shape)
        a = 3.0
        x_c = (np.arange(grid.nx) + 0.5) * grid.dx
        phi = np.tile(a * x_c[None, :], (grid.ny, 1))
        u2, v2 = solver.velocity_update(u, v, phi)
        np.testing.assert_allclose(u2[:, 1:-1], -cfg.dt * a, rtol=1e-12)
        assert np.all(u2[:, 0] == 0.0) and np.all(u2[:, -1] == 0.0)
        assert np.max(np.abs(v2)) <= 1e-14


class TestTemperatureStep:
    def test_adiabatic_equilibrium(self):
        cfg = quiescent_config()
        solver = CavitySolver(cfg)
        state = initial_state(cfg)
        temp = solver.temperature_step(state, state.u, state.v)
        assert np.max(np.abs(temp - 700.0)) <= 1e-12 * 700.0

    @pytest.mark.parametrize(
        "wall",
        [CoolingWall(h=10.0, t_ambient=550.0), CoolingWall(h=0.0)],
    )
    def test_matches_dense_oracle_7x5(self, wall):
        grid = StaggeredGrid2D(7, 5, ly=0.6)
        cfg = small_config(grid=grid, right_wall=wall)
        solver = CavitySolver(cfg)
        rng = np.random.default_rng(11)
        state = dataclasses.replace(
            initial_state(cfg), temp=600.0 + 100.0 * rng.random(grid.cell_shape)
        )
        zero_u, zero_v = np.zeros(grid.u_shape), np.zeros(grid.v_shape)
        temp = solver.temperature_step(state, zero_u, zero_v)

        # I/dt - k L + wall from Kronecker products of 1D Neumann
        # second differences, independent of the solver's stencil
        def neumann_1d(m, h):
            d = np.diag(np.full(m - 1, 1.0), 1) + np.diag(np.full(m - 1, 1.0), -1)
            return (d - np.diag(d.sum(axis=1))) / (h * h)

        k, dx = cfg.thermal_diffusivity, grid.dx
        lap = np.kron(np.eye(grid.ny), neumann_1d(grid.nx, dx)) + np.kron(
            neumann_1d(grid.ny, grid.dy), np.eye(grid.nx)
        )
        n = grid.nx * grid.ny
        matrix = np.eye(n) / cfg.dt - k * lap
        rhs = state.temp / cfg.dt
        coeff = wall.h / dx
        right = np.arange(grid.nx - 1, n, grid.nx)
        matrix[right, right] += coeff
        rhs[:, -1] += coeff * wall.t_ambient
        oracle = np.linalg.solve(matrix, rhs.ravel()).reshape(grid.cell_shape)
        assert np.max(np.abs(temp - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_robin_cooling_drains_energy(self):
        cfg = small_config(
            right_wall=CoolingWall(h=10.0, t_ambient=550.0)
        )
        solver = CavitySolver(cfg)
        state = initial_state(cfg)
        energies = [state.temp.sum()]
        for _ in range(20):
            state = solver.step(state)
            energies.append(state.temp.sum())
        assert np.all(np.diff(energies) < 0.0)

    def test_temperature_bounds(self):
        cfg = small_config(
            n_steps=40, snap_every=40,
            right_wall=CoolingWall(h=25.0, t_ambient=550.0),
        )
        m = run_case(cfg)
        temps = m.field("T")
        assert temps.min() >= 550.0 - 1e-9
        assert temps.max() <= 700.0 + 1e-9


def manufactured_temperature_error(n, h, k=1e-2, dt=1e3, t_ambient=550.0):
    """Max-norm error, relative to the amplitude, of one temperature step
    at rest on the unit square at n x n whose exact solution is
    T = t_ambient + A cos(a x) cos(pi y).

    The y walls and the left wall are adiabatic for this T, and
    ``k a tan(a) = h`` makes the right wall's Robin condition hold
    (h = 0 takes a = pi). The old field is ``T - dt k lap(T)``, so the
    continuous ``T'/dt - k lap(T') = T_old/dt`` returns T; at dt = 1e3
    the error is that of the nearly steady diffusion operator.
    """
    a = np.pi if h == 0 else brentq(lambda a: k * a * np.tan(a) - h, 0.0, np.pi / 2 - 1e-12)
    cfg = SimConfig(grid=StaggeredGrid2D(n, n), dt=dt, thermal_diffusivity=k,
                    right_wall=CoolingWall(h=h, t_ambient=t_ambient))
    amplitude = 10.0
    centres = (np.arange(n) + 0.5) / n
    x, y = np.meshgrid(centres, centres)
    shape = amplitude * np.cos(a * x) * np.cos(np.pi * y)
    laplacian = -(a**2 + np.pi**2) * shape
    state = dataclasses.replace(initial_state(cfg), temp=t_ambient + shape - dt * k * laplacian)
    g = cfg.grid
    out = CavitySolver(cfg).temperature_step(state, np.zeros(g.u_shape), np.zeros(g.v_shape))
    return np.max(np.abs(out - (t_ambient + shape))) / amplitude


class TestTemperatureManufacturedSolution:
    # Roache 2002, as for the momentum operator. Max-norm errors over
    # 16/32/64/128 at k = 1e-2, dt = 1e3: adiabatic 3.2e-3 .. 5.0e-5 (order
    # 2.00); Robin at h = 10, 4.9e-2 .. 6.1e-3 (order 1.00). The wall term
    # h (T_cell - t_ambient) / dx takes the cell-centre value half a cell
    # from the wall; h / (1 + h dx / (2 k)) in its place eliminates the
    # wall value and reads order 2.00
    def test_adiabatic_walls_second_order(self):
        errors = np.array([manufactured_temperature_error(n, 0.0) for n in (16, 32, 64)])
        orders = np.log2(errors[:-1] / errors[1:])
        assert np.all(orders >= 1.8), (errors, orders)

    def test_robin_wall_first_order(self):
        errors = np.array([manufactured_temperature_error(n, 10.0) for n in (16, 32, 64)])
        orders = np.log2(errors[:-1] / errors[1:])
        assert np.all(orders >= 0.9), (errors, orders)


class TestSeparableSolves:
    @pytest.mark.parametrize(
        "operator, label", [("pressure", "pressure Poisson"), ("temperature", "temperature")]
    )
    def test_residual_check_rejects_inaccurate_eigenvalues(self, operator, label):
        cfg = small_config()
        solver = CavitySolver(cfg)
        rng = np.random.default_rng(8)
        u = rng.normal(size=cfg.grid.u_shape)
        v = rng.normal(size=cfg.grid.v_shape)
        state = dataclasses.replace(
            initial_state(cfg), temp=600.0 + 100.0 * rng.random(cfg.grid.cell_shape)
        )
        separable = getattr(solver, f"_{operator}")
        separable.eig = separable.eig * (1.0 + 1e-6)
        with pytest.raises(NumericalError) as err:
            if operator == "pressure":
                solver.pressure_correction(u, v)
            else:
                solver.temperature_step(state, u, v)
        assert f"{label} solve did not reach tolerance" in str(err.value)
        assert err.value.residual > 1e-10


class TestStepping:
    def test_quiescent_fixed_point_100_steps(self):
        cfg = quiescent_config(n_steps=100, snap_every=100)
        solver = CavitySolver(cfg)
        state = initial_state(cfg)
        for _ in range(100):
            state = solver.step(state)
            assert np.max(np.abs(state.u)) <= 1e-12
            assert np.max(np.abs(state.v)) <= 1e-12
            assert np.max(np.abs(state.temp - 700.0)) <= 1e-12 * 700.0

    def test_adiabatic_cavity_at_reference_stays_exactly_at_rest(self):
        cfg = SimConfig(
            grid=StaggeredGrid2D(8, 8), n_steps=4, snap_every=1, right_wall=CoolingWall(h=0.0)
        )
        m = run_case(cfg)
        for name in ("u", "v", "p"):
            assert np.all(m.field(name) == 0.0), name
        assert np.all(m.field("T") == cfg.t_ref)
        # a block of exact zeros has no energy to scale
        with pytest.raises(DataError):
            unit_energy_weighted(m)

    def test_divergence_free_after_every_step(self):
        cfg = small_config(n_steps=30, snap_every=1, initial_temp=700.0, t_ref=660.0)
        solver = CavitySolver(cfg)
        state = initial_state(cfg)
        for _ in range(30):
            state = solver.step(state)
            scale = max(1.0, np.max(np.abs(state.u)), np.max(np.abs(state.v)))
            assert np.max(np.abs(solver.divergence(state.u, state.v))) <= 1e-8 * scale

    def test_cfl_violation_raises(self):
        cfg = small_config(dt=50.0, t_ref=600.0, n_steps=5, snap_every=1)
        with pytest.raises(NumericalError) as err:
            run_case(cfg)
        assert "CFL" in str(err.value)
        assert "step" in str(err.value)

    def test_no_buoyancy_keeps_fluid_at_rest(self):
        cfg = quiescent_config(n_steps=20, snap_every=4)
        m = run_case(cfg)
        assert np.max(np.abs(m.field("u"))) <= 1e-12
        assert np.max(np.abs(m.field("v"))) <= 1e-12

    def test_snapshot_layout_and_labels(self):
        cfg = small_config(n_steps=10, snap_every=5)
        m = run_case(cfg)
        grid = cfg.grid
        assert m.layout.names == ("u", "v", "p", "T")
        assert m.field("u").shape[0] == grid.n_u
        assert m.field("v").shape[0] == grid.n_v
        assert m.field("p").shape[0] == grid.n_cells
        assert m.field("T").shape[0] == grid.n_cells
        np.testing.assert_allclose(m.column_labels, [5 * cfg.dt, 10 * cfg.dt])

    def test_mushy_run_forms_solid_and_keeps_liquid(self):
        cfg = SimConfig(
            grid=StaggeredGrid2D(24, 24), dt=2e-2, n_steps=400, snap_every=80,
            viscosity=ViscosityModel(kind="mushy"),
        )
        m = run_case(cfg)
        final_temp = m.field("T")[:, -1]
        mu = viscosity_of(cfg.viscosity, final_temp)
        assert np.sum(mu > 100.0 * cfg.viscosity.mu_liquid) > 0
        assert np.sum(mu == cfg.viscosity.mu_liquid) > 0

    def test_mushy_and_pure_differ_only_in_viscosity(self):
        mushy = default_mushy_config()
        assert dataclasses.replace(
            default_pure_metal_config(), viscosity=mushy.viscosity
        ) == mushy

    def test_pure_default_keeps_sharp_jump_under_a_viscosity_override(self):
        cfg = default_pure_metal_config(viscosity=ViscosityModel(mu_liquid=50.0))
        assert cfg.viscosity.kind == "sharp_jump"
        assert cfg.viscosity.mu_liquid == 50.0


class TestTaylorGreen:
    """Free-slip Taylor-Green vortex on [0, pi]^2 with constant viscosity.

    The exact solution u = sin(x) cos(y) e^{-2 nu t},
    v = -cos(x) sin(y) e^{-2 nu t}, p = (cos 2x + cos 2y)/4 e^{-4 nu t}
    satisfies free-slip walls and homogeneous-Neumann pressure on this
    box, so it exercises the full projection loop.
    """

    def test_amplitude_tracks_exact_decay(self):
        grid = StaggeredGrid2D(32, 32, lx=np.pi, ly=np.pi)
        nu = 0.1
        state = advance_taylor_green(grid, nu, dt=0.01, n_steps=50)
        u_exact, _, _ = taylor_green(grid, nu, 0.5)
        err = np.max(np.abs(state.u - u_exact)) / np.max(np.abs(u_exact))
        assert err < 5e-3


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = SimConfig(
            grid=StaggeredGrid2D(20, 24, lx=2.0, ly=1.5),
            dt=1e-3, n_steps=77, snap_every=7,
            viscosity=ViscosityModel(kind="sharp_jump", mu_liquid=3.5, jump_factor=1e4),
            buoyancy_coeff=2.5, t_ref=690.0, thermal_diffusivity=0.02,
            initial_temp=705.0,
            right_wall=CoolingWall(h=4.0, t_ambient=560.0),
            wall_tangential="free_slip",
        )
        path = tmp_path / "case.cfg"
        write_config(cfg, path)
        assert read_config(path) == cfg

    def test_partial_file_keeps_defaults(self):
        cfg = parse_config_text("[grid]\nnx = 8\nny = 8\n")
        assert cfg.grid.nx == 8
        assert cfg.dt == SimConfig().dt
        assert cfg.viscosity.kind == "mushy"

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError):
            parse_config_text("[grid]\nnodes = 8\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(FormatError):
            parse_config_text("[mesh]\nnx = 8\n")

    def test_bad_value_rejected(self):
        with pytest.raises(FormatError):
            parse_config_text("[time]\ndt = soon\n")

    def test_malformed_text_rejected(self):
        with pytest.raises(FormatError):
            parse_config_text("nx = 8\n")  # key before any section header

    def test_config_text_lists_every_section(self):
        text = config_text(SimConfig())
        for section in ("[grid]", "[time]", "[material]", "[boundary]", "[output]"):
            assert section in text

    def test_schema_covers_every_leaf_field(self):
        def leaves(cls, prefix=""):
            hints = typing.get_type_hints(cls)
            for f in dataclasses.fields(cls):
                if dataclasses.is_dataclass(hints[f.name]):
                    yield from leaves(hints[f.name], f"{prefix}{f.name}.")
                else:
                    yield prefix + f.name

        paths = [path for keys in _SCHEMA.values() for path in keys.values()]
        assert len(paths) == len(set(paths))
        assert set(paths) == set(leaves(SimConfig))

    @pytest.mark.parametrize("lines", [
        "t_freeze = 600\ninitial_temp = 640\n", "initial_temp = 640\nt_freeze = 600\n",
    ])
    def test_cross_field_checks_see_final_values(self, lines):
        # 640 is below the default 650 freezing point: applied alone, before
        # t_freeze, initial_temp would be rejected
        cfg = parse_config_text("[material]\n" + lines)
        assert cfg.viscosity.t_freeze == 600.0
        assert cfg.initial_temp == 640.0

    @pytest.mark.parametrize("section, key", [
        ("time", "inner_iterations"), ("material", "mu_cap"),
        ("boundary", "right_wall"), ("boundary", "t_cold"),
    ])
    def test_deleted_key_rejected(self, section, key):
        # keys of settings the format no longer has: an old file fails
        # loudly instead of silently running without them
        with pytest.raises(FormatError, match=key):
            parse_config_text(f"[{section}]\n{key} = 1\n")


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, key", [
        ("time", "dt"), ("grid", "lx"), ("material", "jump_factor"),
    ])
    def test_non_finite_value_rejected(self, section, key, value):
        with pytest.raises(FormatError, match=f"bad value for '{key}'"):
            parse_config_text(f"[{section}]\n{key} = {value}\n")


class TestConfigValidation:
    def test_initial_temp_must_exceed_freezing(self):
        with pytest.raises(ArgumentError):
            small_config(initial_temp=640.0)

    def test_positive_coefficients(self):
        with pytest.raises(ArgumentError):
            small_config(thermal_diffusivity=0.0)
        with pytest.raises(ArgumentError):
            small_config(buoyancy_coeff=-1.0)
        with pytest.raises(ArgumentError):
            small_config(dt=0.0)

    def test_tangential_choices(self):
        with pytest.raises(ArgumentError):
            small_config(wall_tangential="slippery")

    @pytest.mark.parametrize("kind", ["mushy", "sharp_jump"])
    @pytest.mark.parametrize("mu_liquid, jump_factor", [(1e308, 1e6), (1e300, 1e10)])
    def test_overflowing_viscous_coefficient_rejected(self, kind, mu_liquid, jump_factor):
        # mu_liquid * jump_factor / min(dx, dy)^2 is inf: the solver would
        # otherwise report the overflow as a singular momentum factor
        viscosity = ViscosityModel(kind=kind, mu_liquid=mu_liquid, jump_factor=jump_factor)
        with pytest.raises(ArgumentError, match="mu_liquid.*jump_factor"):
            small_config(viscosity=viscosity)

    def test_large_finite_viscous_coefficient_accepted(self):
        viscosity = ViscosityModel(mu_liquid=1e290, jump_factor=1e6)
        assert small_config(viscosity=viscosity).viscosity.mu_liquid == 1e290

    def test_overflowing_viscosity_in_config_text_rejected(self):
        with pytest.raises(ArgumentError, match="mu_liquid.*jump_factor"):
            parse_config_text("[material]\nmu_liquid = 1e308\n")
