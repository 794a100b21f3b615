"""Acceptance criteria, one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; the
2D criteria share one pair of desk-scale runs (about a minute).

Criterion 2's log-log clause (exponent -0.5 +/- 0.15 over modes 4..64
of the advected jump) is asserted on the quantity whose rate it is: the
relative tail energy

    e_n = sqrt(sum_{i>n} sigma_i^2) / sqrt(sum_i sigma_i^2),  n = 1, 2, ...

which by Eckart-Young equals ||A - A_n||_F / ||A||_F, the best rank-n
error and the discrete form of the Kolmogorov n-width. For linear
transport that width falls like n^-1/2 (d_n >= n^-1/2 / 2; Ohlberger &
Rave 2016). The singular values themselves fall twice as fast: entry
(i, j) of the jump matrix is 1 if x_i <= t_j, a staircase of ones, i.e.
the discrete Volterra (running-sum) kernel. The n x n triangular matrix
of ones has

    sigma_k = 1 / (2 sin((2k - 1) pi / (2 (2n + 1)))) ~ (2n + 1) / ((2k - 1) pi),

so sigma_k ~ 1/k (pinned to 1e-10 in ``tests/test_cases1d.py``). On the
256 x 128 fixture the spectrum is sqrt(2) times the n = 128 closed form
to within 0.5 %. Measured log-log slopes over modes 4..64:

    grid        sigma_n   e_n
    256 x 128   -0.99     -0.542
    512 x 256   -1.02     -0.509
    1024 x 512  -1.03     -0.502

(the closed form itself gives -0.9945 for sigma_n at n = 128). So the
test holds e_n to -0.5 +/- 0.15 and sigma_n to its own exponent, -1, at
the same width. The e_n band does reject fast decay: heat (-10.2), the
stretched sigmoid k = 15 (-14.0) and the steep sigmoid k = 100 (-2.39)
all fall outside it.

Criterion 4 is counted on the state with each field block scaled to
unit energy. In raw units the temperature block (about 700) outweighs
the velocities by orders of magnitude, so raw counts mostly measure the
temperature field; they are printed for reference only.
"""
import time

import numpy as np
import pytest

from conftest import advance_taylor_green
from podsnap.analysis import fit_decay
from podsnap.cases1d import Heat1DConfig, solve_heat1d
from podsnap.grids import StaggeredGrid2D
from podsnap.pod import (
    PodSpectrum,
    component_split,
    decompose,
    modes_for_energy,
    truncate,
    unit_energy_weighted,
)
from podsnap.snapshots import matrix_from_array
from podsnap.solidify2d import (
    CavitySolver,
    CoolingWall,
    SimConfig,
    default_mushy_config,
    default_pure_metal_config,
    initial_state,
)

THRESHOLD = 0.9999


def criterion(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def count_at(spectrum, threshold=THRESHOLD):
    return modes_for_energy(spectrum, threshold).modes_needed


def tail_energy_slope(spectrum, fit_range=(4, 64)):
    """Log-log slope, over n = fit_range[0]..fit_range[1], of the
    relative tail energy e_n = sqrt(sum_{i>n} sigma_i^2 / sum_i sigma_i^2)
    (1-based n), i.e. the relative best rank-n Frobenius error."""
    energy = spectrum.sigma**2
    tail = np.cumsum(energy[::-1])[::-1]  # tail[n] = sum_{i>n} sigma_i^2
    n = np.arange(fit_range[0], fit_range[1] + 1)
    e = np.sqrt(tail[n] / tail[0])
    return np.polyfit(np.log(n), np.log(e), 1)[0]


@pytest.fixture(scope="module")
def cavity_runs():
    """Desk-scale mushy and pure-metal runs (64 x 64, 500 snapshots)."""
    start = time.perf_counter()
    mushy = CavitySolver(default_mushy_config()).run()
    pure = CavitySolver(default_pure_metal_config()).run()
    elapsed = time.perf_counter() - start
    return mushy, pure, elapsed


class TestCriterion1Heat:
    def test_heat_spectrum_decays_fast(self, heat_matrix):
        start = time.perf_counter()
        matrix = solve_heat1d(Heat1DConfig())
        spectrum = decompose(matrix).spectrum
        elapsed = time.perf_counter() - start
        needed = count_at(spectrum)
        ratio20 = spectrum.sigma[19] / spectrum.sigma[0]
        criterion(
            1, "heat-decay",
            needed <= 10 and ratio20 <= 1e-8 and elapsed < 5.0,
            f"modes@{THRESHOLD} = {needed} (<= 10), sigma20/sigma1 = {ratio20:.3e} "
            f"(<= 1e-8), runtime {elapsed:.2f} s (< 5 s)",
        )
        # regression values frozen from the first verified run of the
        # declared configuration
        assert needed == 4
        assert ratio20 <= 1e-14


class TestCriterion2Jump:
    def test_jump_needs_most_modes(self, jump_matrix):
        start = time.perf_counter()
        spectrum = decompose(jump_matrix).spectrum
        elapsed = time.perf_counter() - start
        needed = count_at(spectrum)
        criterion(
            2, "jump-energy-count",
            needed >= 100 and elapsed < 5.0,
            f"modes@{THRESHOLD} = {needed} of {len(spectrum)} (>= 100), "
            f"runtime {elapsed:.2f} s (< 5 s)",
        )
        assert needed == 125  # frozen regression value

    def test_jump_loglog_slope_matches_stated_band(self, jump_matrix):
        spectrum = decompose(jump_matrix).spectrum
        tail_slope = tail_energy_slope(spectrum)
        fit = fit_decay(spectrum, "loglog", (4, 64))
        criterion(
            2, "jump-loglog-slope",
            abs(tail_slope - (-0.5)) <= 0.15 and abs(fit.slope - (-1.0)) <= 0.15,
            f"over modes [4, 64]: tail-energy e_n slope = {tail_slope:.3f} "
            f"(-0.5 +/- 0.15, the transport n-width rate), sigma_n slope = "
            f"{fit.slope:.4f} (-1 +/- 0.15, the Volterra-kernel rate)",
        )

    @pytest.mark.parametrize(
        "fixture", ["heat_matrix", "sigmoid_stretched_matrix", "sigmoid_steep_matrix"]
    )
    def test_tail_slope_band_rejects_smooth_cases(self, fixture, request):
        spectrum = decompose(request.getfixturevalue(fixture)).spectrum
        tail_slope = tail_energy_slope(spectrum)
        assert abs(tail_slope - (-0.5)) > 0.15, f"{fixture}: e_n slope {tail_slope:.3f}"


class TestCriterion3SigmoidOrdering:
    def test_steepness_orders_mode_counts(
        self, jump_matrix, sigmoid_steep_matrix, sigmoid_stretched_matrix
    ):
        start = time.perf_counter()
        stretched = count_at(decompose(sigmoid_stretched_matrix).spectrum)
        steep = count_at(decompose(sigmoid_steep_matrix).spectrum)
        jump = count_at(decompose(jump_matrix).spectrum)
        elapsed = time.perf_counter() - start
        criterion(
            3, "sigmoid-ordering",
            stretched < steep < jump and elapsed < 5.0,
            f"modes@{THRESHOLD}: stretched = {stretched} < steep = {steep} "
            f"< jump = {jump}, runtime {elapsed:.2f} s (< 5 s)",
        )


class TestCriterion4MushyVsPure:
    @pytest.mark.slow
    def test_mushy_needs_at_most_half_the_modes(self, cavity_runs):
        mushy, pure, elapsed = cavity_runs
        mushy_count = count_at(decompose(unit_energy_weighted(mushy)).spectrum)
        pure_count = count_at(decompose(unit_energy_weighted(pure)).spectrum)
        raw_mushy = count_at(decompose(mushy).spectrum)
        raw_pure = count_at(decompose(pure).spectrum)
        criterion(
            4, "mushy-vs-pure",
            mushy_count <= 0.5 * pure_count and elapsed < 600.0,
            f"modes@{THRESHOLD} on the unit-energy-weighted state: mushy = "
            f"{mushy_count}, pure = {pure_count}, ratio = {mushy_count / pure_count:.3f} "
            f"(<= 0.5; paper direction 171/1527 ~ 0.11); raw-unit counts "
            f"{raw_mushy}/{raw_pure} are temperature-dominated; "
            f"both runs took {elapsed:.0f} s (< 600 s)",
        )


class TestCriterion5ComponentSpectra:
    @pytest.mark.slow
    def test_pressure_decays_fastest_in_pure_case(self, cavity_runs):
        _, pure, _ = cavity_runs
        counts = {
            name: count_at(decompose(part).spectrum)
            for name, part in component_split(pure).items()
        }
        ok = counts["p"] < min(counts["u"], counts["v"])
        criterion(
            5, "component-spectra",
            ok,
            f"pure-metal modes@{THRESHOLD}: p = {counts['p']} < min(u = {counts['u']}, "
            f"v = {counts['v']}); T = {counts['T']}",
        )


class TestCriterion6SolverSuite:
    def test_projection_divergence(self):
        cfg = SimConfig(grid=StaggeredGrid2D(16, 16), dt=1e-3, n_steps=1, snap_every=1)
        solver = CavitySolver(cfg)
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            u = rng.normal(size=cfg.grid.u_shape)
            v = rng.normal(size=cfg.grid.v_shape)
            u[:, 0] = u[:, -1] = 0.0
            v[0, :] = v[-1, :] = 0.0
            phi = solver.pressure_correction(u, v)
            u2, v2 = solver.velocity_update(u, v, phi)
            scale = max(1.0, np.max(np.abs(u2)), np.max(np.abs(v2)))
            worst = max(worst, np.max(np.abs(solver.divergence(u2, v2))) / scale)
        criterion(
            6, "projection-divergence", worst <= 1e-8,
            f"max relative divergence over random tentative fields = {worst:.2e} (<= 1e-8)",
        )

    def test_quiescent_fixed_point(self):
        cfg = SimConfig(
            grid=StaggeredGrid2D(16, 16), dt=2e-3, n_steps=100, snap_every=100,
            right_wall=CoolingWall(h=0.0),
            initial_temp=700.0, t_ref=700.0,
        )
        solver = CavitySolver(cfg)
        state = initial_state(cfg)
        worst = 0.0
        for _ in range(100):
            state = solver.step(state)
            worst = max(
                worst,
                np.max(np.abs(state.u)),
                np.max(np.abs(state.v)),
                np.max(np.abs(state.temp - 700.0)) / 700.0,
            )
        criterion(
            6, "quiescent-fixed-point", worst <= 1e-12,
            f"max drift over 100 steps = {worst:.2e} (<= 1e-12 per step)",
        )

    def test_poisson_dense_oracle(self):
        grid = StaggeredGrid2D(8, 8)
        cfg = SimConfig(grid=grid, dt=1e-3, n_steps=1, snap_every=1)
        solver = CavitySolver(cfg)
        rng = np.random.default_rng(123)
        u = rng.normal(size=grid.u_shape)
        v = rng.normal(size=grid.v_shape)
        u[:, 0] = u[:, -1] = 0.0
        v[0, :] = v[-1, :] = 0.0
        phi = solver.pressure_correction(u, v)
        n = 64
        dense = np.zeros((n, n))
        dx, dy = grid.dx, grid.dy
        for j in range(8):
            for i in range(8):
                k = j * 8 + i
                for dj, di, h2 in ((0, 1, dx * dx), (0, -1, dx * dx),
                                   (1, 0, dy * dy), (-1, 0, dy * dy)):
                    jj, ii = j + dj, i + di
                    if 0 <= jj < 8 and 0 <= ii < 8:
                        dense[k, jj * 8 + ii] += 1.0 / h2
                        dense[k, k] -= 1.0 / h2
        div = (u[:, 1:] - u[:, :-1]) / dx + (v[1:, :] - v[:-1, :]) / dy
        phi_oracle = np.linalg.lstsq(dense, (div / cfg.dt).ravel(), rcond=None)[0]
        err = np.max(np.abs(phi.ravel() - phi_oracle)) / max(1.0, np.max(np.abs(phi_oracle)))
        criterion(
            6, "poisson-oracle", err <= 1e-10,
            f"deviation from dense least-squares solve on 8x8 = {err:.2e} (<= 1e-10)",
        )

    def test_heat1d_matrix_exponential_oracle(self):
        from scipy.linalg import expm

        from podsnap.grids import Grid1D
        from podsnap.cases1d import InitialCondition1D

        grid = Grid1D(8)
        cfg = Heat1DConfig(
            alpha=1.0, dt=2e-6, grid=grid, n_snaps=11,
            ic=InitialCondition1D(left=0.3, right=0.7),
        )
        m = solve_heat1d(cfg)
        lap = (
            np.diag(np.full(6, -2.0)) + np.diag(np.ones(5), 1) + np.diag(np.ones(5), -1)
        ) / grid.spacing**2
        exact = expm(10 * cfg.dt * lap) @ m.data[1:-1, 0]
        err = np.linalg.norm(m.data[1:-1, 10] - exact) / np.linalg.norm(exact)
        criterion(
            6, "heat1d-expm-oracle", err <= 1e-6,
            f"relative error vs matrix exponential after 10 steps = {err:.2e} (<= 1e-6)",
        )

    def test_taylor_green_temporal_order(self):
        grid = StaggeredGrid2D(32, 32, lx=np.pi, ly=np.pi)
        nu = 0.1

        def advance(dt, n_steps):
            state = advance_taylor_green(grid, nu, dt, n_steps)
            return np.concatenate([state.u.ravel(), state.v.ravel()])

        sols = [advance(dt, round(0.4 / dt)) for dt in (0.04, 0.02, 0.01)]
        order = np.log2(
            np.linalg.norm(sols[0] - sols[1]) / np.linalg.norm(sols[1] - sols[2])
        )
        criterion(
            6, "taylor-green-order", order >= 1.8,
            f"observed temporal convergence order = {order:.2f} (>= 1.8)",
        )


class TestCriterion7PodSuite:
    def test_method_agreement(self):
        worst = 0.0
        for seed, (n_dof, n_snaps) in enumerate(((200, 100), (150, 40), (64, 64))):
            rng = np.random.default_rng(seed)
            m = matrix_from_array(rng.normal(size=(n_dof, n_snaps)))
            direct = decompose(m, "direct").spectrum.sigma
            mos = decompose(m, "method_of_snapshots").spectrum.sigma
            worst = max(worst, np.max(np.abs(mos - direct) / direct))
        criterion(
            7, "method-agreement", worst <= 1e-8,
            f"max elementwise relative sigma deviation = {worst:.2e} (<= 1e-8)",
        )

    def test_eckart_young_identity(self):
        rng = np.random.default_rng(7)
        m = matrix_from_array(rng.normal(size=(48, 32)))
        basis = decompose(m, "direct")
        sigma = basis.spectrum.sigma
        worst = 0.0
        for r in range(1, 32):
            err_sq = np.linalg.norm(truncate(basis, r).reconstruct() - m.data) ** 2
            tail_sq = np.sum(sigma[r:] ** 2)
            worst = max(worst, abs(err_sq - tail_sq) / tail_sq)
        criterion(
            7, "eckart-young", worst <= 1e-8,
            f"max relative defect of error^2 = tail energy over all ranks = "
            f"{worst:.2e} (<= 1e-8)",
        )

    def test_energy_hand_case(self):
        needed = modes_for_energy(PodSpectrum(np.array([3.0, 2.0, 1.0])), 0.9).modes_needed
        criterion(
            7, "energy-hand-case", needed == 2,
            f"modes_for_energy([3, 2, 1], 0.9) = {needed} (== 2)",
        )
