"""1D generators: heat solver against a matrix-exponential oracle,
advected jump and sigmoid families."""

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import expit

from podsnap.cases1d import (
    N_NODES,
    N_SNAPS,
    STEEP_K,
    STRETCHED_K,
    Heat1DConfig,
    InitialCondition1D,
    gen_advected_jump,
    gen_sigmoid,
    solve_heat1d,
)
from podsnap.errors import ArgumentError
from podsnap.grids import Grid1D
from podsnap.pod import decompose, modes_for_energy


class TestHeatSolver:
    def test_dirichlet_rows_zero(self):
        m = solve_heat1d(Heat1DConfig(n_snaps=16))
        assert np.all(m.data[0, :] == 0.0)
        assert np.all(m.data[-1, :] == 0.0)

    def test_symmetric_ic_stays_symmetric(self):
        cfg = Heat1DConfig(grid=Grid1D(65), n_snaps=20)
        m = solve_heat1d(cfg)
        assert np.max(np.abs(m.data - m.data[::-1, :])) <= 1e-12

    def test_l2_norm_strictly_decreasing(self):
        m = solve_heat1d(Heat1DConfig())
        norms = np.linalg.norm(m.data, axis=0)
        assert np.all(np.diff(norms) < 0.0)

    def test_maximum_principle(self):
        m = solve_heat1d(Heat1DConfig(n_snaps=64))
        assert m.data.min() >= 0.0
        assert m.data.max() <= 1.0

    def test_matches_matrix_exponential_oracle(self):
        # 8-node grid: interior Laplacian is 6x6; u(t) = expm(t alpha L) u0
        grid = Grid1D(8)
        alpha, dt, steps = 1.0, 2e-6, 10
        cfg = Heat1DConfig(
            alpha=alpha, dt=dt, grid=grid, n_snaps=steps + 1,
            ic=InitialCondition1D(left=0.3, right=0.7, height=2.0),
        )
        m = solve_heat1d(cfg)
        dx = grid.spacing
        n_int = 6
        lap = (
            np.diag(np.full(n_int, -2.0))
            + np.diag(np.ones(n_int - 1), 1)
            + np.diag(np.ones(n_int - 1), -1)
        ) / dx**2
        u0 = m.data[1:-1, 0]
        exact = expm(steps * dt * alpha * lap) @ u0
        err = np.linalg.norm(m.data[1:-1, steps] - exact) / np.linalg.norm(exact)
        assert err <= 1e-6

    def test_labels_are_step_times(self):
        cfg = Heat1DConfig(dt=0.5, n_snaps=4)
        m = solve_heat1d(cfg)
        np.testing.assert_allclose(m.column_labels, [0.0, 0.5, 1.0, 1.5])

    def test_default_shape_is_paper_sized(self):
        m = solve_heat1d(Heat1DConfig())
        assert m.data.shape == (256, 128)

    def test_rectangle_outside_domain_rejected(self):
        with pytest.raises(ArgumentError):
            solve_heat1d(Heat1DConfig(ic=InitialCondition1D(left=-0.1, right=0.5)))


class TestAdvectedJump:
    def test_front_condition_at_node(self):
        # node 3 of the 11-node unit grid sits at x ~ 0.3; t = 0.5 is column 1
        m = gen_advected_jump(Grid1D(11), 3)
        x = Grid1D(11).nodes()
        assert x[3] == pytest.approx(0.3)
        assert m.data[3, 1] == 1.0  # 0.3 <= 0.5
        assert x[6] == pytest.approx(0.6)
        assert m.data[6, 1] == 0.0  # 0.6 > 0.5

    def test_final_column_all_ones(self):
        m = gen_advected_jump(Grid1D(256), 128)
        assert np.all(m.data[:, -1] == 1.0)

    def test_first_column_single_node(self):
        m = gen_advected_jump(Grid1D(256), 128)
        assert m.data[0, 0] == 1.0
        assert np.all(m.data[1:, 0] == 0.0)

    def test_binary_and_monotone_front(self, jump_matrix):
        data = jump_matrix.data
        assert np.all((data == 0.0) | (data == 1.0))
        assert np.all(np.diff(data, axis=1) >= 0.0)

    def test_too_few_snapshots_rejected(self):
        with pytest.raises(ArgumentError):
            gen_advected_jump(Grid1D(16), 1)

    @pytest.mark.parametrize("method", ["auto", "direct", "method_of_snapshots"])
    @pytest.mark.parametrize("n", [64, 128])
    def test_square_spectrum_matches_volterra_closed_form(self, n, method):
        # with n nodes and n fronts the matrix is the n x n triangular
        # matrix of ones (the discrete running-sum kernel), whose singular
        # values are 1 / (2 sin((2k - 1) pi / (2 (2n + 1)))), k = 1..n
        sigma = decompose(gen_advected_jump(Grid1D(n), n), method).spectrum.sigma
        k = np.arange(1, n + 1)
        exact = 1.0 / (2.0 * np.sin((2 * k - 1) * np.pi / (2 * (2 * n + 1))))
        np.testing.assert_allclose(sigma, exact, rtol=1e-10)


class TestSigmoid:
    def test_midpoint_exactly_half(self):
        m = gen_sigmoid(Grid1D(11), 3, k=17.0)
        x = Grid1D(11).nodes()
        i = int(np.where(x == 0.5)[0][0])
        assert m.data[i, 1] == 0.5  # x = t = 0.5

    def test_saturation(self):
        m = gen_sigmoid(Grid1D(11), 3, k=1000.0)
        assert m.data[3, 1] == pytest.approx(1.0, abs=1e-12)  # x ~ 0.3, t = 0.5

    def test_columns_monotone_in_x(self):
        m = gen_sigmoid(Grid1D(64), 16, k=40.0)
        assert np.all(np.diff(m.data, axis=0) <= 0.0)

    def test_extreme_steepness_approaches_jump(self, jump_matrix):
        sig = gen_sigmoid(Grid1D(256), 128, k=1e6)
        x = Grid1D(256).nodes()
        t = jump_matrix.column_labels
        off_front = np.abs(x[:, None] - t[None, :]) > 1e-9
        diff = np.abs(sig.data - jump_matrix.data)
        assert diff[off_front].max() < 1e-6

    @pytest.mark.parametrize("k", [STRETCHED_K, STEEP_K, 1e4])
    def test_matches_expit(self, k):
        # numpy's exp and libm's differ by an ulp in a few entries; where
        # 1 + exp(-z) lands on a rounding tie (exp(-z) in [2**53, 2**54),
        # entries near 1e-16) that ulp doubles, so the quotient can move by 3
        m = gen_sigmoid(Grid1D(N_NODES), N_SNAPS, k)
        x = Grid1D(N_NODES).nodes()
        reference = expit(k * (m.column_labels[None, :] - x[:, None]))
        np.testing.assert_array_max_ulp(m.data, reference, maxulp=3)

    def test_invalid_steepness_rejected(self):
        with pytest.raises(ArgumentError, match=r"steepness k must be finite and positive"):
            gen_sigmoid(Grid1D(16), 8, k=0.0)

    @pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf, -1.0])
    def test_steepness_rejected_by_name(self, k):
        with pytest.raises(ArgumentError, match=r"steepness k must be finite and positive"):
            gen_sigmoid(Grid1D(16), 8, k=k)

    def test_smoother_fronts_need_fewer_modes(self):
        grid = Grid1D(256)
        needed = []
        for k in (200.0, 50.0, 10.0):
            spectrum = decompose(gen_sigmoid(grid, 128, k=k)).spectrum
            needed.append(modes_for_energy(spectrum, 0.9999).modes_needed)
        assert needed[0] >= needed[1] >= needed[2]
