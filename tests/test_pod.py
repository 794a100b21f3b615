"""POD engine: decomposition methods, energy accounting, truncation."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_snapshot_matrix, traced_peak
from podsnap import pod as pod_module
from podsnap.errors import ArgumentError, DataError, FormatError, NumericalError
from podsnap.pod import (
    RANK_CLAMP,
    PodSpectrum,
    component_split,
    decompose,
    modes_for_energy,
    normalized_spectrum,
    read_spectrum_csv,
    truncate,
    unit_energy_weighted,
    write_spectrum_csv,
)
from podsnap.snapshots import COPY_ROWS, FieldLayout, SnapshotMatrix, matrix_from_array


def eigh_singular_values(data):
    """Independent sigma oracle via the Gram eigenproblem of the
    smaller dimension (never calls numpy's SVD)."""
    gram = data.T @ data if data.shape[0] >= data.shape[1] else data @ data.T
    lam = np.linalg.eigvalsh(gram)[::-1]
    return np.sqrt(np.clip(lam, 0.0, None))


class TestDecompose:
    def test_rank_one(self):
        a = np.array([3.0, 4.0]) / 5.0
        b = np.array([1.0, 2.0, 2.0]) / 3.0
        m = matrix_from_array(7.0 * np.outer(a, b))
        basis = decompose(m, "direct")
        assert basis.spectrum.sigma[0] == pytest.approx(7.0, rel=1e-13)
        assert np.all(basis.spectrum.sigma[1:] < 1e-12)

    def test_diagonal_sorted(self):
        basis = decompose(matrix_from_array([[3.0, 0.0], [0.0, 4.0]]), "direct")
        assert basis.spectrum.sigma == pytest.approx([4.0, 3.0], rel=1e-14)

    def test_methods_agree_on_jump(self, jump_matrix):
        direct = decompose(jump_matrix, "direct")
        mos = decompose(jump_matrix, "method_of_snapshots")
        np.testing.assert_allclose(
            mos.spectrum.sigma, direct.spectrum.sigma, rtol=1e-8
        )

    def test_sign_convention_aligns_methods(self, jump_matrix):
        direct = decompose(jump_matrix, "direct")
        mos = decompose(jump_matrix, "method_of_snapshots")
        np.testing.assert_allclose(mos.modes[:, :10], direct.modes[:, :10], atol=1e-7)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(11)
        m = random_snapshot_matrix(rng, 30, 20)
        basis = decompose(m, "direct")
        err = np.linalg.norm(basis.reconstruct() - m.data) / np.linalg.norm(m.data)
        assert err <= 1e-10

    def test_auto_routes_by_aspect_ratio(self):
        rng = np.random.default_rng(5)
        tall = random_snapshot_matrix(rng, 50, 10, rank=5)
        # method of snapshots clamps null directions away: 5 modes survive
        assert decompose(tall, "auto").n_modes == 5
        square_ish = random_snapshot_matrix(rng, 40, 10, rank=5)
        # 40 <= 4 * 10 routes to the direct SVD, which keeps all 10
        assert decompose(square_ish, "auto").n_modes == 10

    def test_unknown_method_rejected(self):
        with pytest.raises(ArgumentError):
            decompose(matrix_from_array(np.eye(3)), "fastest")

    def test_coeffs_are_scaled_right_vectors(self):
        rng = np.random.default_rng(2)
        m = random_snapshot_matrix(rng, 12, 8)
        basis = decompose(m, "direct")
        norms = np.linalg.norm(basis.coeffs, axis=1)
        np.testing.assert_allclose(norms, basis.spectrum.sigma[:8], rtol=1e-12)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Names of the LAPACK and BLAS calls made from inside ``pod``:
    ``scipy.dgeqrt``, ``scipy.dsyrk``, and ``scipy.svd`` or ``scipy.eigh``
    with a ``_values`` suffix when only values were asked."""
    calls = []

    def spy(module, name, label, values_only=lambda kwargs: False):
        original = getattr(module, name)

        def record(*args, **kwargs):
            calls.append(label + ("_values" if values_only(kwargs) else ""))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, record)

    sla = pod_module.scipy.linalg
    spy(sla, "svd", "scipy.svd", lambda kwargs: not kwargs.get("compute_uv", True))
    spy(sla, "eigh", "scipy.eigh", lambda kwargs: kwargs.get("eigvals_only", False))
    spy(sla.lapack, "dgeqrt", "scipy.dgeqrt")
    spy(sla.blas, "dsyrk", "scipy.dsyrk")
    return calls


class TestLazyModes:
    """The spectrum is computed by decompose; modes and coeffs on first read."""

    SPECTRUM_CALLS = {"direct": ["scipy.dgeqrt", "scipy.svd_values"],
                      "method_of_snapshots": ["scipy.dsyrk", "scipy.eigh_values"]}
    FACTOR_CALLS = ["scipy.svd"]

    @pytest.mark.parametrize("method", ["direct", "method_of_snapshots"])
    def test_spectrum_reads_make_no_vector_call(self, linalg_calls, method):
        m = random_snapshot_matrix(np.random.default_rng(3), 60, 8)
        basis = decompose(m, method)
        assert basis.spectrum.sigma.size == 8
        assert (basis.n_modes, basis.n_dof, basis.n_snaps) == (8, 60, 8)
        assert linalg_calls == self.SPECTRUM_CALLS[method]
        basis.modes
        basis.coeffs
        assert linalg_calls == self.SPECTRUM_CALLS[method] + self.FACTOR_CALLS

    @pytest.mark.parametrize("method", ["direct", "method_of_snapshots"])
    def test_mode_read_is_one_scipy_svd_with_vectors_and_no_numpy_factorization(
            self, monkeypatch, linalg_calls, method):
        # numpy and scipy may each ship an OpenBLAS; a mode read stays on scipy's
        def refuse(*args, **kwargs):
            raise AssertionError("pod called a numpy.linalg factorization")

        m = random_snapshot_matrix(np.random.default_rng(7), 60, 8)
        for name in ("svd", "svdvals", "eig", "eigvals", "eigh", "eigvalsh", "qr", "cholesky"):
            if hasattr(np.linalg, name):
                monkeypatch.setattr(pod_module.np.linalg, name, refuse)
        basis = decompose(m, method)
        modes = basis.modes
        assert linalg_calls == self.SPECTRUM_CALLS[method] + self.FACTOR_CALLS
        # LAPACK's column-major U is kept: each mode is contiguous, like each snapshot
        assert modes.flags.f_contiguous and not modes.flags.writeable
        assert truncate(basis, 3).modes.flags.f_contiguous

    def test_clamped_modes_own_their_columns_and_full_modes_view_u(self):
        m = random_snapshot_matrix(np.random.default_rng(65), 4000, 200, rank=20)
        clamped = decompose(m, "method_of_snapshots")
        direct = decompose(m, "direct")
        assert (clamped.n_modes, direct.n_modes) == (20, 200)
        modes = clamped.modes
        # the r columns are copied out, so the 4000 x 200 U is not held
        assert modes.base is None
        assert modes.flags.f_contiguous and not modes.flags.writeable
        assert np.array_equal(modes, direct.modes[:, :20])
        # all of U is kept: the modes stay a view, with no extra copy
        assert direct.modes.base is not None

    @pytest.mark.parametrize("method", ["direct", "method_of_snapshots"])
    def test_non_orthonormal_factor_raises_on_first_read(self, monkeypatch, method):
        original = scipy.linalg.svd

        def perturbed(*args, **kwargs):
            out = original(*args, **kwargs)
            return (out[0] * (1.0 + 1e-6),) + tuple(out[1:])

        basis = decompose(random_snapshot_matrix(np.random.default_rng(4), 60, 8), method)
        assert basis.n_modes == 8
        monkeypatch.setattr(pod_module.scipy.linalg, "svd", perturbed)
        with pytest.raises(NumericalError, match="not orthonormal"):
            basis.modes
        with pytest.raises(NumericalError, match="not orthonormal"):
            basis.coeffs

    @pytest.mark.parametrize("method", ["direct", "method_of_snapshots"])
    def test_svd_failure_raises_on_first_read(self, monkeypatch, method):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        basis = decompose(random_snapshot_matrix(np.random.default_rng(4), 60, 8), method)
        monkeypatch.setattr(pod_module.scipy.linalg, "svd", no_convergence)
        with pytest.raises(NumericalError, match="did not converge"):
            basis.modes

    @pytest.mark.parametrize("method", ["direct", "method_of_snapshots"])
    def test_repeated_reads_return_the_same_read_only_arrays(self, method):
        basis = decompose(random_snapshot_matrix(np.random.default_rng(5), 40, 6), method)
        modes, coeffs = basis.modes, basis.coeffs
        assert basis.modes is modes and basis.coeffs is coeffs
        assert not modes.flags.writeable and not coeffs.flags.writeable

    @pytest.mark.parametrize("method", ["direct", "method_of_snapshots"])
    def test_truncate_of_unread_basis_reaches_eckart_young(self, linalg_calls, method):
        m = random_snapshot_matrix(np.random.default_rng(6), 60, 12)
        basis = decompose(m, method)
        kept = truncate(basis, 3)
        chain = truncate(truncate(basis, 5), 2)
        assert linalg_calls == self.SPECTRUM_CALLS[method]
        # a chain of truncations slices the one factor of the basis it came from
        assert not chain.modes.flags.writeable and not chain.coeffs.flags.writeable
        assert linalg_calls == self.SPECTRUM_CALLS[method] + self.FACTOR_CALLS
        np.testing.assert_array_equal(chain.modes, basis.modes[:, :2])
        np.testing.assert_array_equal(chain.coeffs, basis.coeffs[:2])
        err_sq = np.linalg.norm(kept.reconstruct() - m.data) ** 2
        assert err_sq == pytest.approx(np.sum(basis.spectrum.sigma[3:] ** 2), rel=1e-8)
        assert kept.modes.shape == (60, 3)
        np.testing.assert_array_equal(kept.modes, basis.modes[:, :3])
        assert linalg_calls == self.SPECTRUM_CALLS[method] + self.FACTOR_CALLS


class TestSpectrumDrift:
    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["tall", "wide", "square", "rank_deficient"]),
        size=st.integers(1, 12),
        seed=st.integers(0, 2**31),
    )
    def test_direct_spectrum_matches_thin_svd(self, kind, size, seed):
        n_dof, n_snaps, rank = {
            "tall": (5 * size, size, None),
            "wide": (size, 5 * size, None),
            "square": (size, size, None),
            "rank_deficient": (3 * size + 2, 2 * size + 2, max(1, size // 2)),
        }[kind]
        m = random_snapshot_matrix(np.random.default_rng(seed), n_dof, n_snaps, rank)
        sigma = decompose(m, "direct").spectrum.sigma
        reference = np.linalg.svd(m.data, full_matrices=False)[1]
        np.testing.assert_allclose(sigma, reference, rtol=0, atol=1e-13 * reference[0])

    def test_method_of_snapshots_spectrum_is_clamped_sqrt_eigh(self):
        # column scales from 1 to 1e-9 put the trailing Gram eigenvalues
        # below the clamp
        rng = np.random.default_rng(8)
        data = rng.normal(size=(80, 10)) * np.logspace(0, -9, 10)
        m = matrix_from_array(data)
        sigma = decompose(m, "method_of_snapshots").spectrum.sigma

        def clamped_sqrt(lam):
            lam = np.sort(lam)[::-1]
            lam[lam < RANK_CLAMP * max(lam[0], 0.0)] = 0.0
            return np.sqrt(lam)[:10]

        gram = scipy.linalg.blas.dsyrk(1.0, m.data.T)
        reference = clamped_sqrt(
            scipy.linalg.eigh(gram, lower=False, eigvals_only=True, check_finite=False))
        assert 0 < np.count_nonzero(reference == 0.0) < 10
        assert np.array_equal(sigma, reference)
        # and to round-off of the numpy Gram route above the clamp
        numpy_route = clamped_sqrt(np.linalg.eigh(data.T @ data)[0])
        above = numpy_route > 0
        assert np.array_equal(sigma > 0, above)
        np.testing.assert_allclose(sigma[above], numpy_route[above],
                                   rtol=0, atol=1e-12 * numpy_route[0])


def graded_matrix(n_dof=3000, n_snaps=120, exponent=5.0, seed=12):
    """Tall matrix with singular values n^-exponent, n = 1..n_snaps."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(n_dof, n_snaps)))[0]
    v = np.linalg.qr(rng.normal(size=(n_snaps, n_snaps)))[0]
    return (u * np.arange(1, n_snaps + 1, dtype=np.float64) ** -exponent) @ v.T


class TestQrFirstDirectRoute:
    """The direct spectrum is the values-only SVD of the QR factor R."""

    @staticmethod
    def storage_cases():
        graded = graded_matrix()
        padded = np.asfortranarray(np.vstack([graded, np.ones((7, graded.shape[1]))]))
        split = component_split(SnapshotMatrix(
            padded, FieldLayout.from_sizes((("a", graded.shape[0]), ("b", 7))),
            np.arange(graded.shape[1], dtype=np.float64)))["a"]
        assert not (split.data.flags.c_contiguous or split.data.flags.f_contiguous)
        return {
            "C": matrix_from_array(np.ascontiguousarray(graded)),
            "F": matrix_from_array(np.asfortranarray(graded)),
            "F row slice": split,
            "wide": matrix_from_array(np.ascontiguousarray(graded.T)),
        }

    @pytest.mark.parametrize("storage", ["C", "F", "F row slice", "wide"])
    def test_graded_spectrum_matches_numpy_svd(self, storage):
        m = self.storage_cases()[storage]
        before = m.data.tobytes()
        sigma = decompose(m, "direct").spectrum.sigma
        reference = np.linalg.svd(m.data, compute_uv=False)
        assert sigma.size == 120
        np.testing.assert_allclose(sigma, reference, rtol=0, atol=1e-13 * reference[0])
        assert m.data.tobytes() == before


class TestMethodOfSnapshotsModes:
    """Modes read after the values-only Gram spectrum."""

    def test_modes_agree_with_direct_route(self):
        data = graded_matrix(n_dof=400, n_snaps=30, exponent=1.0, seed=3)
        m = matrix_from_array(np.asfortranarray(data))
        direct = decompose(m, "direct")
        mos = decompose(m, "method_of_snapshots")
        assert mos.n_modes == direct.n_modes == 30
        np.testing.assert_allclose(mos.modes, direct.modes, rtol=0, atol=1e-9)
        np.testing.assert_allclose(mos.coeffs, direct.coeffs, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("r", [1, 4, 11])
    def test_truncated_modes_reach_eckart_young(self, r):
        m = random_snapshot_matrix(np.random.default_rng(r), 90, 15)
        basis = decompose(m, "method_of_snapshots")
        err_sq = np.linalg.norm(truncate(basis, r).reconstruct() - m.data) ** 2
        assert err_sq == pytest.approx(np.sum(basis.spectrum.sigma[r:] ** 2), rel=1e-9)


class TestNormalizedSpectrum:
    def test_ratio(self):
        norm = normalized_spectrum(PodSpectrum(np.array([4.0, 3.0])))
        assert norm[0] == 1.0
        assert norm[1] == pytest.approx(0.75)

    def test_singleton(self):
        assert normalized_spectrum(PodSpectrum(np.array([5.0])))[0] == 1.0

    def test_zero_spectrum_degenerate(self):
        with pytest.raises(DataError, match="numerically zero"):
            normalized_spectrum(PodSpectrum(np.array([0.0, 0.0])))


class TestModesForEnergy:
    def test_single_mode_carries_all(self):
        report = modes_for_energy(PodSpectrum(np.array([1.0, 0.0, 0.0])), 0.9999)
        assert report.modes_needed == 1

    def test_equal_energies(self):
        report = modes_for_energy(PodSpectrum(np.ones(4)), 0.5)
        assert report.modes_needed == 2

    def test_hand_computed_cumulative(self):
        # sigma = [3, 2, 1]: energies 9, 4, 1 of 14
        report = modes_for_energy(PodSpectrum(np.array([3.0, 2.0, 1.0])), 0.9)
        assert report.modes_needed == 2
        np.testing.assert_allclose(report.cumulative, [9 / 14, 13 / 14, 1.0], rtol=1e-15)

    def test_threshold_validation(self):
        s = PodSpectrum(np.array([1.0]))
        for bad in (0.0, -0.5, 1.1):
            with pytest.raises(ArgumentError):
                modes_for_energy(s, bad)

    def test_full_capture_at_one(self):
        report = modes_for_energy(PodSpectrum(np.array([2.0, 1.0, 0.0])), 1.0)
        assert report.modes_needed == 2
        assert report.cumulative[-1] == 1.0

    @given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=30), st.data())
    def test_monotone_in_threshold(self, values, data):
        sigma = np.sort(np.asarray(values))[::-1]
        s = PodSpectrum(sigma)
        t1 = data.draw(st.floats(0.01, 1.0))
        t2 = data.draw(st.floats(t1, 1.0))
        assert modes_for_energy(s, t1).modes_needed <= modes_for_energy(s, t2).modes_needed

    @given(
        st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=30),
        st.integers(-1000, 1000),
        st.floats(0.01, 1.0),
    )
    def test_fractions_do_not_depend_on_scale(self, values, k, threshold):
        # 2**k keeps every value in [1e-6, 1e6] normal and finite, so the
        # scaled spectrum has the same bits but its exponent; unscaled
        # squares would overflow or underflow for large |k|
        sigma = np.sort(np.asarray(values))[::-1]
        want = modes_for_energy(PodSpectrum(sigma), threshold)
        got = modes_for_energy(PodSpectrum(np.ldexp(sigma, k)), threshold)
        assert got.modes_needed == want.modes_needed
        assert np.array_equal(got.cumulative, want.cumulative)


class TestTruncate:
    def test_full_rank_lossless(self):
        rng = np.random.default_rng(4)
        m = random_snapshot_matrix(rng, 15, 10)
        basis = decompose(m, "direct")
        kept = truncate(basis, basis.n_modes)
        err = np.linalg.norm(kept.reconstruct() - m.data) / np.linalg.norm(m.data)
        assert err <= 1e-10

    def test_rank_two_eckart_young(self):
        rng = np.random.default_rng(9)
        m = random_snapshot_matrix(rng, 12, 6, rank=2)
        basis = decompose(m, "direct")
        kept = truncate(basis, 1)
        err_sq = np.linalg.norm(kept.reconstruct() - m.data) ** 2
        assert err_sq == pytest.approx(basis.spectrum.sigma[1] ** 2, rel=1e-8)

    def test_heat_matrix_rank_10(self, heat_matrix):
        basis = decompose(heat_matrix, "direct")
        kept = truncate(basis, 10)
        err = np.linalg.norm(kept.reconstruct() - heat_matrix.data)
        assert err / np.linalg.norm(heat_matrix.data) < 1e-4

    def test_eckart_young_sweep_against_oracle(self):
        rng = np.random.default_rng(21)
        for n_dof, n_snaps in ((40, 25), (64, 64), (17, 30)):
            m = random_snapshot_matrix(rng, n_dof, n_snaps)
            sigma_oracle = eigh_singular_values(m.data)
            basis = decompose(m, "direct")
            total = np.sum(sigma_oracle**2)
            for r in range(1, basis.n_modes + 1, 5):
                err_sq = np.linalg.norm(truncate(basis, r).reconstruct() - m.data) ** 2
                tail_sq = np.sum(sigma_oracle[r:] ** 2)
                assert err_sq == pytest.approx(tail_sq, rel=1e-8, abs=1e-10 * total)

    def test_rank_validation(self):
        basis = decompose(matrix_from_array(np.eye(3)), "direct")
        with pytest.raises(ArgumentError):
            truncate(basis, 0)
        with pytest.raises(ArgumentError):
            truncate(basis, 4)


class TestComponentSplit:
    def test_single_segment_identity(self):
        m = matrix_from_array(np.arange(12.0).reshape(4, 3), name="u")
        parts = component_split(m)
        assert list(parts) == ["u"]
        assert parts["u"] == m

    @pytest.mark.parametrize("method", ["direct", "method_of_snapshots"])
    def test_zero_block_spectrum(self, method):
        layout = FieldLayout.from_sizes([("u", 4), ("p", 4)])
        data = np.zeros((8, 3))
        data[:4, :] = np.random.default_rng(0).normal(size=(4, 3))
        m = SnapshotMatrix(data, layout, [0.0, 1.0, 2.0])
        parts = component_split(m)
        with pytest.raises(DataError, match="numerically zero"):
            decompose(parts["p"], method)

    def test_stack_reproduces_input(self):
        rng = np.random.default_rng(13)
        layout = FieldLayout.from_sizes([("u", 5), ("v", 4), ("p", 3)])
        m = SnapshotMatrix(rng.normal(size=(12, 7)), layout, np.arange(7.0))
        parts = component_split(m)
        stacked = np.vstack([parts[name].data for name in layout.names])
        assert np.array_equal(stacked, m.data)
        for name in layout.names:
            assert np.array_equal(parts[name].column_labels, m.column_labels)

    def test_field_gram_stages_one_block_at_a_time(self):
        # a field is a row view, not Fortran-contiguous; 1300 rows leave a
        # partial last block
        n_snaps = 200
        layout = FieldLayout.from_sizes([("u", 500), ("v", 1300), ("p", 300)])
        data = np.asfortranarray(np.random.default_rng(29).normal(size=(2100, n_snaps)))
        field = component_split(SnapshotMatrix(data, layout, np.arange(n_snaps, dtype=float)))["v"]
        assert not field.data.flags.f_contiguous and 1300 % COPY_ROWS != 0
        basis, peak = traced_peak(lambda: decompose(field, "method_of_snapshots"))
        gram, block = n_snaps * n_snaps * 8, COPY_ROWS * n_snaps * 8
        assert peak < gram + 1.5 * block
        contiguous = matrix_from_array(np.asfortranarray(field.data))
        np.testing.assert_allclose(basis.spectrum.sigma,
                                   decompose(contiguous, "method_of_snapshots").spectrum.sigma,
                                   rtol=1e-13, atol=0)

    def test_leading_sigma_interlacing(self):
        rng = np.random.default_rng(17)
        layout = FieldLayout.from_sizes([("u", 6), ("v", 5), ("p", 4)])
        m = SnapshotMatrix(rng.normal(size=(15, 8)), layout, np.arange(8.0))
        sigma_full = np.linalg.svd(m.data, compute_uv=False)[0]
        for part in component_split(m).values():
            sigma_sub = np.linalg.svd(part.data, compute_uv=False)[0]
            assert sigma_sub <= sigma_full * (1 + 1e-12)


class TestUnitEnergyWeighted:
    def test_blocks_scaled_to_unit_norm_keeping_layout(self):
        rng = np.random.default_rng(19)
        layout = FieldLayout.from_sizes([("u", 5), ("p", 3), ("T", 4)])
        data = rng.normal(size=(12, 6)) * np.repeat([1e-3, 1.0, 700.0], [5, 3, 4])[:, None]
        m = SnapshotMatrix(data, layout, np.linspace(0.5, 3.0, 6))
        weighted = unit_energy_weighted(m)
        assert weighted.layout == m.layout
        assert np.array_equal(weighted.column_labels, m.column_labels)
        for name in layout.names:
            block, original = weighted.field(name), m.field(name)
            assert np.linalg.norm(block) == pytest.approx(1.0, rel=1e-12)
            np.testing.assert_allclose(
                block * np.linalg.norm(original), original, rtol=1e-12, atol=0
            )

    def test_weights_do_not_depend_on_storage(self):
        # large enough that a norm summed in storage order differs in the
        # last bits between C and F copies
        layout = FieldLayout.from_sizes([("u", 1200), ("p", 1000), ("T", 800)])
        data = np.random.default_rng(0).normal(size=(3000, 200))
        weighted = {}
        for order in "CF":
            m = SnapshotMatrix(np.array(data, order=order), layout, np.arange(200.0))
            weighted[order] = unit_energy_weighted(m).data
            for name, sub in component_split(m).items():
                expected = weighted["C"][layout.rows(name)]
                assert np.array_equal(unit_energy_weighted(sub).data, expected)
        assert np.array_equal(weighted["F"], weighted["C"])

    def test_all_zero_block_names_the_field(self):
        layout = FieldLayout.from_sizes([("u", 4), ("p", 4)])
        data = np.zeros((8, 3))
        data[:4, :] = np.random.default_rng(0).normal(size=(4, 3))
        m = SnapshotMatrix(data, layout, [0.0, 1.0, 2.0])
        with pytest.raises(DataError, match="'p'"):
            unit_energy_weighted(m)

    @pytest.mark.parametrize("k", [600, -600])
    def test_weights_do_not_depend_on_block_scale(self, k):
        # squares of a 2**600 block overflow, those of a 2**-600 block
        # underflow to zero; the weighted data must not see either
        layout = FieldLayout.from_sizes([("u", 5), ("p", 3)])
        data = np.random.default_rng(23).normal(size=(8, 6))
        scaled = data.copy()
        scaled[5:] = np.ldexp(data[5:], k)

        def weighted(d):
            return unit_energy_weighted(SnapshotMatrix(d, layout, np.arange(6.0))).data

        assert np.array_equal(weighted(scaled), weighted(data))


class TestProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        n_dof=st.integers(2, 60),
        n_snaps=st.integers(2, 25),
        seed=st.integers(0, 2**31),
    )
    def test_orthonormal_modes(self, n_dof, n_snaps, seed):
        rng = np.random.default_rng(seed)
        m = random_snapshot_matrix(rng, n_dof, n_snaps)
        for method in ("direct", "method_of_snapshots"):
            basis = decompose(m, method)
            gram = basis.modes.T @ basis.modes
            assert np.linalg.norm(gram - np.eye(basis.n_modes)) <= 1e-10

    @settings(max_examples=10, deadline=None)
    @given(
        n_dof=st.integers(10, 200),
        n_snaps=st.integers(2, 100),
        seed=st.integers(0, 2**31),
    )
    def test_methods_agree_on_random(self, n_dof, n_snaps, seed):
        rng = np.random.default_rng(seed)
        m = random_snapshot_matrix(rng, n_dof, n_snaps)
        direct = decompose(m, "direct").spectrum.sigma
        mos = decompose(m, "method_of_snapshots").spectrum.sigma
        np.testing.assert_allclose(mos, direct, rtol=1e-8, atol=1e-8 * direct[0])

    @settings(max_examples=15, deadline=None)
    @given(
        scale=st.floats(1e-6, 1e6),
        seed=st.integers(0, 2**31),
    )
    def test_scaling_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(12, 7))
        s1 = decompose(matrix_from_array(data), "direct").spectrum
        s2 = decompose(matrix_from_array(scale * data), "direct").spectrum
        np.testing.assert_allclose(s2.sigma, scale * s1.sigma, rtol=1e-10)
        np.testing.assert_allclose(
            normalized_spectrum(s2), normalized_spectrum(s1), rtol=1e-9, atol=1e-12
        )
        assert (
            modes_for_energy(s1, 0.99).modes_needed
            == modes_for_energy(s2, 0.99).modes_needed
        )


class TestSpectrumCsv:
    def test_round_trip_exact(self, tmp_path):
        sigma = np.array([3.0, 1.0, 1e-7, 2.3e-16])
        path = tmp_path / "s.csv"
        write_spectrum_csv(PodSpectrum(sigma), path)
        back = read_spectrum_csv(path)
        assert np.array_equal(back.sigma, sigma)

    def test_header_and_indexing(self, tmp_path):
        path = tmp_path / "s.csv"
        write_spectrum_csv(PodSpectrum(np.array([2.0, 1.0])), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,sigma,sigma_norm,cumulative_energy"
        assert lines[1].startswith("1,2,1,")
        assert lines[2].startswith("2,1,0.5,1")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("wrong,header\n1,2\n")
        with pytest.raises(FormatError):
            read_spectrum_csv(path)
