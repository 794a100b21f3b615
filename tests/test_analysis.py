"""Decay fits and cross-case comparison reports."""

import numpy as np
import pytest

from podsnap.analysis import (
    compare,
    fit_decay,
    write_report_csv,
    write_verdicts_csv,
)
from podsnap.errors import ArgumentError
from podsnap.pod import PodSpectrum, decompose, modes_for_energy


def power_law_spectrum(exponent, n=128):
    k = np.arange(1, n + 1, dtype=float)
    return PodSpectrum(k**exponent)


class TestFitDecay:
    def test_exact_power_law(self):
        fit = fit_decay(power_law_spectrum(-0.5), "loglog")
        assert fit.slope == pytest.approx(-0.5, abs=1e-10)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)
        assert fit.fit_range == (4, 64)

    def test_exact_exponential(self):
        sigma = np.exp(-np.arange(1, 31, dtype=float))
        fit = fit_decay(PodSpectrum(sigma), "semilog")
        assert fit.slope == pytest.approx(-1.0, abs=1e-10)

    def test_jump_spectrum_slope_tracks_volterra_rate(self, jump_matrix):
        # The advected-jump kernel is the Volterra integral operator,
        # whose singular values are 1 / ((k - 1/2) pi); the [4, 64]
        # loglog window therefore fits close to slope -1. Frozen from
        # the dense-SVD oracle on the 256 x 128 matrix.
        spectrum = decompose(jump_matrix, "direct").spectrum
        fit = fit_decay(spectrum, "loglog")
        assert fit.slope == pytest.approx(-0.9923, abs=2e-3)

    def test_scaling_shifts_intercept_only(self):
        s = power_law_spectrum(-0.7)
        scaled = PodSpectrum(123.456 * s.sigma)
        f1 = fit_decay(s, "loglog")
        f2 = fit_decay(scaled, "loglog")
        assert f2.slope == pytest.approx(f1.slope, abs=1e-12)
        assert f2.intercept == pytest.approx(f1.intercept + np.log(123.456), abs=1e-10)

    # slopes keep the whole range above the round-off floor
    @pytest.mark.parametrize("model, rate", [("loglog", -1.5), ("semilog", -0.2)])
    def test_matches_polyfit_on_noisy_line(self, model, rate):
        n = np.arange(1, 81, dtype=float)
        x = np.log(n) if model == "loglog" else n
        noise = np.random.default_rng(23).normal(scale=0.05, size=n.size)
        sigma = np.sort(np.exp(2.0 + rate * x + noise))[::-1]
        fit = fit_decay(PodSpectrum(sigma), model)
        xs, ys = x[3:64], np.log(sigma[3:64])
        slope, intercept = np.polyfit(xs, ys, 1)
        residual = np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2))
        assert fit.slope == pytest.approx(slope, rel=1e-12, abs=1e-12)
        assert fit.intercept == pytest.approx(intercept, rel=1e-12, abs=1e-12)
        assert fit.residual == pytest.approx(residual, rel=1e-12, abs=1e-12)

    def test_round_off_floor_trims_range(self):
        sigma = np.concatenate([np.exp(-np.arange(20, dtype=float)), np.full(30, 1e-17)])
        fit = fit_decay(PodSpectrum(sigma), "semilog")
        assert fit.fit_range == (4, 20)

    def test_too_few_points_degenerate(self):
        # modes 4..6 are three points
        assert fit_decay(power_law_spectrum(-1.0, n=6), "loglog") is None

    def test_range_clipped_to_length(self):
        fit = fit_decay(power_law_spectrum(-1.0, n=32), "loglog")
        assert fit.fit_range == (4, 32)

    def test_unknown_model(self):
        with pytest.raises(ArgumentError):
            fit_decay(power_law_spectrum(-1.0), "cubic")


class TestCompare:
    def test_identical_spectra_tie(self):
        s = power_law_spectrum(-1.0)
        report = compare([("a", s), ("b", s)], thresholds=(0.9, 0.9999))
        assert all(verdict == "tie" for _, _, _, verdict in report.verdicts)

    def test_hand_case(self):
        sa = PodSpectrum(np.array([1.0, 0.0]))
        sb = PodSpectrum(np.array([1.0, 1.0]))
        report = compare([("a", sa), ("b", sb)], thresholds=(0.9,))
        assert report.cases[0].modes_needed[0.9] == 1
        assert report.cases[1].modes_needed[0.9] == 2
        assert report.verdicts == (("a", "b", 0.9, "a<b"),)

    def test_heat_needs_fewer_than_jump(self, heat_matrix, jump_matrix):
        sh = decompose(heat_matrix).spectrum
        sj = decompose(jump_matrix).spectrum
        report = compare([("heat", sh), ("jump", sj)], thresholds=(0.9999,))
        (verdict,) = [v for a, b, t, v in report.verdicts if (a, b) == ("heat", "jump")]
        assert verdict == "a<b"

    def test_permutation_invariance(self):
        named = [
            ("x", power_law_spectrum(-0.5)),
            ("y", power_law_spectrum(-1.0)),
            ("z", power_law_spectrum(-2.0)),
        ]
        r1 = compare(named, thresholds=(0.99,))
        r2 = compare(named[::-1], thresholds=(0.99,))
        assert r1.verdicts == r2.verdicts

    def test_antisymmetry_by_construction(self):
        named = [("fast", power_law_spectrum(-2.0)), ("slow", power_law_spectrum(-0.5))]
        report = compare(named, thresholds=(0.999,))
        ((a, b, _, verdict),) = report.verdicts
        assert (a, b) == ("fast", "slow")
        assert verdict == "a<b"

    def test_four_case_paper_ordering(
        self, heat_matrix, jump_matrix, sigmoid_steep_matrix, sigmoid_stretched_matrix
    ):
        counts = {}
        for name, matrix in (
            ("heat", heat_matrix),
            ("stretched", sigmoid_stretched_matrix),
            ("steep", sigmoid_steep_matrix),
            ("jump", jump_matrix),
        ):
            spectrum = decompose(matrix).spectrum
            counts[name] = modes_for_energy(spectrum, 0.9999).modes_needed
        assert counts["heat"] <= counts["stretched"] <= counts["steep"] <= counts["jump"]

    def test_duplicate_names_rejected(self):
        s = power_law_spectrum(-1.0)
        with pytest.raises(ArgumentError):
            compare([("a", s), ("a", s)])

    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb"])
    def test_name_unfit_for_a_csv_field_rejected(self, name):
        # names are written unquoted into the report and verdict rows
        s = power_law_spectrum(-1.0)
        with pytest.raises(ArgumentError):
            compare([(name, s), ("h", s)])

    def test_single_spectrum_rejected(self):
        with pytest.raises(ArgumentError):
            compare([("a", power_law_spectrum(-1.0))])

    def test_repeated_threshold_reported_once(self):
        named = [("a", power_law_spectrum(-1.0)), ("b", power_law_spectrum(-2.0))]
        report = compare(named, thresholds=(0.99, 0.9, 0.99))
        assert report.thresholds == (0.9, 0.99)
        assert len(report.verdicts) == 2

    def test_short_spectra_fit_is_none(self):
        sa = PodSpectrum(np.array([1.0, 0.5]))
        sb = PodSpectrum(np.array([1.0, 0.25]))
        report = compare([("a", sa), ("b", sb)], thresholds=(0.9,))
        assert report.cases[0].loglog_fit is None


class TestReportCsv:
    def test_report_and_verdict_files(self, tmp_path):
        named = [("fast", power_law_spectrum(-2.0)), ("slow", power_law_spectrum(-0.5))]
        report = compare(named, thresholds=(0.99, 0.9999))
        report_path = tmp_path / "report.csv"
        verdicts_path = tmp_path / "verdicts.csv"
        write_report_csv(report, report_path)
        write_verdicts_csv(report, verdicts_path)

        lines = report_path.read_text().splitlines()
        assert lines[0] == "case,threshold,modes_needed,loglog_slope,semilog_slope,fit_residual"
        assert len(lines) == 1 + 2 * 2  # two cases x two thresholds
        first = lines[1].split(",")
        assert first[0] == "fast"
        assert float(first[3]) == pytest.approx(-2.0, abs=1e-9)

        vlines = verdicts_path.read_text().splitlines()
        assert vlines[0] == "case_a,case_b,threshold,verdict"
        assert vlines[1].split(",")[3] == "a<b"

    def test_nan_rendered_for_missing_fits(self, tmp_path):
        named = [
            ("a", PodSpectrum(np.array([1.0, 0.5]))),
            ("b", PodSpectrum(np.array([1.0, 0.25]))),
        ]
        report = compare(named, thresholds=(0.9,))
        path = tmp_path / "r.csv"
        write_report_csv(report, path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[3] == "nan" and row[4] == "nan" and row[5] == "nan"
