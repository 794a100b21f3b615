"""Quantitative spectrum comparison: decay-rate fits and mode-count reports.

Decay rates are least-squares line fits through the spectrum in either
semilog coordinates ``(n, log sigma_n)`` (exponential decay, slope is
the rate) or loglog coordinates ``(log n, log sigma_n)`` (algebraic
decay, slope is the exponent). Mode indices are 1-based throughout,
matching the spectrum CSV format.

:func:`compare` reduces several named spectra to a single
:class:`SpectrumReport`: per-case mode counts at each energy threshold,
both decay fits, and pairwise orderings ("which case needs fewer
modes").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .pod import PodSpectrum, modes_for_energy

# Entries below NOISE_FLOOR * sigma_1 sit in round-off and are excluded
# from fits; the effective fit range is reported in the result.
NOISE_FLOOR = 1e-14

# modes (1-based, inclusive) every decay line is fitted over
FIT_RANGE = (4, 64)
# energy fraction at which mode counts are reported unless others are asked for
ENERGY_THRESHOLD = 0.9999


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay line over ``fit_range`` (1-based, inclusive).

    ``fit_range`` is the part of :data:`FIT_RANGE` left after clipping to
    the spectrum length and the round-off floor; logs are natural.
    """

    slope: float
    intercept: float
    fit_range: tuple[int, int]
    residual: float


def fit_decay(s: PodSpectrum, model: str = "loglog") -> DecayFit | None:
    """Fit a decay line through modes ``FIT_RANGE[0] .. FIT_RANGE[1]``.

    Returns None when fewer than four positive entries above the
    round-off floor remain in the range.
    """
    if model not in ("semilog", "loglog"):
        raise ArgumentError(f"unknown fit model {model!r}")
    lo, hi = FIT_RANGE[0], min(FIT_RANGE[1], len(s))
    floor = NOISE_FLOOR * s.sigma[0]
    while hi >= lo and s.sigma[hi - 1] <= floor:
        hi -= 1
    if hi - lo + 1 < 4:
        return None
    sigma = s.sigma[lo - 1 : hi]
    n = np.arange(lo, hi + 1, dtype=np.float64)
    x = np.log(n) if model == "loglog" else n
    y = np.log(sigma)
    # centred closed form of the least-squares line; np.polyfit would
    # call numpy's lstsq and wake its own OpenBLAS for a two-parameter fit
    x_mean, y_mean = x.mean(), y.mean()
    slope = np.sum((x - x_mean) * (y - y_mean)) / np.sum((x - x_mean) ** 2)
    intercept = y_mean - slope * x_mean
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return DecayFit(float(slope), float(intercept), (lo, hi), residual)


@dataclass(frozen=True)
class CaseSummary:
    """Per-case numbers feeding a report; fits are None when the
    spectrum is too short to fit."""

    name: str
    modes_needed: dict[float, int]
    loglog_fit: DecayFit | None
    semilog_fit: DecayFit | None


@dataclass(frozen=True)
class SpectrumReport:
    """Mode counts, fits, and pairwise verdicts for a set of cases.

    Verdicts are ``(case_a, case_b, threshold, verdict)`` tuples with
    the pair in lexicographic order and verdict one of ``"a<b"``
    (case_a needs fewer modes), ``"b<a"``, or ``"tie"``.
    """

    thresholds: tuple[float, ...]
    cases: tuple[CaseSummary, ...]
    verdicts: tuple[tuple[str, str, float, str], ...]


def compare(named_spectra, thresholds=(ENERGY_THRESHOLD,)) -> SpectrumReport:
    """Summarize and cross-rank named spectra, fitting over ``FIT_RANGE``.

    Parameters
    ----------
    named_spectra : sequence of (name, PodSpectrum)
        At least two entries with unique names, free of commas and line breaks.
    thresholds : sequence of float
        Energy-capture levels; each reported once, in ascending order.
    """
    named_spectra = list(named_spectra)
    if len(named_spectra) < 2:
        raise ArgumentError("need at least two spectra to compare")
    names = [name for name, _ in named_spectra]
    if len(set(names)) != len(names) or any(c in n for n in names for c in ",\r\n"):
        raise ArgumentError(f"case names must be distinct, without ',' or line breaks: {names}")
    thresholds = tuple(sorted({float(t) for t in thresholds}))

    cases = []
    for name, spectrum in named_spectra:
        needed = {t: modes_for_energy(spectrum, t).modes_needed for t in thresholds}
        cases.append(CaseSummary(
            name, needed, fit_decay(spectrum, "loglog"), fit_decay(spectrum, "semilog")
        ))

    verdicts = []
    ordered = sorted(cases, key=lambda c: c.name)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            for t in thresholds:
                if a.modes_needed[t] < b.modes_needed[t]:
                    verdict = "a<b"
                elif a.modes_needed[t] > b.modes_needed[t]:
                    verdict = "b<a"
                else:
                    verdict = "tie"
                verdicts.append((a.name, b.name, t, verdict))

    return SpectrumReport(thresholds, tuple(cases), tuple(verdicts))


def write_report_csv(report: SpectrumReport, path) -> None:
    """Per-case rows: ``case,threshold,modes_needed,loglog_slope,
    semilog_slope,fit_residual`` (residual of the loglog fit).

    Unfittable spectra render their fit columns as ``nan``.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("case,threshold,modes_needed,loglog_slope,semilog_slope,fit_residual\n")
        for case in report.cases:
            ll_slope = f"{case.loglog_fit.slope:.17g}" if case.loglog_fit else "nan"
            sl_slope = f"{case.semilog_fit.slope:.17g}" if case.semilog_fit else "nan"
            residual = f"{case.loglog_fit.residual:.17g}" if case.loglog_fit else "nan"
            for t in report.thresholds:
                fh.write(
                    f"{case.name},{t:.17g},{case.modes_needed[t]},"
                    f"{ll_slope},{sl_slope},{residual}\n"
                )


def write_verdicts_csv(report: SpectrumReport, path) -> None:
    """Pairwise rows: ``case_a,case_b,threshold,verdict``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("case_a,case_b,threshold,verdict\n")
        for a, b, t, verdict in report.verdicts:
            fh.write(f"{a},{b},{t:.17g},{verdict}\n")
