"""Proper orthogonal decomposition of snapshot matrices.

The singular values of a snapshot matrix ``X = U S V^T`` come either
directly or via the method of snapshots (eigenvalues of the small Gram
matrix ``X^T X``); every reported number comes from them alone, so the
modes wait until they are read. Also energy-capture accounting, optimal
truncation, and per-field splitting of multi-quantity matrices.

"Energy" throughout is the cumulative sum of squared singular values
over their total; the spectrum normalization exposed to reports is
``sigma_i / sigma_1``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ArgumentError, DataError, FormatError, NumericalError
from .snapshots import COPY_ROWS, FieldLayout, SnapshotMatrix

# Gram eigenvalues below RANK_CLAMP * lambda_max are round-off; clamp to
# zero before the square root so near-null directions never go negative.
RANK_CLAMP = 1e-14

ORTHO_TOL = 1e-10

# dgeqrt block size. Its recursive panels run at BLAS-3 speed (Elmroth &
# Gustavson 2000); on a 16512 x 500 matrix, 2 cores, blocks of 32 to 128
# timed alike (155-206 ms) and 16 was slower.
QR_BLOCK = 32


@dataclass(frozen=True)
class PodSpectrum:
    """Non-increasing singular values of one snapshot matrix, ``sigma[0] > 0``."""

    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=np.float64)
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        if sigma.ndim != 1 or sigma.size < 1:
            raise DataError("spectrum needs at least one value")
        if not np.all(np.isfinite(sigma)):
            raise DataError("spectrum contains non-finite values")
        if np.any(sigma < 0):
            raise DataError("singular values must be non-negative")
        if np.any(np.diff(sigma) > 0):
            raise DataError("singular values must be non-increasing")
        if sigma[0] == 0.0:
            raise DataError("spectrum is numerically zero and has no energy")

    def __len__(self) -> int:
        return self.sigma.size


@dataclass(frozen=True)
class EnergyReport:
    """Minimal mode count reaching an energy-capture threshold."""

    modes_needed: int
    cumulative: np.ndarray = field(repr=False)


class PodBasis:
    """Spectrum, left singular vectors and scaled coefficients.

    ``n_dof`` and ``n_snaps`` are the shape of ``data``. On first read,
    ``modes`` and ``coeffs`` come from the basis's own thin SVD of
    ``data`` (a truncated basis slices its ``source``'s), kept to
    ``n_modes``, signed by :func:`_fix_signs`, checked and made
    read-only. ``modes`` has orthonormal columns; ``coeffs`` holds the
    rows of ``S V^T``, so ``modes @ coeffs`` reconstructs the snapshot
    matrix. The spectrum may be longer than the mode count when trailing
    singular values were clamped to zero (method of snapshots).
    """

    def __init__(self, spectrum: PodSpectrum, data: np.ndarray, n_modes: int, source=None):
        self.spectrum = spectrum
        self.n_dof, self.n_snaps = data.shape
        self.n_modes = n_modes
        self._data = data
        self._source = source

    @functools.cached_property
    def _factor(self) -> tuple[np.ndarray, np.ndarray]:
        r = self.n_modes
        if self._source is not None:
            modes, coeffs = self._source._factor
            return modes[:, :r], coeffs[:r]
        try:
            modes, sigma, vt = np.linalg.svd(self._data, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"mode computation did not converge: {exc}") from exc
        modes = np.ascontiguousarray(modes[:, :r])
        coeffs = sigma[:r, None] * vt[:r]
        _fix_signs(modes, coeffs)
        defect = float(np.linalg.norm(modes.T @ modes - np.eye(r)))
        if defect > ORTHO_TOL:
            raise NumericalError(
                f"mode columns are not orthonormal: ||U^T U - I||_F = {defect:.3e}"
            )
        modes.setflags(write=False)
        coeffs.setflags(write=False)
        return modes, coeffs

    @property
    def modes(self) -> np.ndarray:
        return self._factor[0]

    @property
    def coeffs(self) -> np.ndarray:
        return self._factor[1]

    def reconstruct(self) -> np.ndarray:
        return self.modes @ self.coeffs


def _fix_signs(modes: np.ndarray, coeffs: np.ndarray) -> None:
    """Make each mode's largest-magnitude entry positive, and flip its
    coefficient row with it (in place): an SVD fixes neither sign."""
    for k in range(modes.shape[1]):
        pivot = np.argmax(np.abs(modes[:, k]))
        if modes[pivot, k] < 0:
            modes[:, k] *= -1.0
            coeffs[k, :] *= -1.0


def _r_factor(x: np.ndarray) -> np.ndarray:
    """Upper-triangular R of the QR factorization of ``x``, or of ``x.T``
    when ``x`` is wide; it has the same singular values as ``x``."""
    tall = x if x.shape[0] >= x.shape[1] else x.T
    n = tall.shape[1]
    # f2py hands LAPACK a copy, so x is never overwritten; a tall
    # snapshot-major matrix is Fortran-ordered, so the copy is a memcpy
    qr, _, info = scipy.linalg.lapack.dgeqrt(min(QR_BLOCK, n), tall)
    if info != 0:
        raise NumericalError(f"QR factorization failed: dgeqrt info {info}")
    return np.triu(qr[:n])


def _gram(x: np.ndarray) -> np.ndarray:
    """Upper triangle of ``x.T @ x``; the lower one is left zero.

    A whole snapshot-major matrix is Fortran-ordered and is read in place.
    A row view of one (a ``component_split`` field) is not, and f2py
    would gather all of it for one call, so its Gram sums ``COPY_ROWS``-row
    blocks into one array: f2py stages one block at a time.
    """
    if x.flags.f_contiguous:
        return scipy.linalg.blas.dsyrk(1.0, x, trans=1)
    g = np.zeros((x.shape[1], x.shape[1]), order="F")
    for start in range(0, x.shape[0], COPY_ROWS):
        scipy.linalg.blas.dsyrk(1.0, x[start : start + COPY_ROWS], trans=1,
                                beta=1.0, c=g, overwrite_c=True)
    return g


def decompose(m: SnapshotMatrix, method: str = "auto") -> PodBasis:
    """POD of a snapshot matrix: the spectrum now, the modes on first read.

    Parameters
    ----------
    m : SnapshotMatrix
    method : {"auto", "direct", "method_of_snapshots"}
        How the spectrum is computed. ``direct`` reduces the matrix (or
        its transpose, when wide) to R by blocked Householder QR and takes
        a values-only SVD of R. ``method_of_snapshots`` takes the
        eigenvalues of the n_snaps x n_snaps Gram matrix, which is much
        cheaper when n_dof >> n_snaps; eigenvalues below the clamp level
        become zero and only the positive ones count as modes. ``auto``
        picks the method of snapshots when n_dof > 4 * n_snaps.

    The spectrum is computed with ``scipy.linalg`` alone: numpy and scipy
    may each ship their own OpenBLAS, and alternating between the two
    makes each wait for the other's idle threads. On either route the
    basis computes its modes, on first read, from its own thin SVD of
    the matrix with ``numpy.linalg``, kept to the route's mode count, so
    the two routes agree mode by mode. The Gram product squares the data,
    so the method of snapshots reads a matrix below about 1e-154 as zero
    and fails above about 1e154; the direct route squares nothing.
    """
    if method == "auto":
        method = "method_of_snapshots" if m.n_dof > 4 * m.n_snaps else "direct"
    if method not in ("direct", "method_of_snapshots"):
        raise ArgumentError(f"unknown method {method!r}")
    x = np.asarray(m.data)

    if method == "direct":
        # SnapshotMatrix rejects non-finite data, so R needs no finiteness check
        try:
            sigma = scipy.linalg.svd(_r_factor(x), compute_uv=False, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD did not converge: {exc}") from exc
        n_modes = sigma.size
    else:
        try:
            lam = scipy.linalg.eigh(_gram(x), lower=False, eigvals_only=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Gram eigenproblem did not converge: {exc}") from exc
        lam = lam[::-1]
        lam[lam < RANK_CLAMP * max(lam[0], 0.0)] = 0.0
        sigma = np.sqrt(lam)[: min(m.n_dof, m.n_snaps)]
        n_modes = int(np.count_nonzero(sigma))
    return PodBasis(PodSpectrum(sigma), x, n_modes)


def normalized_spectrum(s: PodSpectrum) -> np.ndarray:
    """Decay normalized to the leading value, ``sigma_i / sigma_1``."""
    return s.sigma / s.sigma[0]


def modes_for_energy(s: PodSpectrum, threshold: float) -> EnergyReport:
    """Minimal N with ``sum_{i<=N} sigma_i^2 / sum sigma_i^2 >= threshold``;
    sigma is first scaled by 2**-e, e the exponent of sigma_1 (Blue 1978):
    exact, and only squares below round-off of the total can underflow."""
    if not 0.0 < threshold <= 1.0:
        raise ArgumentError(f"threshold must be in (0, 1], got {threshold}")
    energy = np.cumsum(np.ldexp(s.sigma, -np.frexp(s.sigma[0])[1]) ** 2)
    cumulative = energy / energy[-1]
    modes_needed = int(np.searchsorted(cumulative, threshold, side="left")) + 1
    return EnergyReport(modes_needed, cumulative)


def truncate(b: PodBasis, r: int) -> PodBasis:
    """Keep the first r modes (the optimal rank-r approximation)."""
    if not 1 <= r <= b.n_modes:
        raise ArgumentError(f"rank {r} outside [1, {b.n_modes}]")
    return PodBasis(PodSpectrum(b.spectrum.sigma[:r]), b._data, r, source=b)


def component_split(m: SnapshotMatrix) -> dict[str, SnapshotMatrix]:
    """One single-segment snapshot matrix per layout segment.

    Row order and column labels are preserved; vertically stacking the
    results in layout order reproduces the input exactly.
    """
    out = {}
    for name, offset, count in m.layout.segments:
        sub = m.data[offset : offset + count, :]
        out[name] = SnapshotMatrix(sub, FieldLayout.single(name, count), m.column_labels)
    return out


def unit_energy_weighted(m: SnapshotMatrix) -> SnapshotMatrix:
    """Scale each field block to unit Frobenius norm, so fields in mixed
    units (velocity, pressure, temperature) weigh equally in the POD.

    Layout and column labels are kept. An all-zero block has no scale
    and raises :class:`DataError`. Norms sum snapshot by snapshot, each a
    contiguous column, scaled by 2**-e, e the exponent of the block's
    peak: no square overflows, and no block is copied whole.
    """
    norms = []
    for name, sub in component_split(m).items():
        e = np.frexp(max(sub.data.max(), -sub.data.min()))[1]
        columns = (np.ldexp(c, -e) for c in sub.data.T)
        norms.append(np.ldexp(np.sqrt(sum(np.dot(c, c) for c in columns)), e))
        if norms[-1] == 0.0:
            raise DataError(f"field {name!r} is all zero and cannot be scaled to unit energy")
    counts = [count for _, _, count in m.layout.segments]
    return SnapshotMatrix(m.data / np.repeat(norms, counts)[:, None], m.layout, m.column_labels)


def write_spectrum_csv(s: PodSpectrum, path) -> None:
    """Export ``index,sigma,sigma_norm,cumulative_energy`` rows.

    Indices start at 1; floats carry 17 significant digits so the file
    round-trips float64 exactly.
    """
    norm = normalized_spectrum(s)
    cumulative = modes_for_energy(s, 1.0).cumulative
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,sigma,sigma_norm,cumulative_energy\n")
        for i in range(len(s)):
            fh.write(
                f"{i + 1},{s.sigma[i]:.17g},{norm[i]:.17g},{cumulative[i]:.17g}\n"
            )


def read_spectrum_csv(path) -> PodSpectrum:
    """Parse a spectrum CSV written by :func:`write_spectrum_csv`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header, *rows = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: spectrum CSV is not UTF-8 text: {exc.reason}") from exc
    if header.strip() != "index,sigma,sigma_norm,cumulative_energy":
        raise FormatError(f"{path}: unexpected spectrum CSV header {header.strip()!r}")
    sigma = []
    for line_no, line in enumerate(rows, start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise FormatError(f"{path}:{line_no}: expected 4 fields, got {len(parts)}")
        try:
            sigma.append(float(parts[1]))
        except ValueError as exc:
            raise FormatError(f"{path}:{line_no}: sigma {parts[1]!r} is not a number") from exc
    try:
        return PodSpectrum(np.asarray(sigma))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
