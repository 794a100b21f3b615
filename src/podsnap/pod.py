"""Proper orthogonal decomposition of snapshot matrices.

Computes the SVD ``X = U S V^T`` of a snapshot matrix either directly or
via the method of snapshots (eigendecomposition of the small Gram matrix
``X^T X``), and provides energy-capture accounting, optimal truncation,
and per-field splitting of multi-quantity matrices. Every reported
number comes from the singular values alone, so :func:`decompose`
computes the spectrum and leaves the modes until they are read.

"Energy" throughout is the cumulative sum of squared singular values
over their total; the spectrum normalization exposed to reports is
``sigma_i / sigma_1``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArgumentError,
    DataError,
    DegenerateSpectrumError,
    DimensionError,
    FormatError,
    NumericalError,
)
from .snapshots import FieldLayout, SnapshotMatrix

# Gram eigenvalues below RANK_CLAMP * lambda_max are round-off; clamp to
# zero before the square root so near-null directions never go negative.
RANK_CLAMP = 1e-14

ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class PodSpectrum:
    """Non-increasing singular values of one snapshot matrix."""

    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=np.float64)
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        if sigma.ndim != 1 or sigma.size < 1:
            raise DimensionError("spectrum needs at least one value")
        if not np.all(np.isfinite(sigma)):
            raise DataError("spectrum contains non-finite values")
        if np.any(sigma < 0):
            raise DataError("singular values must be non-negative")
        if np.any(np.diff(sigma) > 0):
            raise DataError("singular values must be non-increasing")

    def __len__(self) -> int:
        return self.sigma.size


@dataclass(frozen=True)
class EnergyReport:
    """Minimal mode count reaching an energy-capture threshold."""

    threshold: float
    modes_needed: int
    cumulative: np.ndarray = field(repr=False)


class PodBasis:
    """Spectrum, left singular vectors and scaled coefficients.

    ``spectrum``, ``n_modes``, ``n_dof`` and ``n_snaps`` are set when the
    basis is made. ``modes`` and ``coeffs`` come from ``factor()`` the
    first time either is read, and are then checked and made read-only.
    ``modes`` has orthonormal columns; ``coeffs`` holds the rows of
    ``S V^T``, so ``modes @ coeffs`` reconstructs the snapshot matrix.
    The spectrum may be longer than the mode count when trailing
    singular values were clamped to zero (method of snapshots).
    """

    def __init__(self, spectrum: PodSpectrum, n_dof: int, n_snaps: int, n_modes: int, factor):
        if n_modes > min(n_dof, n_snaps):
            raise DimensionError("more modes than min(n_dof, n_snaps)")
        if len(spectrum) < n_modes:
            raise DimensionError("spectrum shorter than mode count")
        self.spectrum = spectrum
        self.n_dof = n_dof
        self.n_snaps = n_snaps
        self.n_modes = n_modes
        self._factor = factor

    @functools.cached_property
    def _checked_factor(self) -> tuple[np.ndarray, np.ndarray]:
        try:
            modes, coeffs = self._factor()
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"mode computation did not converge: {exc}") from exc
        modes = np.asarray(modes, dtype=np.float64)
        coeffs = np.asarray(coeffs, dtype=np.float64)
        r = self.n_modes
        if modes.shape != (self.n_dof, r) or coeffs.shape != (r, self.n_snaps):
            raise DimensionError(
                f"factor shapes {modes.shape} and {coeffs.shape} do not match "
                f"{self.n_dof} dof, {r} modes and {self.n_snaps} snapshots"
            )
        gram_defect = modes.T @ modes - np.eye(r)
        defect = float(np.linalg.norm(gram_defect))
        if defect > ORTHO_TOL:
            raise NumericalError(
                f"mode columns are not orthonormal: ||U^T U - I||_F = {defect:.3e}"
            )
        modes.setflags(write=False)
        coeffs.setflags(write=False)
        self._factor = None
        return modes, coeffs

    @property
    def modes(self) -> np.ndarray:
        return self._checked_factor[0]

    @property
    def coeffs(self) -> np.ndarray:
        return self._checked_factor[1]

    def reconstruct(self) -> np.ndarray:
        return self.modes @ self.coeffs


def _fix_signs(modes: np.ndarray, coeffs: np.ndarray) -> None:
    """Make each mode's largest-magnitude entry positive (in place)."""
    for k in range(modes.shape[1]):
        pivot = np.argmax(np.abs(modes[:, k]))
        if modes[pivot, k] < 0:
            modes[:, k] *= -1.0
            coeffs[k, :] *= -1.0


def decompose(m: SnapshotMatrix, method: str = "auto") -> PodBasis:
    """POD of a snapshot matrix: the spectrum now, the modes on first read.

    Parameters
    ----------
    m : SnapshotMatrix
    method : {"auto", "direct", "method_of_snapshots"}
        ``direct`` takes the spectrum from a values-only dense SVD; its
        modes, on first read, come from a second, thin SVD with vectors.
        The two LAPACK calls agree to round-off. ``method_of_snapshots``
        solves the n_snaps x n_snaps Gram eigenproblem and, on first read,
        lifts the eigenvectors, which is much cheaper when n_dof >> n_snaps.
        ``auto`` picks the method of snapshots when n_dof > 4 * n_snaps.

    Both methods share a deterministic sign convention (largest-
    magnitude entry of each mode positive), so they agree mode by mode.
    """
    if method == "auto":
        method = "method_of_snapshots" if m.n_dof > 4 * m.n_snaps else "direct"
    if method not in ("direct", "method_of_snapshots"):
        raise ArgumentError(f"unknown method {method!r}")
    x = np.asarray(m.data)

    if method == "direct":
        try:
            sigma = np.linalg.svd(x, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD did not converge: {exc}") from exc

        def factor():
            modes, sigma_uv, vt = np.linalg.svd(x, full_matrices=False)
            coeffs = sigma_uv[:, None] * vt
            modes = np.ascontiguousarray(modes)
            _fix_signs(modes, coeffs)
            return modes, coeffs

        return PodBasis(PodSpectrum(sigma), m.n_dof, m.n_snaps, sigma.size, factor)

    try:
        lam, vecs = np.linalg.eigh(x.T @ x)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Gram eigenproblem did not converge: {exc}") from exc
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    vecs = vecs[:, order]
    lam[lam < RANK_CLAMP * max(lam[0], 0.0)] = 0.0
    sigma = np.sqrt(lam)[: min(m.n_dof, m.n_snaps)]
    positive = sigma > 0
    n_pos = int(np.count_nonzero(positive))
    if n_pos == 0:
        raise DegenerateSpectrumError("matrix is numerically zero")
    v_pos = vecs[:, :n_pos]

    def factor():
        lifted = (x @ v_pos) / sigma[:n_pos]
        # lifting loses orthogonality near the clamp level; a QR pass
        # restores it without rotating well-separated modes
        modes, r_factor = np.linalg.qr(lifted)
        flip = np.where(np.diag(r_factor) < 0, -1.0, 1.0)
        modes = modes * flip
        coeffs = sigma[:n_pos, None] * v_pos.T
        _fix_signs(modes, coeffs)
        return modes, coeffs

    return PodBasis(PodSpectrum(sigma), m.n_dof, m.n_snaps, n_pos, factor)


def normalized_spectrum(s: PodSpectrum) -> np.ndarray:
    """Decay normalized to the leading value, ``sigma_i / sigma_1``."""
    if s.sigma[0] <= 0.0:
        raise DegenerateSpectrumError("cannot normalize an all-zero spectrum")
    return s.sigma / s.sigma[0]


def modes_for_energy(s: PodSpectrum, threshold: float) -> EnergyReport:
    """Minimal N with ``sum_{i<=N} sigma_i^2 / sum sigma_i^2 >= threshold``."""
    if not 0.0 < threshold <= 1.0:
        raise ArgumentError(f"threshold must be in (0, 1], got {threshold}")
    energy = np.cumsum(s.sigma**2)
    total = energy[-1]
    if total <= 0.0:
        raise DegenerateSpectrumError("all-zero spectrum has no energy")
    cumulative = energy / total
    modes_needed = int(np.searchsorted(cumulative, threshold, side="left")) + 1
    modes_needed = min(modes_needed, len(s))
    return EnergyReport(threshold, modes_needed, cumulative)


def truncate(b: PodBasis, r: int) -> PodBasis:
    """Keep the first r modes (the optimal rank-r approximation)."""
    if not 1 <= r <= b.n_modes:
        raise ArgumentError(f"rank {r} outside [1, {b.n_modes}]")
    return PodBasis(
        PodSpectrum(b.spectrum.sigma[:r]), b.n_dof, b.n_snaps, r,
        lambda: (b.modes[:, :r], b.coeffs[:r, :]),
    )


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
    and raises :class:`DataError`.
    """
    blocks = []
    for name, sub in component_split(m).items():
        norm = np.linalg.norm(sub.data)
        if norm == 0.0:
            raise DataError(f"field {name!r} is all zero and cannot be scaled to unit energy")
        blocks.append(sub.data / norm)
    return SnapshotMatrix(np.vstack(blocks), m.layout, m.column_labels)


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
        raise DataError(f"{path}: unexpected spectrum CSV header {header.strip()!r}")
    sigma = []
    for line_no, line in enumerate(rows, start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise DataError(f"{path}:{line_no}: expected 4 fields, got {len(parts)}")
        try:
            sigma.append(float(parts[1]))
        except ValueError as exc:
            raise FormatError(f"{path}:{line_no}: sigma {parts[1]!r} is not a number") from exc
    try:
        return PodSpectrum(np.asarray(sigma))
    except (DataError, DimensionError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
