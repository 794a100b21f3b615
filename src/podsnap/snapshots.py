"""Snapshot matrices, row layouts, and the SNAP1 binary file format.

A snapshot matrix stores one discrete solution per column; rows are
degrees of freedom, grouped into named contiguous segments by a
:class:`FieldLayout` (e.g. ``u``/``v``/``p``/``T`` blocks of a coupled
solve). Matrices round-trip bit-exactly through :func:`write_snap` /
:func:`read_snap`.

Every matrix is stored snapshot-major (each snapshot contiguous), the
order of the SNAP1 payload: :func:`read_snap` fills one array straight
from the file, :func:`write_snap` writes each column without a copy, and
``pod`` hands LAPACK and BLAS the layout they take. Generated and read
matrices are built that way; any other input is copied once.

SNAP1 format, little-endian, no padding:

* bytes 0-7: magic ASCII ``PODSNAP1``
* u32 n_dof, u32 n_snaps, u32 n_segments
* per segment: u16 name length, UTF-8 name, u32 row_offset, u32 row_count
* n_snaps f64 column labels
* n_dof * n_snaps f64 values, column-major
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError

MAGIC = b"PODSNAP1"

# Rows per block of the snapshot-major copy: each block writes a 4 KB run
# of every snapshot. On a 16512 x 500 matrix, 2 cores, 512-row blocks
# took about 28 ms against 68 ms for one np.asfortranarray pass.
COPY_ROWS = 512


@dataclass(frozen=True)
class FieldLayout:
    """Ordered, contiguous partition of the row range into named segments."""

    segments: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        if not self.segments:
            raise DataError("layout needs at least one segment")
        names = [name for name, _, _ in self.segments]
        # a field name ends up in a file name and a CSV case name
        if len(set(names)) != len(names) or any(c in n for n in names for c in "/\0,\r\n"):
            raise DataError(f"field names must be distinct, without '/', ',', NUL "
                            f"or line breaks: {names}")
        expected = 0
        for name, offset, count in self.segments:
            if offset != expected:
                raise DataError(
                    f"segment {name!r} starts at row {offset}, expected {expected}"
                )
            if count < 1:
                raise DataError(f"segment {name!r} has row count {count}")
            expected = offset + count

    @classmethod
    def from_sizes(cls, sizes) -> "FieldLayout":
        """Build a layout from ``[(name, row_count), ...]`` pairs."""
        segments = []
        offset = 0
        for name, count in sizes:
            segments.append((str(name), offset, int(count)))
            offset += int(count)
        return cls(tuple(segments))

    @classmethod
    def single(cls, name: str, n_rows: int) -> "FieldLayout":
        return cls.from_sizes([(name, n_rows)])

    @property
    def n_rows(self) -> int:
        _, offset, count = self.segments[-1]
        return offset + count

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.segments)

    def rows(self, name: str) -> slice:
        """Row slice of the named segment."""
        for seg_name, offset, count in self.segments:
            if seg_name == name:
                return slice(offset, offset + count)
        raise KeyError(name)


class SnapshotMatrix:
    """Dense n_dof x n_snaps matrix of solution snapshots.

    Column j holds the snapshot at ``column_labels[j]`` (a time or
    parameter value). Data is float64, read-only after construction, and
    snapshot-major: ``data.strides[0] == data.itemsize``. Snapshot-major
    float64 input, such as a Fortran-ordered array or the row views of
    :meth:`field` and ``pod.component_split``, is kept without a copy
    and made read-only. Any other input (C-ordered, strided, or of
    another dtype) is copied once into a new Fortran-ordered array, and
    the caller's array is left as it was.
    """

    def __init__(self, data, layout: FieldLayout, column_labels):
        data = np.asarray(data)
        labels = np.ascontiguousarray(column_labels, dtype=np.float64)
        if data.ndim != 2:
            raise DataError(f"data must be 2D, got shape {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise DataError(f"empty snapshot matrix: shape {data.shape}")
        if data.shape[0] != layout.n_rows:
            raise DataError(
                f"layout covers {layout.n_rows} rows but data has {data.shape[0]}"
            )
        if labels.shape != (data.shape[1],):
            raise DataError(
                f"{data.shape[1]} columns need {data.shape[1]} labels, got {labels.shape}"
            )
        if data.dtype != np.float64 or data.strides[0] != data.itemsize:
            # one snapshot-major copy; dtype and layout convert in the same pass
            copy = np.empty(data.shape, dtype=np.float64, order="F")
            for start in range(0, data.shape[0], COPY_ROWS):
                copy[start : start + COPY_ROWS] = data[start : start + COPY_ROWS]
            data = copy
        # min and max propagate NaN and reach any infinity, and unlike
        # np.isfinite(data) allocate nothing the size of the matrix
        if not (np.isfinite(data.min()) and np.isfinite(data.max())):
            raise DataError("snapshot matrix contains non-finite entries")
        if not np.all(np.isfinite(labels)):
            raise DataError("column labels contain non-finite entries")
        data.setflags(write=False)
        labels.setflags(write=False)
        self.data = data
        self.layout = layout
        self.column_labels = labels

    @property
    def n_dof(self) -> int:
        return self.data.shape[0]

    @property
    def n_snaps(self) -> int:
        return self.data.shape[1]

    def field(self, name: str) -> np.ndarray:
        """Rows of the named layout segment (read-only view)."""
        return self.data[self.layout.rows(name), :]

    def __reduce__(self):
        # rebuild through the constructor, so the arrays come back read-only
        return (SnapshotMatrix, (self.data, self.layout, self.column_labels))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SnapshotMatrix):
            return NotImplemented
        return (
            self.layout == other.layout
            and np.array_equal(self.data, other.data)
            and np.array_equal(self.column_labels, other.column_labels)
        )


def matrix_from_array(data, name: str = "field", column_labels=None) -> SnapshotMatrix:
    """Wrap a plain 2D array as a single-segment snapshot matrix.

    Labels default to the column indices 0, 1, ....
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise DataError(f"data must be 2D, got shape {data.shape}")
    if column_labels is None:
        column_labels = np.arange(data.shape[1], dtype=np.float64)
    return SnapshotMatrix(data, FieldLayout.single(name, data.shape[0]), column_labels)


def write_snap(m: SnapshotMatrix, path) -> None:
    """Write a snapshot matrix in SNAP1 format, one payload column at a
    time; each column is a contiguous snapshot and is not copied."""
    parts = [MAGIC]
    parts.append(struct.pack("<III", m.n_dof, m.n_snaps, len(m.layout.segments)))
    for name, offset, count in m.layout.segments:
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise FormatError(f"field name too long to encode: {name!r}")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<II", offset, count))
    parts.append(np.asarray(m.column_labels, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))
        for column in m.data.T:
            fh.write(column.astype("<f8", copy=False))


def read_snap(path) -> SnapshotMatrix:
    """Read a SNAP1 file; inverse of :func:`write_snap`, bit-exact.

    The payload is read straight into one snapshot-major array, 8-byte
    aligned whatever the header length; no staging copy is made. Every
    format error names ``path`` and the byte offset where decoding failed.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(count, what, dtype=np.uint8):
            """The next ``count`` items as an array. Their extent is checked
            against the file size before the array is allocated."""
            offset = fh.tell()
            n = count * np.dtype(dtype).itemsize
            if offset + n > size or fh.readinto(out := np.empty(count, dtype)) != n:
                raise FormatError(f"{path}: truncated file while reading {what}", offset=offset)
            return out

        raw = take(8, "magic").tobytes()
        if raw != MAGIC:
            raise FormatError(f"{path}: bad magic {raw!r}, expected {MAGIC!r}", offset=0)
        n_dof, n_snaps, n_segments = struct.unpack("<III", take(12, "header"))
        segments = []
        for k in range(n_segments):
            (name_len,) = struct.unpack("<H", take(2, f"segment {k} name length"))
            raw = take(name_len, f"segment {k} name").tobytes()
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(
                    f"{path}: segment {k} name is not UTF-8", offset=fh.tell() - name_len
                ) from exc
            offset, count = struct.unpack("<II", take(8, f"segment {k} extent"))
            segments.append((name, offset, count))
        pos = fh.tell()
        try:
            layout = FieldLayout(tuple(segments))
        except DataError as exc:
            raise FormatError(f"{path}: invalid layout in file: {exc}", offset=pos) from exc
        if layout.n_rows != n_dof:
            raise FormatError(
                f"{path}: layout covers {layout.n_rows} rows but header declares {n_dof}",
                offset=pos,
            )
        labels = take(n_snaps, "column labels", "<f8")
        data = take(n_dof * n_snaps, "matrix payload", "<f8").reshape(n_snaps, n_dof).T
        pos = fh.tell()
    if pos != size:
        raise FormatError(f"{path}: {size - pos} trailing bytes after payload", offset=pos)
    try:
        return SnapshotMatrix(data, layout, labels)
    except DataError as exc:
        raise FormatError(f"{path}: invalid payload: {exc}", offset=pos) from exc
