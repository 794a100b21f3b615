"""Snapshot matrices, layouts, and SNAP1 file round trips."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_segment_snap1, traced_peak
from podsnap import pod
from podsnap.cases1d import Heat1DConfig, gen_advected_jump, gen_sigmoid, solve_heat1d
from podsnap.errors import DataError, FormatError
from podsnap.grids import Grid1D
from podsnap.snapshots import (
    FieldLayout,
    SnapshotMatrix,
    matrix_from_array,
    read_snap,
    write_snap,
)


class TestFieldLayout:
    def test_from_sizes_partitions_rows(self):
        layout = FieldLayout.from_sizes([("u", 4), ("p", 3)])
        assert layout.n_rows == 7
        assert layout.names == ("u", "p")
        assert layout.rows("u") == slice(0, 4)
        assert layout.rows("p") == slice(4, 7)

    def test_gap_rejected(self):
        with pytest.raises(DataError):
            FieldLayout((("u", 0, 4), ("p", 5, 3)))

    def test_overlap_rejected(self):
        with pytest.raises(DataError):
            FieldLayout((("u", 0, 4), ("p", 3, 3)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            FieldLayout.from_sizes([("u", 4), ("u", 3)])

    def test_empty_segment_rejected(self):
        with pytest.raises(DataError):
            FieldLayout.from_sizes([("u", 4), ("p", 0)])

    def test_nonzero_start_rejected(self):
        with pytest.raises(DataError):
            FieldLayout((("u", 1, 4),))

    @pytest.mark.parametrize("name", ["a/b", "a\0b", "x,y", "u\n", "u\r"])
    def test_name_unfit_for_a_file_or_csv_rejected(self, name):
        # a field name becomes part of a sibling file name and a CSV case name
        with pytest.raises(DataError):
            FieldLayout.from_sizes([("u", 4), (name, 3)])


class TestSnapshotMatrix:
    def test_column_is_one_snapshot(self):
        cols = [np.arange(4.0), np.arange(4.0) + 10, np.arange(4.0) + 20]
        m = SnapshotMatrix(np.array(cols).T, FieldLayout.single("u", 4), [0.0, 1.0, 2.0])
        assert m.data.shape == (4, 3)
        assert np.array_equal(m.data[:, 1], cols[1])

    def test_paper_sized_heat_matrix(self):
        # 128 solutions on 256 nodes -> 256 x 128
        m = SnapshotMatrix(np.zeros((256, 128)), FieldLayout.single("u", 256), np.arange(128.0))
        assert m.data.shape == (256, 128)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("rows", [slice(None), slice(2, 4)], ids=["matrix", "row-view"])
    def test_non_finite_entry_rejected(self, bad, rows):
        # the row view is a field of a matrix whose other fields are finite
        data = np.ones((6, 3), order="F")
        data[3, 1] = bad
        view = data[rows]
        with pytest.raises(DataError):
            SnapshotMatrix(view, FieldLayout.single("u", view.shape[0]), [0.0, 1.0, 2.0])

    def test_data_is_read_only(self):
        m = matrix_from_array(np.ones((3, 2)))
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0


class TestSnapFile:
    def test_round_trip_small(self, tmp_path):
        m = matrix_from_array(np.array([[1.0, 2.0], [3.0, 4.0]]))
        path = tmp_path / "m.snap"
        write_snap(m, path)
        assert read_snap(path) == m

    def test_round_trip_multifield(self, tmp_path):
        layout = FieldLayout.from_sizes([("u", 3), ("v", 2), ("p", 4)])
        rng = np.random.default_rng(7)
        m = SnapshotMatrix(rng.normal(size=(9, 5)), layout, np.linspace(0, 1, 5))
        path = tmp_path / "m.snap"
        write_snap(m, path)
        back = read_snap(path)
        assert back == m
        assert back.layout.names == ("u", "v", "p")

    def test_pickle_round_trip_stays_read_only(self):
        layout = FieldLayout.from_sizes([("u", 3), ("p", 2)])
        m = SnapshotMatrix(np.arange(10.0).reshape(5, 2), layout, [0.5, 1.0])
        back = pickle.loads(pickle.dumps(m))
        assert back == m
        assert not back.data.flags.writeable
        assert not back.column_labels.flags.writeable

    def test_file_size_matches_format(self, tmp_path):
        # header: 8 magic + 12 counts + (2 + len("u") + 8) per segment,
        # then 128 labels and 256*128 values at 8 bytes each
        m = SnapshotMatrix(np.zeros((256, 128)), FieldLayout.single("u", 256), np.arange(128.0))
        path = tmp_path / "heat.snap"
        write_snap(m, path)
        expected = 8 + 12 + (2 + 1 + 8) + 128 * 8 + 256 * 128 * 8
        assert path.stat().st_size == expected

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
        with pytest.raises(FormatError) as err:
            read_snap(path)
        assert err.value.offset == 0

    def test_truncated_payload_rejected(self, tmp_path):
        # payload of a 4 x 3 "field" matrix starts at 8 + 12 + (2 + 5 + 8) + 3 * 8
        m = matrix_from_array(np.ones((4, 3)))
        path = tmp_path / "m.snap"
        write_snap(m, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError, match="truncated file while reading matrix payload") as err:
            read_snap(path)
        assert err.value.offset == 59

    def test_trailing_garbage_rejected(self, tmp_path):
        m = matrix_from_array(np.ones((2, 2)))
        path = tmp_path / "m.snap"
        write_snap(m, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="2 trailing bytes after payload") as err:
            read_snap(path)
        assert err.value.offset == path.stat().st_size - 2

    @pytest.mark.parametrize("field, what, offset", [
        ("n_snaps", "column labels", 31),
        ("n_dof", "matrix payload", 31 + 3 * 8),
    ])
    def test_header_claiming_a_huge_extent_allocates_nothing(self, tmp_path, field, what, offset):
        # 2**31 rows or snapshots claim gigabytes; the check against the
        # file size must come before any buffer is allocated
        m = matrix_from_array(np.ones((4, 3)), name="f")
        path = tmp_path / "m.snap"
        write_snap(m, path)
        blob = bytearray(path.read_bytes())
        huge = (2**31).to_bytes(4, "little")
        if field == "n_snaps":
            blob[12:16] = huge
        else:
            blob[8:12] = blob[27:31] = huge  # header n_dof and the segment's row count
        path.write_bytes(bytes(blob))

        def attempt():
            with pytest.raises(FormatError, match=f"truncated file while reading {what}") as err:
                read_snap(path)
            return err.value

        error, peak = traced_peak(attempt)
        assert error.offset == offset
        assert peak < 1e6

    @pytest.mark.parametrize("name", [b"a/b", b"a\0b", b"x,y"])
    def test_name_unfit_for_a_file_is_a_format_error(self, tmp_path, name):
        path = tmp_path / "m.snap"
        path.write_bytes(one_segment_snap1(name))
        with pytest.raises(FormatError, match="invalid layout in file"):
            read_snap(path)

    def test_layout_header_mismatch_rejected(self, tmp_path):
        m = matrix_from_array(np.ones((4, 2)))
        path = tmp_path / "m.snap"
        write_snap(m, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (5).to_bytes(4, "little")  # n_dof header lies about layout
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_snap(path)

    @settings(max_examples=25, deadline=None)
    @given(
        n_dof=st.integers(1, 12),
        n_snaps=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_bit_exact_property(self, tmp_path_factory, n_dof, n_snaps, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(scale=10.0 ** rng.integers(-300, 300), size=(n_dof, n_snaps))
        m = SnapshotMatrix(data, FieldLayout.single("f", n_dof), rng.normal(size=n_snaps))
        path = tmp_path_factory.mktemp("snap") / "m.snap"
        write_snap(m, path)
        back = read_snap(path)
        assert np.array_equal(back.data, m.data)
        assert np.array_equal(back.column_labels, m.column_labels)


class TestColumnExtraction:
    def test_columns_reassemble_exactly(self):
        rng = np.random.default_rng(3)
        layout = FieldLayout.from_sizes([("a", 5), ("b", 2)])
        m = SnapshotMatrix(rng.normal(size=(7, 6)), layout, np.arange(6.0))
        rebuilt = SnapshotMatrix(np.array([m.data[:, j] for j in range(6)]).T, layout,
                                 m.column_labels)
        assert rebuilt == m

    def test_field_views(self):
        layout = FieldLayout.from_sizes([("a", 2), ("b", 3)])
        data = np.arange(10.0).reshape(5, 2)
        m = SnapshotMatrix(data, layout, [0.0, 1.0])
        assert np.array_equal(m.field("b"), data[2:, :])
        with pytest.raises(KeyError):
            m.field("c")


class TestStorageOrder:
    """Matrices are stored snapshot-major whatever storage they are given;
    SNAP1 bytes, round trips and spectra do not depend on it."""

    LAYOUT = FieldLayout.from_sizes([("u", 7), ("p", 5)])

    def stored(self, order):
        data = np.random.default_rng(5).normal(size=(12, 9))
        return SnapshotMatrix(np.array(data, order=order), self.LAYOUT, np.linspace(0, 1, 9))

    @pytest.mark.parametrize("generate", [
        lambda: solve_heat1d(Heat1DConfig(n_snaps=4)),
        lambda: gen_advected_jump(Grid1D(12), 4),
        lambda: gen_sigmoid(Grid1D(12), 4),
    ], ids=["heat", "jump", "sigmoid"])
    def test_generators_build_snapshot_major_matrices(self, generate):
        # the stored array is a view of the generator's own rows, not a
        # copy the constructor made
        data = generate().data
        assert data.flags.f_contiguous and not data.flags.owndata

    def test_snapshot_major_input_is_shared(self):
        data = np.asfortranarray(np.random.default_rng(4).normal(size=(12, 9)))
        m = SnapshotMatrix(data, self.LAYOUT, np.arange(9.0))
        assert m.data is data and not data.flags.writeable
        for rows in (m.field("p"), pod.component_split(m)["p"].data):
            assert np.shares_memory(rows, m.data)

    @pytest.mark.parametrize("make", [
        lambda d: np.ascontiguousarray(d),
        lambda d: np.asfortranarray(d)[::2],
        lambda d: np.asfortranarray(d, dtype=np.float32),
        lambda d: np.ascontiguousarray(np.round(d * 100), dtype=np.int64),
        lambda d: np.asfortranarray(d, dtype=">f8"),
    ], ids=["C", "strided", "float32", "int64", "big-endian"])
    def test_other_input_is_copied_once_snapshot_major(self, make):
        given = make(np.random.default_rng(4).normal(size=(2200, 9)))
        m = SnapshotMatrix(given, FieldLayout.single("u", given.shape[0]), np.arange(9.0))
        assert m.data.flags.f_contiguous and m.data.dtype == np.dtype(np.float64)
        assert not np.shares_memory(m.data, given)
        assert np.array_equal(m.data, given.astype(np.float64))
        assert given.flags.writeable and not m.data.flags.writeable

    def test_bytes_and_round_trip_do_not_depend_on_storage(self, tmp_path):
        whole = {order: self.stored(order) for order in "CF"}
        split = {order: pod.component_split(m)["p"] for order, m in whole.items()}
        labels = whole["C"].column_labels
        split["copy"] = matrix_from_array(np.array(whole["C"].field("p")), "p", labels)
        for family in (whole, split):
            blobs = set()
            for label, m in family.items():
                path = tmp_path / f"{label}.snap"
                write_snap(m, path)
                blobs.add(path.read_bytes())
                back = read_snap(path)
                assert back == m
                assert back.data.flags.f_contiguous
            assert len(blobs) == 1

    @pytest.mark.parametrize("name", ["u", "uv", "field"])
    def test_read_back_arrays_are_aligned(self, tmp_path, name):
        # the payload starts at 31 + 8 n_snaps for a 1-character name,
        # which is not a multiple of 8
        path = tmp_path / "m.snap"
        write_snap(matrix_from_array(np.ones((5, 3)), name), path)
        back = read_snap(path)
        assert back.data.flags.aligned and back.column_labels.flags.aligned

    @pytest.mark.parametrize("method", ["direct", "method_of_snapshots"])
    def test_spectrum_does_not_depend_on_storage(self, method):
        data = np.random.default_rng(9).normal(size=(300, 40)) * 0.8 ** np.arange(40)
        layout = FieldLayout.from_sizes([("u", 180), ("T", 120)])
        c, f = (SnapshotMatrix(np.array(data, order=o), layout, np.arange(40.0)) for o in "CF")
        split = (pod.component_split(c).values(), pod.component_split(f).values())
        for a, b in [(c, f), *zip(*split)]:
            assert np.array_equal(pod.decompose(a, method).spectrum.sigma,
                                  pod.decompose(b, method).spectrum.sigma)


class TestSnapMemory:
    """tracemalloc peaks of SNAP1 I/O on a 14.4 MB file (4800 x 375)."""

    @staticmethod
    def matrix(order):
        data = np.random.default_rng(2).normal(size=(4800, 375))
        layout = FieldLayout.from_sizes([("u", 1800), ("v", 1800), ("p", 1200)])
        return SnapshotMatrix(np.array(data, order=order), layout, np.arange(375.0))

    def test_read_holds_one_copy_of_the_payload(self, tmp_path):
        path = tmp_path / "m.snap"
        write_snap(self.matrix("F"), path)
        _, peak = traced_peak(lambda: read_snap(path))
        # the finiteness check allocates nothing the size of the payload
        assert peak <= 1.05 * path.stat().st_size

    @pytest.mark.parametrize("order", "CF")
    def test_write_stages_no_column(self, tmp_path, order):
        # against a one-row matrix with the same labels, which costs the
        # same header, labels and file buffer: a staged column is 38.4 kB
        m = self.matrix(order)
        assert m.data.nbytes >= 10e6
        one_row = SnapshotMatrix(np.ones((1, m.n_snaps)), FieldLayout.single("u", 1),
                                 m.column_labels)
        _, floor = traced_peak(lambda: write_snap(one_row, tmp_path / "one_row.snap"))
        _, peak = traced_peak(lambda: write_snap(m, tmp_path / "m.snap"))
        assert peak - floor < m.n_dof * 8 / 4
