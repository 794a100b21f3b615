"""Snapshot matrix assembly, layouts, and SNAP1 file round trips."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podsnap.errors import DataError, DimensionError, FormatError
from podsnap.snapshots import (
    FieldLayout,
    SnapshotMatrix,
    assemble,
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
        with pytest.raises(DimensionError):
            FieldLayout((("u", 0, 4), ("p", 5, 3)))

    def test_overlap_rejected(self):
        with pytest.raises(DimensionError):
            FieldLayout((("u", 0, 4), ("p", 3, 3)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(DimensionError):
            FieldLayout.from_sizes([("u", 4), ("u", 3)])

    def test_empty_segment_rejected(self):
        with pytest.raises(DimensionError):
            FieldLayout.from_sizes([("u", 4), ("p", 0)])

    def test_nonzero_start_rejected(self):
        with pytest.raises(DimensionError):
            FieldLayout((("u", 1, 4),))


class TestAssemble:
    def test_identity_assembly(self):
        cols = [np.arange(4.0), np.arange(4.0) + 10, np.arange(4.0) + 20]
        m = assemble(cols, FieldLayout.single("u", 4), [0.0, 1.0, 2.0])
        assert m.data.shape == (4, 3)
        assert np.array_equal(m.data[:, 1], cols[1])

    def test_length_mismatch_rejected(self):
        cols = [np.zeros(4), np.zeros(5)]
        with pytest.raises(DimensionError):
            assemble(cols, FieldLayout.single("u", 4), [0.0, 1.0])

    def test_paper_sized_heat_matrix(self):
        # 128 solutions on 256 nodes -> 256 x 128
        cols = [np.full(256, float(j)) for j in range(128)]
        m = assemble(cols, FieldLayout.single("u", 256), np.arange(128.0))
        assert m.data.shape == (256, 128)

    def test_non_increasing_labels_rejected(self):
        cols = [np.zeros(4), np.zeros(4)]
        with pytest.raises(DataError):
            assemble(cols, FieldLayout.single("u", 4), [1.0, 1.0])

    def test_non_finite_entry_rejected(self):
        with pytest.raises(DataError):
            assemble([np.array([1.0, np.nan])], FieldLayout.single("u", 2), [0.0])

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
        cols = [np.zeros(256) for _ in range(128)]
        m = assemble(cols, FieldLayout.single("u", 256), np.arange(128.0))
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
        m = matrix_from_array(np.ones((4, 3)))
        path = tmp_path / "m.snap"
        write_snap(m, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError) as err:
            read_snap(path)
        assert err.value.offset is not None

    def test_trailing_garbage_rejected(self, tmp_path):
        m = matrix_from_array(np.ones((2, 2)))
        path = tmp_path / "m.snap"
        write_snap(m, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
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
        rebuilt = assemble([m.data[:, j] for j in range(6)], layout, m.column_labels)
        assert rebuilt == m

    def test_field_views(self):
        layout = FieldLayout.from_sizes([("a", 2), ("b", 3)])
        data = np.arange(10.0).reshape(5, 2)
        m = SnapshotMatrix(data, layout, [0.0, 1.0])
        assert np.array_equal(m.field("b"), data[2:, :])
        with pytest.raises(KeyError):
            m.field("c")
