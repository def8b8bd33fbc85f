"""Tests for the IDX (MNIST) file format reader/writer."""

import gzip
import struct

import numpy as np
import pytest

from repro.datasets.idx import read_idx, write_idx
from repro.errors import DatasetError


class TestRoundtrip:
    def test_uint8_3d(self, tmp_path):
        arr = np.random.default_rng(0).integers(0, 256, size=(5, 4, 3)).astype(np.uint8)
        path = tmp_path / "images-idx3-ubyte"
        write_idx(path, arr)
        np.testing.assert_array_equal(read_idx(path), arr)

    def test_uint8_1d_labels(self, tmp_path):
        arr = np.arange(10, dtype=np.uint8)
        path = tmp_path / "labels-idx1-ubyte"
        write_idx(path, arr)
        np.testing.assert_array_equal(read_idx(path), arr)

    def test_int32(self, tmp_path):
        arr = np.array([[1, -2], [3, 4]], dtype=np.int32)
        path = tmp_path / "data.idx"
        write_idx(path, arr)
        out = read_idx(path)
        np.testing.assert_array_equal(out, arr)

    def test_float32(self, tmp_path):
        arr = np.linspace(0, 1, 12, dtype=np.float32).reshape(3, 4)
        path = tmp_path / "f.idx"
        write_idx(path, arr)
        np.testing.assert_allclose(read_idx(path), arr)

    def test_float64(self, tmp_path):
        arr = np.random.default_rng(1).random((2, 2))
        path = tmp_path / "d.idx"
        write_idx(path, arr)
        np.testing.assert_allclose(read_idx(path), arr)

    def test_gzip_roundtrip(self, tmp_path):
        arr = np.random.default_rng(2).integers(0, 256, size=(3, 2, 2)).astype(np.uint8)
        path = tmp_path / "images-idx3-ubyte.gz"
        write_idx(path, arr)
        np.testing.assert_array_equal(read_idx(path), arr)

    def test_gzip_detected_by_magic_not_suffix(self, tmp_path):
        arr = np.arange(6, dtype=np.uint8)
        gz_path = tmp_path / "labels-idx1-ubyte.gz"
        write_idx(gz_path, arr)
        renamed = tmp_path / "labels-idx1-ubyte"
        renamed.write_bytes(gz_path.read_bytes())
        np.testing.assert_array_equal(read_idx(renamed), arr)

    def test_native_byte_order_output(self, tmp_path):
        arr = np.array([1, 2, 3], dtype=np.int32)
        path = tmp_path / "n.idx"
        write_idx(path, arr)
        assert read_idx(path).dtype.byteorder in ("=", "|", "<", ">")
        assert read_idx(path).dtype == np.dtype(np.int32).newbyteorder("=")


#: The IDX type byte for each numpy type (LeCun et al.'s format page).
SPEC_CODES = {
    "uint8": (0x08, np.uint8),
    "int8": (0x09, np.int8),
    "int16": (0x0B, np.int16),
    "int32": (0x0C, np.int32),
    "float32": (0x0D, np.float32),
    "float64": (0x0E, np.float64),
}


def _spec_bytes(code, arr):
    """An IDX file built by hand: magic, big-endian dims, big-endian data."""
    header = bytes([0, 0, code, arr.ndim]) + struct.pack(f">{arr.ndim}I", *arr.shape)
    return header + arr.astype(arr.dtype.newbyteorder(">")).tobytes()


class TestSpecConformance:
    """Reader and writer each against hand-built bytes, not each other.

    A round trip cannot see a wrong type byte or byte order that the
    reader and writer share; real MNIST files (type 0x08) and the
    files other tools write would then read wrong.
    """

    @pytest.mark.parametrize("kind", sorted(SPEC_CODES))
    def test_reads_hand_built_file(self, tmp_path, kind):
        code, dtype = SPEC_CODES[kind]
        # Negative values wrap to 244..255 for uint8; signed types keep them.
        arr = (np.arange(-12, 12) * 9).reshape(2, 3, 4).astype(dtype)
        path = tmp_path / "hand.idx"
        path.write_bytes(_spec_bytes(code, arr))
        out = read_idx(path)
        assert out.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(out, arr)

    @pytest.mark.parametrize("kind", sorted(SPEC_CODES))
    def test_writer_emits_spec_bytes(self, tmp_path, kind):
        code, dtype = SPEC_CODES[kind]
        arr = np.array([[1, 2, 3], [4, 5, 6]], dtype=dtype)
        path = tmp_path / "written.idx"
        write_idx(path, arr)
        assert path.read_bytes() == _spec_bytes(code, arr)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            read_idx(tmp_path / "nope.idx")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x12\x34\x08\x01" + struct.pack(">I", 1) + b"\x00")
        with pytest.raises(DatasetError, match="magic"):
            read_idx(path)

    def test_unsupported_dtype_code(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x00\x00\x77\x01" + struct.pack(">I", 1) + b"\x00")
        with pytest.raises(DatasetError, match="dtype"):
            read_idx(path)

    def test_truncated_dims(self, tmp_path):
        path = tmp_path / "t.idx"
        path.write_bytes(b"\x00\x00\x08\x02" + struct.pack(">I", 1))
        with pytest.raises(DatasetError, match="truncated"):
            read_idx(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.idx"
        path.write_bytes(b"\x00\x00\x08\x01" + struct.pack(">I", 10) + b"\x00\x01")
        with pytest.raises(DatasetError, match="payload"):
            read_idx(path)

    def test_unsupported_write_dtype(self, tmp_path):
        with pytest.raises(DatasetError, match="not representable"):
            write_idx(tmp_path / "c.idx", np.zeros(3, dtype=np.complex128))
