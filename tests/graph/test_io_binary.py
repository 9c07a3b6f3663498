"""Binary rctrace v2: zero-copy round trips and corruption handling.

The format's contract: a written file loads back bit-identical by
construction (the sections *are* the ColumnarLog arrays), loads are
mmap-backed and read-only, and every malformed input — bad magic,
version mismatch, truncated section, checksum failure — raises
:class:`TraceFormatError` naming the offending section, never a raw
``struct``/``IndexError``.
"""

import struct

import pytest

from repro.errors import TraceFormatError
from repro.graph.builder import Interaction
from repro.graph.columnar import ColumnarLog
from repro.graph.digraph import VertexKind
from repro.graph.io import (
    TRACE_MAGIC,
    convert_trace,
    load_columnar,
    load_trace_log,
    trace_format,
    write_columnar,
    write_trace,
)


def sample_log():
    return ColumnarLog([
        Interaction(0.0, 10, 20, tx_id=0),
        Interaction(1.0000001234567891, 20, 30,
                    VertexKind.ACCOUNT, VertexKind.CONTRACT, tx_id=1),
        Interaction(1.0000001234567891, 30, 10,
                    VertexKind.CONTRACT, VertexKind.ACCOUNT, tx_id=1),
        Interaction(5.5, 10, 10, tx_id=2),
        Interaction(9.25, 40, 20, tx_id=3),
    ])


@pytest.fixture()
def trace_path(tmp_path):
    path = tmp_path / "trace.rct"
    write_columnar(sample_log(), path)
    return path


class TestRoundTrip:
    def test_bit_identity(self, trace_path):
        back = load_columnar(trace_path)
        assert back.identical(sample_log())
        assert back.to_interactions() == sample_log().to_interactions()

    def test_vertex_table_and_windows(self, trace_path):
        back = load_columnar(trace_path)
        assert back.vertex_ids() == (10, 20, 30, 40)
        assert back.vertex_index(30) == 2           # lazy reverse index
        assert back.window_bounds(1.0, 6.0) == (1, 4)

    def test_loaded_log_is_read_only(self, trace_path):
        back = load_columnar(trace_path)
        assert not back.is_writable
        with pytest.raises(TypeError, match="read-only"):
            back.append(Interaction(99.0, 1, 2, tx_id=9))
        with pytest.raises(TypeError, match="read-only"):
            back.intern(12345)
        # re-boxing gives an appendable, equal copy
        copy = ColumnarLog(back)
        assert copy.is_writable and copy.identical(back)
        copy.append(Interaction(99.0, 1, 2, tx_id=9))
        assert len(copy) == len(back) + 1

    def test_interactions_iterable_round_trip(self, tmp_path):
        """write_columnar accepts a plain interaction iterable too."""
        path = tmp_path / "t.rct"
        n = write_columnar(sample_log().to_interactions(), path)
        assert n == 5
        assert load_columnar(path).identical(sample_log())

    def test_empty_log_round_trip(self, tmp_path):
        path = tmp_path / "empty.rct"
        assert write_columnar(ColumnarLog(), path) == 0
        back = load_columnar(path)
        assert len(back) == 0 and back.num_vertices == 0
        assert back.window(0.0, 100.0) == []

    def test_gzip_round_trip(self, tmp_path):
        path = tmp_path / "trace.rct.gz"
        write_columnar(sample_log(), path)
        with open(path, "rb") as f:
            assert f.read(2) == b"\x1f\x8b"
        assert load_columnar(path).identical(sample_log())

    def test_verify_false_skips_validation_not_data(self, trace_path):
        back = load_columnar(trace_path, verify=False)
        assert back.identical(sample_log())

    def test_workload_round_trip(self, tiny_workload, tmp_path):
        """The full synthetic history survives the binary format
        bit-identically (the acceptance contract of the data layer)."""
        log = tiny_workload.builder.log
        path = tmp_path / "full.rct"
        write_columnar(log, path)
        assert load_columnar(path).identical(log)


class TestCorruption:
    def _mutate(self, trace_path, tmp_path, mutator):
        data = bytearray(trace_path.read_bytes())
        mutator(data)
        bad = tmp_path / "bad.rct"
        bad.write_bytes(bytes(data))
        return bad

    def test_bad_magic(self, trace_path, tmp_path):
        bad = self._mutate(trace_path, tmp_path,
                           lambda d: d.__setitem__(slice(0, 8), b"NOTTRACE"))
        with pytest.raises(TraceFormatError, match="bad magic at offset 0"):
            load_columnar(bad)

    def test_version_mismatch(self, trace_path, tmp_path):
        bad = self._mutate(
            trace_path, tmp_path,
            lambda d: d.__setitem__(slice(8, 12), struct.pack("<I", 99)),
        )
        with pytest.raises(TraceFormatError, match="version 99"):
            load_columnar(bad)

    def test_truncated_column_section(self, trace_path, tmp_path):
        data = trace_path.read_bytes()
        bad = tmp_path / "bad.rct"
        bad.write_bytes(data[:-7])   # cut into the dst_kind section
        with pytest.raises(TraceFormatError, match="truncated payload"):
            load_columnar(bad)

    def test_header_only_file(self, tmp_path):
        bad = tmp_path / "bad.rct"
        bad.write_bytes(b"RC")
        with pytest.raises(TraceFormatError, match="shorter than the 64-byte header"):
            load_columnar(bad)

    def test_checksum_failure(self, trace_path, tmp_path):
        bad = self._mutate(trace_path, tmp_path,
                           lambda d: d.__setitem__(70, d[70] ^ 0xFF))
        with pytest.raises(TraceFormatError, match="checksum mismatch"):
            load_columnar(bad)

    def test_inconsistent_counts(self, trace_path, tmp_path):
        """A row count that disagrees with the file size is reported as
        a length mismatch, not an IndexError downstream."""
        bad = self._mutate(
            trace_path, tmp_path,
            lambda d: d.__setitem__(slice(16, 24), struct.pack("<Q", 1000)),
        )
        with pytest.raises(TraceFormatError, match="payload length"):
            load_columnar(bad)

    def test_out_of_order_rows_rejected_on_verify(self, tmp_path):
        """verify=True re-checks the builder's time-ordering invariant
        (a well-checksummed file can still be semantically wrong)."""
        log = sample_log()
        path = tmp_path / "t.rct"
        write_columnar(log, path)
        data = bytearray(path.read_bytes())
        # swap first and last timestamps (section starts after the
        # 64-byte header + 4 vertex ids * 8 bytes)
        ts0 = 64 + 4 * 8
        first, last = data[ts0:ts0 + 8], data[ts0 + 32:ts0 + 40]
        data[ts0:ts0 + 8], data[ts0 + 32:ts0 + 40] = last, first
        # refresh the checksum so only the ordering is wrong
        import zlib
        crc = zlib.crc32(bytes(data[64:]))
        data[40:44] = struct.pack("<I", crc)
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="out-of-order timestamp"):
            load_columnar(path)
        # ...and verify=False trusts the caller
        assert len(load_columnar(path, verify=False)) == 5

    def test_text_file_is_not_binary(self, tmp_path):
        path = tmp_path / "t.txt"
        write_trace(sample_log(), path)
        with pytest.raises(TraceFormatError, match="bad magic|shorter"):
            load_columnar(path)


class TestSniffAndConvert:
    def test_trace_format_sniffs_magic_not_extension(self, tmp_path):
        binary = tmp_path / "misnamed.txt"
        write_columnar(sample_log(), binary)
        text = tmp_path / "misnamed.rct"
        write_trace(sample_log(), text)
        assert trace_format(binary) == "binary"
        assert trace_format(text) == "text"
        assert binary.read_bytes()[:8] == TRACE_MAGIC

    def test_load_trace_log_handles_both(self, tmp_path):
        t, b = tmp_path / "a.txt", tmp_path / "a.rct"
        write_trace(sample_log(), t)
        write_columnar(sample_log(), b)
        assert load_trace_log(t).identical(sample_log())
        assert load_trace_log(b).identical(sample_log())

    def test_convert_text_to_binary_and_back(self, tmp_path):
        text = tmp_path / "a.txt"
        write_trace(sample_log(), text)
        binary = tmp_path / "a.rct"
        assert convert_trace(text, binary) == 5          # inferred: binary
        assert trace_format(binary) == "binary"
        text2 = tmp_path / "b.txt"
        assert convert_trace(binary, text2) == 5         # inferred: text
        assert load_trace_log(text2).identical(sample_log())

    def test_convert_explicit_format_overrides_extension(self, tmp_path):
        text = tmp_path / "a.txt"
        write_trace(sample_log(), text)
        out = tmp_path / "weird.dat"
        convert_trace(text, out, fmt="binary")
        assert trace_format(out) == "binary"

    def test_convert_rejects_unknown_format(self, tmp_path):
        text = tmp_path / "a.txt"
        write_trace(sample_log(), text)
        with pytest.raises(ValueError, match="unknown trace format"):
            convert_trace(text, tmp_path / "b", fmt="parquet")


class TestNonFiniteBinaryTimestamps:
    def _write_with_ts(self, tmp_path, values):
        """A 2-row trace with hand-patched timestamps + fresh crc."""
        import zlib

        log = ColumnarLog([
            Interaction(0.0, 1, 2, tx_id=0),
            Interaction(1.0, 2, 3, tx_id=1),
        ])
        path = tmp_path / "t.rct"
        write_columnar(log, path)
        data = bytearray(path.read_bytes())
        ts0 = 64 + 3 * 8   # header + 3-entry vertex table
        for i, v in enumerate(values):
            data[ts0 + 8 * i:ts0 + 8 * (i + 1)] = struct.pack("<d", v)
        data[40:44] = struct.pack("<I", zlib.crc32(bytes(data[64:])))
        path.write_bytes(bytes(data))
        return path

    def test_positive_inf_rejected(self, tmp_path):
        """+inf satisfies every ordering <=, so it needs its own guard
        (load_columnar promises finite timestamps under verify)."""
        path = self._write_with_ts(tmp_path, [0.0, float("inf")])
        with pytest.raises(TraceFormatError, match="non-finite timestamp"):
            load_columnar(path)

    def test_negative_inf_rejected(self, tmp_path):
        path = self._write_with_ts(tmp_path, [float("-inf"), 1.0])
        with pytest.raises(TraceFormatError, match="non-finite timestamp"):
            load_columnar(path)

    def test_nan_rejected(self, tmp_path):
        path = self._write_with_ts(tmp_path, [0.0, float("nan")])
        with pytest.raises(TraceFormatError, match="non-finite timestamp"):
            load_columnar(path)


class TestMisnamedCompression:
    def test_gzipped_binary_without_gz_suffix_loads(self, tmp_path):
        """load_columnar sniffs gzip by content, matching trace_format
        and the text reader — extensions never decide decompression."""
        import shutil

        proper = tmp_path / "t.rct.gz"
        write_columnar(sample_log(), proper)
        misnamed = tmp_path / "t.rct"
        shutil.copy(proper, misnamed)
        assert trace_format(misnamed) == "binary"
        assert load_columnar(misnamed).identical(sample_log())
        assert load_trace_log(misnamed).identical(sample_log())

    def test_uncompressed_binary_with_gz_suffix_loads(self, tmp_path):
        import shutil

        proper = tmp_path / "t.rct"
        write_columnar(sample_log(), proper)
        misnamed = tmp_path / "t2.rct.gz"
        shutil.copy(proper, misnamed)
        assert load_columnar(misnamed).identical(sample_log())

    def test_truncated_gzip_is_trace_format_error(self, tmp_path):
        path = tmp_path / "t.rct.gz"
        write_columnar(sample_log(), path)
        path.write_bytes(path.read_bytes()[:20])   # cut the gzip stream
        with pytest.raises(TraceFormatError, match="corrupt gzip|truncated"):
            load_columnar(path)


class TestLoadTraceLogErrors:
    def test_out_of_order_text_trace_is_trace_format_error(self, tmp_path):
        """ColumnarLog's ordering ValueError is translated into the
        trace-error vocabulary the CLIs catch."""
        path = tmp_path / "bad.txt"
        path.write_text("5.0 0 1 A 2 A\n1.0 1 2 A 3 A\n")
        with pytest.raises(TraceFormatError, match="out-of-order"):
            load_trace_log(path)


class TestV3Format:
    """rctrace v3: compressed columns behind the same header contract."""

    def test_round_trip_and_version_sniffing(self, tmp_path):
        from repro.graph.io import TRACE_MAGIC_V3, trace_version

        path = tmp_path / "t3.rct"
        assert write_columnar(sample_log(), path, version=3) == 5
        assert path.read_bytes()[:8] == TRACE_MAGIC_V3
        assert trace_format(path) == "binary"
        assert trace_version(path) == 3
        back = load_columnar(path)
        assert back.identical(sample_log())
        assert not back.is_writable
        assert back.vertex_index(30) == 2     # lazy reverse index

    def test_workload_round_trip_and_compression(self, tiny_workload, tmp_path):
        """The full synthetic history survives v3 bit-identically and
        compresses well below its v2 byte size."""
        log = tiny_workload.builder.log
        v2, v3 = tmp_path / "t2.rct", tmp_path / "t3.rct"
        write_columnar(log, v2, version=2)
        write_columnar(log, v3, version=3)
        assert load_columnar(v3).identical(log)
        ratio = v3.stat().st_size / v2.stat().st_size
        assert ratio <= 0.6, f"v3/v2 ratio {ratio:.3f} misses the 0.6 gate"

    def test_gzip_v3_round_trip(self, tmp_path):
        path = tmp_path / "t3.rct.gz"
        write_columnar(sample_log(), path, version=3)
        with open(path, "rb") as f:
            assert f.read(2) == b"\x1f\x8b"
        assert load_columnar(path).identical(sample_log())
        assert trace_format(path) == "binary"

    def test_convert_v2_to_v3_and_back(self, tmp_path):
        v2, v3, back = tmp_path / "a.rct", tmp_path / "b.rct", tmp_path / "c.rct"
        write_columnar(sample_log(), v2, version=2)
        assert convert_trace(v2, v3, fmt="v3") == 5
        assert convert_trace(v3, back, fmt="v2") == 5
        assert back.read_bytes() == v2.read_bytes()

    def test_out_of_order_v3_rejected_on_verify(self, tmp_path):
        """verify re-checks time ordering after decode, as for v2.
        (from_buffers skips the builder's incremental guard, so an
        unordered log can be written; the loader must still catch it.)"""
        log = sample_log()
        unordered = ColumnarLog.from_buffers(
            timestamps=[5.0, 1.0],
            src=[0, 1], dst=[1, 0], tx=[0, 1],
            src_kind=[0, 0], dst_kind=[0, 0],
            vertex_ids=[10, 20],
        )
        path = tmp_path / "t.rct"
        write_columnar(unordered, path, version=3)
        with pytest.raises(TraceFormatError, match="out-of-order timestamp"):
            load_columnar(path)
        assert len(load_columnar(path, verify=False)) == 2
        del log

    def test_write_rejects_unknown_version(self, tmp_path):
        with pytest.raises(ValueError, match="unsupported rctrace version"):
            write_columnar(sample_log(), tmp_path / "t.rct", version=7)

    def test_chunked_writer_rejects_gz_and_bad_chunk(self, tmp_path):
        from repro.graph.io import ChunkedTraceWriter

        with pytest.raises(ValueError, match="mappable"):
            ChunkedTraceWriter(tmp_path / "t.rct.gz")
        with pytest.raises(ValueError, match="chunk_rows"):
            ChunkedTraceWriter(tmp_path / "t.rct", chunk_rows=0)

    def test_chunked_writer_rejects_out_of_order(self, tmp_path):
        from repro.graph.io import ChunkedTraceWriter

        with ChunkedTraceWriter(tmp_path / "t.rct") as w:
            w.append(Interaction(5.0, 1, 2, tx_id=0))
            with pytest.raises(ValueError, match="out-of-order"):
                w.append(Interaction(1.0, 2, 3, tx_id=1))
            w.abort()

    def test_chunked_writer_abort_leaves_no_file(self, tmp_path):
        from repro.graph.io import ChunkedTraceWriter

        path = tmp_path / "t.rct"
        try:
            with ChunkedTraceWriter(path) as w:
                w.append(Interaction(0.0, 1, 2, tx_id=0))
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []   # spill dir cleaned up


class TestUnknownFormatSniffing:
    def test_unknown_rctrace_magic_is_named_in_the_error(self, tmp_path):
        """A future/bogus RCTRACE version must be rejected with the
        sniffed magic bytes, not a line-1 utf-8 parse failure."""
        path = tmp_path / "t.rct"
        path.write_bytes(b"RCTRACE9" + b"\x00" * 120)
        with pytest.raises(TraceFormatError, match=r"RCTRACE9"):
            load_trace_log(path)

    def test_binary_junk_reports_sniffed_magic(self, tmp_path):
        path = tmp_path / "junk.rct"
        path.write_bytes(b"\x00\x01\x02\x03PK\x05\x06" + b"\xff" * 64)
        with pytest.raises(TraceFormatError, match="sniffed magic bytes"):
            load_trace_log(path)

    def test_explicit_binary_fmt_still_names_bad_magic(self, tmp_path):
        path = tmp_path / "junk.rct"
        path.write_bytes(b"NOTTRACE" + b"\x00" * 120)
        with pytest.raises(TraceFormatError, match="bad magic"):
            load_trace_log(path, fmt="binary")

    def test_plain_text_still_parses_as_text(self, tmp_path):
        path = tmp_path / "t.dat"
        write_trace(sample_log(), path)
        assert load_trace_log(path).identical(sample_log())
