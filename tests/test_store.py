import os
import random
import tempfile
from pathlib import Path

import pytest
from helpers import open_fd_count, traced_peak
from hypothesis import given
from hypothesis import strategies as st

from raclib.serial_index import SerialIndexEntry
from raclib.store import RecordSetRef, RecordStore


def test_create_empty_store(tmp_path):
    store = RecordStore.create(tmp_path / "lib", record_size=1024)
    assert store.record_count == 0
    assert store.record_size == 1024
    assert (tmp_path / "lib").stat().st_size == 0


def test_create_rejects_zero_record_size(tmp_path):
    with pytest.raises(ValueError):
        RecordStore.create(tmp_path / "lib", record_size=0)


def test_create_rejects_existing_store(tmp_path):
    RecordStore.create(tmp_path / "lib")
    with pytest.raises(FileExistsError):
        RecordStore.create(tmp_path / "lib")


def test_create_64_byte_records(tmp_path):
    store = RecordStore.create(tmp_path / "lib", record_size=64)
    ref = store.append_payload(b"x" * 64 * 3)
    assert ref == RecordSetRef(start=0, count=3, byte_length=192)


def test_sidecar_format(tmp_path):
    store = RecordStore.create(tmp_path / "lib", record_size=512)
    store.append_payload(b"abc")
    meta = (tmp_path / "lib.meta").read_bytes()
    assert meta == b"record_size=512\nrecord_count=1\n"


def test_append_pads_to_record_boundary(tmp_path):
    store = RecordStore.create(tmp_path / "lib", record_size=1024)
    ref = store.append_payload(b"\x01" * 235_321)
    assert ref.count == 230  # ceil(235321 / 1024)
    assert store.record_count == 230
    raw = (tmp_path / "lib").read_bytes()
    assert len(raw) == 230 * 1024
    assert raw[235_321:] == b"\x00" * 199


def test_append_empty_payload(tmp_path):
    store = RecordStore.create(tmp_path / "lib")
    store.append_payload(b"a")
    ref = store.append_payload(b"")
    assert ref == RecordSetRef(start=1, count=0, byte_length=0)
    assert store.record_count == 1
    assert (tmp_path / "lib").stat().st_size == 1024


def test_append_exact_boundary(tmp_path):
    store = RecordStore.create(tmp_path / "lib", record_size=1024)
    ref = store.append_payload(b"b" * 1024)
    assert ref.count == 1
    assert (tmp_path / "lib").read_bytes() == b"b" * 1024  # zero pad bytes


def test_file_length_law_and_gapless_starts(tmp_path):
    store = RecordStore.create(tmp_path / "lib", record_size=128)
    rng = random.Random(2)
    expect_start = 0
    for _ in range(40):
        ref = store.append_payload(rng.randbytes(rng.randrange(0, 1000)))
        assert ref.start == expect_start
        expect_start += ref.count
        assert (tmp_path / "lib").stat().st_size == store.record_count * 128


def test_round_trip_random_payloads(tmp_path):
    store = RecordStore.create(tmp_path / "lib", record_size=1024)
    rng = random.Random(7)
    kept = []  # oracle copies held in memory
    for _ in range(60):
        payload = rng.randbytes(rng.randrange(0, 30_000))
        kept.append((store.append_payload(payload), payload))
    for ref, payload in kept:
        assert store.read_payload(ref) == payload


def test_read_records_at_offset(tmp_path):
    store = RecordStore.create(tmp_path / "lib", record_size=16)
    for i in range(10):
        store.append_payload(bytes([i]) * 16)
    assert store.read_records(3, 2) == b"\x03" * 16 + b"\x04" * 16


def test_read_zero_records(tmp_path):
    store = RecordStore.create(tmp_path / "lib")
    assert store.read_records(0, 0) == b""


def test_read_beyond_end_raises(tmp_path):
    store = RecordStore.create(tmp_path / "lib")
    store.append_payload(b"a" * 2048)
    with pytest.raises(IndexError):
        store.read_records(1, 2)
    with pytest.raises(IndexError):
        store.read_records(-1, 1)


def test_read_payload_inconsistent_ref(tmp_path):
    store = RecordStore.create(tmp_path / "lib", record_size=1024)
    store.append_payload(b"a" * 2000)
    with pytest.raises(ValueError):
        store.read_payload(RecordSetRef(start=0, count=2, byte_length=500))
    with pytest.raises(ValueError):
        store.read_payload(RecordSetRef(start=0, count=0, byte_length=5))


def test_read_payload_out_of_range_ref_reads_nothing(tmp_path):
    store = RecordStore.create(tmp_path / "lib", record_size=1024)
    store.append_payload(b"a" * 2000)
    store.counters.reset()
    with pytest.raises(IndexError):
        store.read_payload(RecordSetRef(start=1, count=2, byte_length=1500))
    with pytest.raises(IndexError):
        store.read_payload(RecordSetRef(start=-1, count=1, byte_length=1))
    assert store.counters.reads == store.counters.bytes_read == 0


@pytest.mark.parametrize(
    "payload_len, expected_records",
    [(1, 1), (1024, 1), (3 * 1024, 3), (2049, 3), (0, 0)],
    ids=["1-byte", "one-full-record", "three-full-records", "one-byte-into-third", "empty"],
)
def test_read_payload_reads_exactly_byte_length(tmp_path, payload_len, expected_records):
    store = RecordStore.create(tmp_path / "lib", record_size=1024)
    store.append_payload(b"\x01" * 5000)  # neighbours on both sides
    payload = bytes(range(256)) * (payload_len // 256) + bytes(range(payload_len % 256))
    ref = store.append_payload(payload)
    store.append_payload(b"\x02" * 700)
    assert ref.count == expected_records
    store.counters.reset()
    assert store.read_payload(ref) == payload
    assert store.counters.reads == 1
    assert store.counters.bytes_read == ref.byte_length == payload_len


def test_read_payload_legacy_ref_reads_whole_records(tmp_path):
    store = RecordStore.create(tmp_path / "lib", record_size=1024)
    store.append_payload(b"\x01" * 10)
    ref = store.append_payload(b"\x03" * 1500)
    legacy = SerialIndexEntry.parse(f"Book 0002 {ref.start} {ref.count}\n").to_ref(1024)
    store.counters.reset()
    assert store.read_payload(legacy) == b"\x03" * 1500 + b"\x00" * 548
    assert store.counters.reads == 1
    assert store.counters.bytes_read == legacy.byte_length == 2 * 1024


def test_read_records_byte_cap(tmp_path):
    store = RecordStore.create(tmp_path / "lib", record_size=64)
    store.append_payload(bytes(range(192)))
    assert store.read_records(1, 2, 5) == bytes(range(64, 69))
    assert store.read_records(1, 2, 128) == bytes(range(64, 192))
    assert store.read_records(1, 0, 0) == b""
    for nbytes in (-1, 129):
        with pytest.raises(ValueError):
            store.read_records(1, 2, nbytes)
    with pytest.raises(IndexError):
        store.read_records(2, 2, 5)


def test_io_locality_bytes_read_independent_of_offset(tmp_path):
    store = RecordStore.create(tmp_path / "lib", record_size=64)
    store.append_payload(b"z" * 64 * 1000)
    for start in (0, 417, 995):
        store.counters.reset()
        store.read_records(start, 5)
        assert store.counters.reads == 1
        assert store.counters.bytes_read == 5 * 64


def test_reopen_persists_state(tmp_path):
    store = RecordStore.create(tmp_path / "lib", record_size=256)
    ref = store.append_payload(b"hello world")
    store.close()
    again = RecordStore.open(tmp_path / "lib")
    assert again.record_size == 256
    assert again.record_count == 1
    assert again.read_payload(ref) == b"hello world"


def test_read_only_handle_rejects_append(tmp_path):
    RecordStore.create(tmp_path / "lib").append_payload(b"x")
    store = RecordStore.open(tmp_path / "lib", mode="r")
    with pytest.raises(PermissionError):
        store.append_payload(b"y")
    assert (tmp_path / "lib").stat().st_size == 1024  # nothing written


def test_open_for_append_truncates_orphan_tail(tmp_path):
    store = RecordStore.create(tmp_path / "lib", record_size=32)
    store.append_payload(b"a" * 32)
    store.close()
    # Simulate a crash between data write and metadata update.
    with open(tmp_path / "lib", "ab") as f:
        f.write(b"junk")
    again = RecordStore.open(tmp_path / "lib", mode="a")
    assert (tmp_path / "lib").stat().st_size == 32
    ref = again.append_payload(b"b" * 10)
    assert ref.start == 1
    assert again.read_payload(ref) == b"b" * 10


def test_open_shorter_than_metadata_is_error(tmp_path):
    store = RecordStore.create(tmp_path / "lib")
    store.append_payload(b"x" * 3000)
    store.close()
    os.truncate(tmp_path / "lib", 1024)
    with pytest.raises(ValueError):
        RecordStore.open(tmp_path / "lib")


def test_fixed_store_round_trip_without_sidecar(tmp_path):
    with RecordStore.create_fixed(tmp_path / "fixed", 4, b"aaaabbbbcccc") as store:
        assert store.record_count == 3
        store.write_records(1, b"BBBB")
        store.sync()
    assert not (tmp_path / "fixed.meta").exists()
    with RecordStore.open_fixed(tmp_path / "fixed", 4, 3) as store:
        assert store.read_records(0, 3) == b"aaaaBBBBcccc"


def test_fixed_store_is_read_only_unless_asked(tmp_path):
    RecordStore.create_fixed(tmp_path / "fixed", 4, b"aaaa").close()
    with RecordStore.open_fixed(tmp_path / "fixed", 4, 1) as store:
        with pytest.raises(PermissionError):
            store.write_records(0, b"bbbb")
    with RecordStore.open_fixed(tmp_path / "fixed", 4, 1, writable=True) as store:
        store.write_records(0, b"bbbb")
    assert (tmp_path / "fixed").read_bytes() == b"bbbb"


def test_fixed_store_write_bounds(tmp_path):
    with RecordStore.create_fixed(tmp_path / "fixed", 4, b"a" * 8) as store:
        with pytest.raises(ValueError):
            store.write_records(0, b"abc")  # not a whole record
        with pytest.raises(IndexError):
            store.write_records(1, b"b" * 8)  # runs past the last record
        with pytest.raises(IndexError):
            store.write_records(-1, b"bbbb")
    assert (tmp_path / "fixed").read_bytes() == b"a" * 8


def test_open_fixed_checks_exact_size_and_closes_on_mismatch(tmp_path):
    (tmp_path / "fixed").write_bytes(b"a" * 12)
    before = open_fd_count()
    for record_count in (2, 4):
        with pytest.raises(ValueError):
            RecordStore.open_fixed(tmp_path / "fixed", 4, record_count)
    assert open_fd_count() == before


def test_append_payload_takes_any_buffer_and_copies_nothing(tmp_path):
    store = RecordStore.create(tmp_path / "lib", record_size=1024)
    payload = bytes(range(256)) * (1 << 14) + b"tail"  # 4 MiB and 4 B: the last record is padded
    assert traced_peak(lambda: store.append_payload(payload)) < 64 * 1024
    refs = [store.append_payload(kind(b"abc")) for kind in (bytearray, memoryview)]
    assert store.read_payload(RecordSetRef(0, 4097, len(payload))) == payload
    assert [store.read_payload(ref) for ref in refs] == [b"abc", b"abc"]
    assert (tmp_path / "lib").stat().st_size == 4099 * 1024


def count_fsyncs(monkeypatch) -> list:
    calls = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or real_fsync(fd))
    return calls


def test_append_payloads_streams_buffers_under_one_fsync(tmp_path, monkeypatch):
    store = RecordStore.create(tmp_path / "lib", record_size=16)
    store.append_payload(b"head")
    fsyncs = count_fsyncs(monkeypatch)
    chunks = [b"a" * 32, bytearray(b"b" * 16), b"", memoryview(b"c" * 48)]
    refs = [RecordSetRef(1, 2, 32), RecordSetRef(3, 1, 16), RecordSetRef(4, 0, 0), RecordSetRef(4, 3, 48)]
    assert store.append_payloads(iter(chunks)) == refs
    assert len(fsyncs) == 1
    assert (tmp_path / "lib.meta").read_text() == "record_size=16\nrecord_count=7\n"
    assert store.read_records(1, 6) == b"a" * 32 + b"b" * 16 + b"c" * 48
    assert store.append_payloads([]) == []
    assert store.append_payloads([b"", bytearray()]) == [RecordSetRef(7, 0, 0)] * 2
    assert len(fsyncs) == 1  # nothing appended, nothing synced


def record_size_and_payloads(record_size):
    """Payloads of any length, empty ones and exact record multiples among them."""
    exact = st.integers(0, 3).map(lambda n: b"r" * (n * record_size))
    return st.tuples(st.just(record_size), st.lists(st.binary(max_size=3 * record_size) | exact, max_size=8))


@given(st.integers(1, 16).flatmap(record_size_and_payloads))
def test_append_payloads_equals_one_append_payload_each(case):
    record_size, payloads = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with RecordStore.create(tmp / "one", record_size) as one, RecordStore.create(tmp / "all", record_size) as all_:
            one.append_payload(b"head")
            all_.append_payload(b"head")
            refs = [one.append_payload(payload) for payload in payloads]
            assert all_.append_payloads(iter(payloads)) == refs
            assert [all_.read_payload(ref) for ref in refs] == payloads
        padded = b"".join(p + bytes(-len(p) % record_size) for p in [b"head", *payloads])
        assert (tmp / "one").read_bytes() == (tmp / "all").read_bytes() == padded
        assert (tmp / "one.meta").read_text() == (tmp / "all.meta").read_text()


def test_append_payloads_that_fail_partway_keep_the_count(tmp_path, monkeypatch):
    store = RecordStore.create(tmp_path / "lib", record_size=16)
    store.append_payload(b"x" * 16)
    fsyncs = count_fsyncs(monkeypatch)

    def payloads():
        yield b"a" * 20
        yield b"b" * 5
        raise OSError("member unreadable")

    with pytest.raises(OSError, match="member unreadable"):
        store.append_payloads(payloads())
    assert fsyncs == []
    assert store.record_count == 1
    assert (tmp_path / "lib.meta").read_text() == "record_size=16\nrecord_count=1\n"
    assert (tmp_path / "lib").stat().st_size == 64  # the two payloads before it, written, not counted
    store.close()
    again = RecordStore.open(tmp_path / "lib", mode="a")
    assert (tmp_path / "lib").stat().st_size == 16
    assert again.append_payloads([b"d"]) == [RecordSetRef(start=1, count=1, byte_length=1)]
    assert again.read_records(0, 2) == b"x" * 16 + b"d" + bytes(15)
