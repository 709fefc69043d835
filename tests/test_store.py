import os
import random

import pytest
from helpers import open_fd_count

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
