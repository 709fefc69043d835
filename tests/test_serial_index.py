import os
import random
import sys
import threading

import pytest

from raclib import serial_index
from raclib.errors import DuplicateKeyError, NotFoundError
from raclib.serial_index import SerialIndex, SerialIndexEntry


@pytest.fixture
def index(tmp_path):
    with SerialIndex.create(tmp_path / "pages.index") as index:
        yield index


def test_line_format_matches_legacy_layout(index):
    index.append(SerialIndexEntry("TallyHo1965", "0404", 4050730, 348))
    assert index.path.read_text() == "TallyHo1965 0404 4050730 348\n"


def test_minimal_entry(index):
    index.append(SerialIndexEntry("T", "0", 0, 0))
    assert index.path.read_text() == "T 0 0 0\n"


def test_extended_entry_carries_byte_length(index):
    index.append(SerialIndexEntry("TallyHo1965", "0404", 4050730, 348, byte_length=355_321))
    entry = index.lookup("TallyHo1965", "0404")
    assert entry.byte_length == 355_321
    assert entry.to_ref(1024).byte_length == 355_321


def test_whitespace_in_token_rejected():
    with pytest.raises(ValueError):
        SerialIndexEntry("A B", "1", 0, 1)
    with pytest.raises(ValueError):
        SerialIndexEntry("A", "1\n", 0, 1)
    with pytest.raises(ValueError):
        SerialIndexEntry("", "1", 0, 1)


def test_duplicate_name_key_rejected(index):
    index.append(SerialIndexEntry("T", "1", 0, 1))
    with pytest.raises(DuplicateKeyError):
        index.append(SerialIndexEntry("T", "1", 5, 2))


def test_lookup_finds_entry(index):
    index.append(SerialIndexEntry("Other", "0404", 1, 2))
    index.append(SerialIndexEntry("TallyHo1965", "0404", 4050730, 348))
    entry = index.lookup("TallyHo1965", "0404")
    assert (entry.start, entry.count) == (4050730, 348)


def test_lookup_whole_token_not_substring(index):
    index.append(SerialIndexEntry("TallyHo1965", "0404", 4050730, 348))
    with pytest.raises(NotFoundError):
        index.lookup("TallyHo1965", "040")
    with pytest.raises(NotFoundError):
        index.lookup("TallyHo", "0404")


def test_lookup_missing_entry(index):
    with pytest.raises(NotFoundError):
        index.lookup("NoSuchTitle", "0001")


def test_legacy_four_field_line_resolves_to_whole_records(tmp_path):
    path = tmp_path / "old.index"
    path.write_text("TallyHo1965 0404 4050730 348\n")
    entry = SerialIndex(path).lookup("TallyHo1965", "0404")
    assert entry.byte_length is None
    ref = entry.to_ref(1024)
    assert ref.byte_length == 348 * 1024


def test_entry_count_empty(index):
    assert index.entry_count() == 0


def test_build_then_query_equivalence(index):
    rng = random.Random(11)
    written = {}
    for i in range(300):
        entry = SerialIndexEntry(
            name=f"title{rng.randrange(100)}",
            key=f"{rng.randrange(10_000):04d}",
            start=rng.randrange(10**7),
            count=rng.randrange(1, 500),
            byte_length=rng.randrange(1, 500 * 1024),
        )
        if (entry.name, entry.key) in written:
            continue
        index.append(entry)
        written[(entry.name, entry.key)] = entry
    for (name, key), entry in written.items():
        assert index.lookup(name, key) == entry


def test_lookup_returns_first_match_in_legacy_file(tmp_path):
    # Duplicate lines can exist in externally built indexes; first line wins.
    path = tmp_path / "dup.index"
    path.write_text("T 0404 100 5\nT 0404 900 9\n")
    entry = SerialIndex(path).lookup("T", "0404")
    assert (entry.start, entry.count) == (100, 5)


def test_reopen_detects_existing_duplicates(tmp_path):
    index = SerialIndex.create(tmp_path / "i")
    index.append(SerialIndexEntry("a", "1", 0, 1))
    index.close()
    again = SerialIndex(tmp_path / "i")
    with pytest.raises(DuplicateKeyError):
        again.append(SerialIndexEntry("a", "1", 0, 1))


def write_lines(path, n):
    """An index of n lines written directly, bypassing SerialIndex."""
    lines = [SerialIndexEntry(f"title{i}", f"{i % 1000:04d}", i * 3, 3, i * 3000 + 7).line() for i in range(n)]
    path.write_text("".join(lines))
    return lines


def test_hit_reads_exactly_its_line(tmp_path):
    lines = write_lines(tmp_path / "big.index", 100_000)
    index = SerialIndex(tmp_path / "big.index")
    for i in (0, len(lines) - 1):
        index.counters.reset()
        entry = index.lookup(f"title{i}", f"{i % 1000:04d}")
        assert entry.line() == lines[i]
        assert index.counters.reads == 1
        assert index.counters.bytes_read == len(lines[i])


def test_misses_read_no_index_bytes(tmp_path):
    write_lines(tmp_path / "big.index", 100_000)
    index = SerialIndex(tmp_path / "big.index")
    index.entry_count()  # counts lines; the first lookup builds the table, uncounted
    for i in range(1_000):
        with pytest.raises(NotFoundError):
            index.lookup(f"title{i}", "9999")
    # Only a tag collision, a rare event under the per-process salt, costs a read.
    assert index.counters.bytes_read < 1024


def test_second_writer_append_seen_by_open_instance(tmp_path):
    with SerialIndex.create(tmp_path / "i") as reader:
        reader.append(SerialIndexEntry("a", "1", 0, 1))
        with pytest.raises(NotFoundError):
            reader.lookup("b", "2")
        with SerialIndex(tmp_path / "i") as writer:
            writer.append(SerialIndexEntry("b", "2", 1, 1))
        assert reader.lookup("b", "2").start == 1
        with open(tmp_path / "i", "a") as f:
            f.write("c 3 2 1\n")
        assert reader.lookup("c", "3").start == 2
        assert reader.entry_count() == 3


def test_index_replaced_by_rename_seen_by_open_instance(tmp_path):
    with SerialIndex.create(tmp_path / "i") as index:
        index.append(SerialIndexEntry("a", "1", 0, 1))
        assert index.lookup("a", "1").start == 0
        (tmp_path / "new").write_text("b 2 5 1\na 1 7 1\n")
        os.replace(tmp_path / "new", tmp_path / "i")
        assert index.lookup("a", "1").start == 7
        assert index.lookup("b", "2").start == 5


def test_appends_never_read_and_survive_growth(tmp_path):
    written = [SerialIndexEntry(f"name{i}", str(i), i, 1, i + 1) for i in range(5_000)]
    with SerialIndex.create(tmp_path / "i") as index:
        for entry in written:
            index.append(entry)
        assert index.counters.reads == 0
        assert all(index.lookup(e.name, e.key) == e for e in written)
    assert SerialIndex(tmp_path / "i").lookup("name4999", "4999") == written[-1]


def test_long_line_found(tmp_path):
    long_name = "N" * 5_000
    with SerialIndex.create(tmp_path / "i") as index:
        index.append(SerialIndexEntry("a", "1", 0, 1))
        index.append(SerialIndexEntry(long_name, "1", 9, 2))
        index.append(SerialIndexEntry("b", "1", 11, 1))
        assert SerialIndex(tmp_path / "i").lookup(long_name, "1").start == 9
        assert index.lookup(long_name, "1").start == 9
        assert index.lookup("b", "1").start == 11


def test_non_ascii_request_is_not_found(index):
    index.append(SerialIndexEntry("a", "1", 0, 1))
    with pytest.raises(NotFoundError):
        index.lookup("\u00e4", "1")


def test_concurrent_first_lookups_build_one_table(tmp_path, monkeypatch):
    write_lines(tmp_path / "big.index", 20_000)
    index = SerialIndex(tmp_path / "big.index")
    loads = []
    real_load = serial_index._load

    def counting_load(path):
        loads.append(path)
        return real_load(path)

    monkeypatch.setattr(serial_index, "_load", counting_load)
    barrier = threading.Barrier(8)
    found = []

    def first_lookup(i):
        barrier.wait(timeout=10)
        found.append(index.lookup(f"title{i}", f"{i % 1000:04d}").start == i * 3)

    threads = [threading.Thread(target=first_lookup, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert found == [True] * 8
    assert len(loads) == 1


def test_lookups_stay_exact_while_appending(tmp_path):
    # Readers race an appender that grows and widens the table, and a second
    # writer whose lines force reloads; no lookup may see a wrong entry.
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    index = SerialIndex.create(tmp_path / "i")
    try:
        known = [SerialIndexEntry(f"k{i}", "0", i, 1) for i in range(200)]
        for entry in known:
            index.append(entry)
        stop = threading.Event()
        bad = []

        def reader(seed):
            rng = random.Random(seed)
            while not stop.is_set():
                entry = rng.choice(known)
                if index.lookup(entry.name, entry.key) != entry:
                    bad.append(entry)

        def appender():
            for i in range(3_000):
                index.append(SerialIndexEntry(f"a{i}", "0", i, 1))

        def other_writer():
            with SerialIndex(tmp_path / "i") as other:
                for i in range(100):
                    other.append(SerialIndexEntry(f"o{i}", "0", i, 1))

        threads = [threading.Thread(target=reader, args=(s,)) for s in range(4)]
        writers = [threading.Thread(target=appender), threading.Thread(target=other_writer)]
        for t in threads + writers:
            t.start()
        for t in writers:
            t.join(timeout=60)
            assert not t.is_alive()
        stop.set()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert bad == []
        assert index.lookup("a2999", "0").start == 2999
        assert index.lookup("o99", "0").start == 99
        assert index.entry_count() == 200 + 3_000 + 100
    finally:
        sys.setswitchinterval(old)
        index.close()


def test_tag_collisions_never_return_another_entry(tmp_path, monkeypatch):
    # Every entry gets the same hash, so the same tag: hits must still match
    # the line exactly. Its home is the last of the 8 slots a two-line file
    # gets, so the second line wraps to slot 0 and reloads must keep their order.
    monkeypatch.setattr(serial_index, "_hash", lambda name, key: 7 << serial_index.TAG_BITS | 7)
    path = tmp_path / "i"
    path.write_text("T 1 100 5\nT 1 900 9\n")
    written = [SerialIndexEntry(f"n{i}", "0", i, 1) for i in range(40)]
    with SerialIndex(path) as index:
        for entry in written:
            index.append(entry)
        assert all(index.lookup(e.name, e.key) == e for e in written)
        assert (index.lookup("T", "1").start, SerialIndex(path).lookup("T", "1").start) == (100, 100)
        with pytest.raises(NotFoundError):
            index.lookup("n1", "1")
        with pytest.raises(DuplicateKeyError):
            index.append(SerialIndexEntry("n39", "0", 0, 1))


def test_append_racing_second_writer_keeps_both_lines(tmp_path, monkeypatch):
    with SerialIndex.create(tmp_path / "i") as index:
        index.append(SerialIndexEntry("a", "1", 0, 1))
        real_write = os.write

        def interleaved(fd, data):
            """Another writer's line lands just before ours."""
            with open(tmp_path / "i", "a") as other:
                other.write("b 2 5 1\n")
            return real_write(fd, data)

        monkeypatch.setattr(serial_index.os, "write", interleaved)
        index.append(SerialIndexEntry("c", "3", 9, 1))
        monkeypatch.undo()
        assert index.lookup("b", "2").start == 5
        assert index.lookup("c", "3").start == 9


def test_append_ends_an_unterminated_last_line(tmp_path):
    path = tmp_path / "i"
    path.write_text("a 1 0 1")  # written by hand, without a final newline
    with SerialIndex(path) as index:
        index.append(SerialIndexEntry("b", "2", 1, 1))
    assert path.read_text() == "a 1 0 1\nb 2 1 1\n"
    fresh = SerialIndex(path)
    assert fresh.lookup("a", "1").start == 0
    assert fresh.lookup("b", "2").start == 1


def test_non_ascii_token_rejected():
    with pytest.raises(ValueError):
        SerialIndexEntry("Tälly", "1", 0, 1)
    with pytest.raises(ValueError):
        SerialIndexEntry("T", "١", 0, 1)


def test_create_writes_entries_in_order_and_refuses_an_existing_file(tmp_path):
    written = [SerialIndexEntry(f"n{i}", str(i), i, 1, i + 1) for i in range(1_000)]
    with SerialIndex.create(tmp_path / "i", written) as index:
        assert index.path.read_text() == "".join(e.line() for e in written)
        assert all(index.lookup(e.name, e.key) == e for e in written)
        assert index.entry_count() == 1_000
    with pytest.raises(FileExistsError):
        SerialIndex.create(tmp_path / "i", written[:1])
    assert len((tmp_path / "i").read_text().splitlines()) == 1_000


def test_entry_count_builds_no_table(tmp_path):
    path = tmp_path / "i"
    path.write_text("a 1 0 1\nb 2 1 1")  # the last line unterminated
    index = SerialIndex(path)
    assert index.entry_count() == 2
    with open(path, "a") as f:  # another writer
        f.write("\nc 3 2 1\n")
    assert index.entry_count() == 3
    assert index._table is None
