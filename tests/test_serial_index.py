import os
import random
import threading

import pytest

from raclib import serial_index
from raclib.errors import NotFoundError
from raclib.serial_index import SerialIndex, SerialIndexEntry


@pytest.fixture
def built(tmp_path):
    """``built(*entries)``: an index created holding ``entries``, closed after the test."""
    opened = []

    def create(*entries):
        opened.append(SerialIndex.create(tmp_path / f"{len(opened)}.index", entries))
        return opened[-1]

    yield create
    for index in opened:
        index.close()


def test_line_format_matches_legacy_layout(built):
    index = built(SerialIndexEntry("TallyHo1965", "0404", 4050730, 348))
    assert index.path.read_text() == "TallyHo1965 0404 4050730 348\n"


def test_minimal_entry(built):
    index = built(SerialIndexEntry("T", "0", 0, 0))
    assert index.path.read_text() == "T 0 0 0\n"


def test_extended_entry_carries_byte_length(built):
    index = built(SerialIndexEntry("TallyHo1965", "0404", 4050730, 348, byte_length=355_321))
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


def test_lookup_finds_entry(built):
    index = built(SerialIndexEntry("Other", "0404", 1, 2), SerialIndexEntry("TallyHo1965", "0404", 4050730, 348))
    entry = index.lookup("TallyHo1965", "0404")
    assert (entry.start, entry.count) == (4050730, 348)


def test_lookup_whole_token_not_substring(built):
    index = built(SerialIndexEntry("TallyHo1965", "0404", 4050730, 348))
    with pytest.raises(NotFoundError):
        index.lookup("TallyHo1965", "040")
    with pytest.raises(NotFoundError):
        index.lookup("TallyHo", "0404")


def test_lookup_missing_entry(built):
    index = built()
    with pytest.raises(NotFoundError):
        index.lookup("NoSuchTitle", "0001")


def test_legacy_four_field_line_resolves_to_whole_records(tmp_path):
    path = tmp_path / "old.index"
    path.write_text("TallyHo1965 0404 4050730 348\n")
    with SerialIndex(path) as index:
        entry = index.lookup("TallyHo1965", "0404")
    assert entry.byte_length is None
    ref = entry.to_ref(1024)
    assert ref.byte_length == 348 * 1024


def test_entry_count_empty(built):
    assert built().entry_count() == 0


def test_build_then_query_equivalence(built):
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
        written.setdefault((entry.name, entry.key), entry)
    index = built(*written.values())
    for (name, key), entry in written.items():
        assert index.lookup(name, key) == entry


def test_lookup_returns_first_match_in_legacy_file(tmp_path):
    # Duplicate lines can exist in externally built indexes; first line wins.
    path = tmp_path / "dup.index"
    path.write_text("T 0404 100 5\nT 0404 900 9\n")
    with SerialIndex(path) as index:
        entry = index.lookup("T", "0404")
    assert (entry.start, entry.count) == (100, 5)


def write_lines(path, n):
    """An index of n lines written directly, bypassing SerialIndex."""
    lines = [SerialIndexEntry(f"title{i}", f"{i % 1000:04d}", i * 3, 3, i * 3000 + 7).line() for i in range(n)]
    path.write_text("".join(lines))
    return lines


def test_hit_reads_exactly_its_line(tmp_path):
    lines = write_lines(tmp_path / "big.index", 100_000)
    with SerialIndex(tmp_path / "big.index") as index:
        for i in (0, len(lines) - 1):
            index.counters.reset()
            entry = index.lookup(f"title{i}", f"{i % 1000:04d}")
            assert entry.line() == lines[i]
            assert index.counters.reads == 1
            assert index.counters.bytes_read == len(lines[i])


def test_misses_read_no_index_bytes(tmp_path):
    write_lines(tmp_path / "big.index", 100_000)
    with SerialIndex(tmp_path / "big.index") as index:
        index.entry_count()  # counts lines; the first lookup builds the table, uncounted
        for i in range(1_000):
            with pytest.raises(NotFoundError):
                index.lookup(f"title{i}", "9999")
    # Only a tag collision, a rare event under the per-process salt, costs a read.
    assert index.counters.bytes_read < 1024


def test_long_line_found(tmp_path):
    long_name = "N" * 5_000
    written = [SerialIndexEntry("a", "1", 0, 1), SerialIndexEntry(long_name, "1", 9, 2), SerialIndexEntry("b", "1", 11, 1)]
    with SerialIndex.create(tmp_path / "i", written) as index:
        assert index.lookup(long_name, "1").start == 9
        assert index.lookup("b", "1").start == 11


def test_long_line_read_stops_at_the_size_at_open(tmp_path):
    path = tmp_path / "i"
    long_name = "N" * 300
    path.write_bytes(f"a 1 0 1\n{long_name} k 1 2 79".encode("ascii"))  # long and unterminated
    with SerialIndex(path) as index:
        with open(path, "ab") as f:
            f.write(b" trailing\n")  # an edit in place after open, which the index must not see
        assert index.lookup(long_name, "k") == SerialIndexEntry(long_name, "k", 1, 2, 79)


def test_non_ascii_request_is_not_found(built):
    index = built(SerialIndexEntry("a", "1", 0, 1))
    with pytest.raises(NotFoundError):
        index.lookup("\u00e4", "1")


def test_concurrent_first_lookups_build_one_table(tmp_path, monkeypatch):
    write_lines(tmp_path / "big.index", 20_000)
    index = SerialIndex(tmp_path / "big.index")
    loads = []
    real_load = serial_index._load

    def counting_load(fd, size):
        loads.append(size)
        return real_load(fd, size)

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
    index.close()
    assert found == [True] * 8
    assert len(loads) == 1


def test_tag_collisions_never_return_another_entry(tmp_path, monkeypatch):
    # Every entry gets the same hash, so the same tag: hits must still match
    # the line exactly. Its home is the last of the table's slots, so the
    # probe wraps to slot 0, and the first of two duplicate lines still wins.
    monkeypatch.setattr(serial_index, "_hash", lambda name, key: 7 << serial_index.TAG_BITS | 7)
    path = tmp_path / "i"
    written = [SerialIndexEntry(f"n{i}", "0", i, 1) for i in range(2)]
    path.write_text("T 1 100 5\nT 1 900 9\n" + "".join(e.line() for e in written))
    with SerialIndex(path) as index:
        assert all(index.lookup(e.name, e.key) == e for e in written)
        assert len(index._slots) == 8
        assert index.lookup("T", "1").start == 100
        with pytest.raises(NotFoundError):
            index.lookup("n1", "1")


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
    with SerialIndex(path) as index:
        assert index.entry_count() == 2
        assert [e.key for e in index.entries()] == ["1", "2"]
        assert index._slots is None


def test_open_index_reads_only_the_file_it_opened(tmp_path):
    path = tmp_path / "i"
    with SerialIndex.create(path, [SerialIndexEntry("a", "1", 0, 1)]) as index:
        assert index.lookup("a", "1").start == 0
        (tmp_path / "new").write_text("b 2 5 1\na 1 7 1\n")
        os.replace(tmp_path / "new", path)
        assert index.lookup("a", "1").start == 0
        with pytest.raises(NotFoundError):
            index.lookup("b", "2")
        assert index.runs("a") == ((0, 1),)
        with pytest.raises(NotFoundError):
            index.runs("b")
        assert [e.start for e in index.entries()] == [0]
        assert index.entry_count() == 1
