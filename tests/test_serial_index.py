import errno
import logging
import os
import random
import sys
import threading
from array import array
from types import SimpleNamespace

import pytest
from helpers import open_fd_count, traced_peak

from raclib import serial_index
from raclib.errors import NotFoundError
from raclib.serial_index import SerialIndex, SerialIndexEntry
from raclib.store import RecordStore


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


@pytest.mark.parametrize("length", [254, 255, 256, 5_007])
def test_long_line_hit_is_one_read_of_exactly_its_line(tmp_path, length):
    line = SerialIndexEntry("N" * (length - 7), "1", 9, 2).line()  # " 1 9 2\n" is 7 bytes
    assert len(line) == length
    written = [SerialIndexEntry("a", "1", 0, 1), SerialIndexEntry.parse(line), SerialIndexEntry("b", "1", 11, 1)]
    with SerialIndex.create(tmp_path / "i", written) as index:
        index.lookup("a", "1")  # builds the table, uncounted
        index.counters.reset()
        assert index.lookup("N" * (length - 7), "1").line() == line
        assert (index.counters.reads, index.counters.bytes_read) == (1, length)


def test_line_too_long_after_its_key_fails_only_its_own_lookup(tmp_path):
    written = [SerialIndexEntry("a", "1", 0, 1), SerialIndexEntry("b", "1", 11, 1, 255)]
    too_long = "z 1 " + "0" * 300 + "9 2\n"  # a zero-padded start: 304 B after the key's separator
    padded = "y 2 9" + " " * 252 + "2\n"  # blanks before the count: exactly 255 B after the key's separator
    path = tmp_path / "i"
    path.write_text(written[0].line() + too_long + padded + written[1].line())
    assert [len(line) - 4 for line in (too_long, padded)] == [304, serial_index.MAX_TAIL]
    with SerialIndex(path) as index:
        with pytest.raises(ValueError, match=f"byte {len(written[0].line())} "):
            index.lookup("z", "1")
        assert index.lookup("y", "2") == SerialIndexEntry("y", "2", 9, 2)
        assert all(index.lookup(e.name, e.key) == e for e in written)
        with pytest.raises(NotFoundError):
            index.lookup("z", "2")


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
    # Every entry gets the same hash, so the same bucket and tag: hits must
    # still match the line exactly, and the first of two duplicate lines wins.
    monkeypatch.setattr(serial_index, "_hash", lambda salt, name, key: 7 << serial_index.TAG_BITS | 7)
    path = tmp_path / "i"
    written = [SerialIndexEntry(f"n{i}", "0", i, 1) for i in range(2)]
    path.write_text("T 1 100 5\nT 1 900 9\n" + "".join(e.line() for e in written))
    with SerialIndex(path) as index:
        assert all(index.lookup(e.name, e.key) == e for e in written)
        _, _, slots = index._table
        assert len(slots) == 4  # one word per line
        assert index.lookup("T", "1").start == 100
        with pytest.raises(NotFoundError):
            index.lookup("n1", "1")


@pytest.mark.parametrize("start, count, byte_length, message", [
    (-1, 1, None, "negative start/count"), (0, -1, None, "negative start/count"), (0, 1, -1, "negative byte_length"),
])
def test_negative_numbers_rejected(start, count, byte_length, message):
    with pytest.raises(ValueError, match=message):
        SerialIndexEntry("A", "1", start, count, byte_length)


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
        assert index._table is None


def test_open_index_reads_only_the_file_it_opened(tmp_path):
    path = tmp_path / "i"
    with SerialIndex.create(path, [SerialIndexEntry("a", "1", 0, 1)]) as index:
        assert index.lookup("a", "1").start == 0
        (tmp_path / "new").write_text("b 2 5 1\na 1 7 1\n")
        os.replace(tmp_path / "new", path)
        assert index.lookup("a", "1").start == 0
        with pytest.raises(NotFoundError):
            index.lookup("b", "2")
        assert [e.start for e in index.entries()] == [0]
        assert index.entry_count() == 1


@pytest.mark.parametrize("line", [
    "a 1 1_0 2\n", "a 1 +3 2\n", "a 1 3 2_0\n", "a 1 3 2 +7\n", "a 1 ３ 2\n", "a 1 3 2 7_0\n",
])
def test_parse_refuses_number_spellings_other_than_digits(line):
    with pytest.raises(ValueError) as caught:
        SerialIndexEntry.parse(line)
    assert repr(line) in str(caught.value)


@pytest.mark.parametrize("line", ["a 1 3\n", "a 1 3 2 7 9\n"])
def test_parse_refuses_a_line_of_other_than_four_or_five_fields(line):
    with pytest.raises(ValueError, match="must have 4 or 5 fields") as caught:
        SerialIndexEntry.parse(line)
    assert repr(line) in str(caught.value)


def test_an_index_of_4_gib_is_refused_holding_no_fd(tmp_path):
    path = tmp_path / "huge.index"
    path.write_bytes(b"")
    os.truncate(path, 1 << serial_index.OFFSET_BITS)  # sparse: no disk block is written
    before = open_fd_count()
    with pytest.raises(ValueError, match="not under the 4294967296 B limit"):
        SerialIndex(path)
    assert open_fd_count() == before


def counted_loads(monkeypatch) -> list[int]:
    """Patch ``_load`` to log the size of every table build; returns the log."""
    builds = []
    real_load = serial_index._load
    monkeypatch.setattr(serial_index, "_load", lambda records, size: builds.append(size) or real_load(records, size))
    return builds


def assert_lookups_exact(path, written, absent=("nokey", "0")):
    """A fresh handle on ``path`` finds every entry of ``written`` and misses ``absent``."""
    with SerialIndex(path) as index:
        assert all(index.lookup(e.name, e.key) == e for e in written)
        with pytest.raises(NotFoundError):
            index.lookup(*absent)


def entries(n, start=0):
    return [SerialIndexEntry(f"title{i}", f"{i % 1000:04d}", i * 3, 3, i * 3000 + 7) for i in range(start, start + n)]


def test_second_handle_reads_the_slot_file_and_builds_no_table(tmp_path, monkeypatch):
    builds = counted_loads(monkeypatch)
    written = entries(2_000) + [SerialIndexEntry("N" * 300, "1", 9, 2)]  # one long line
    path = tmp_path / "i"
    SerialIndex.create(path, written).close()
    assert not serial_index.slots_path(path).exists()  # create writes no slot file
    for _ in range(3):
        assert_lookups_exact(path, written)
    assert builds == [path.stat().st_size]
    assert serial_index.slots_path(path).stat().st_size % 8 == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["i", "i.slots"]  # no temp left


def test_cold_fetch_reads_the_slot_file_the_line_and_the_member(tmp_path, monkeypatch):
    from raclib.pack import Collection, pack_directory

    (tmp_path / "in").mkdir()
    for i in range(500):
        (tmp_path / "in" / f"book_{i:04d}.jpg").write_bytes(b"%d" % i * 50)
    pack_directory(tmp_path / "in", "books", tmp_path / "out").close()
    library = tmp_path / "out" / "books.raclib"
    with Collection.open(library) as collection:
        collection.fetch("book", "0001")  # the first lookup on this index publishes its slot file
    preads = []
    real_pread = os.pread
    monkeypatch.setattr(os, "pread", lambda fd, n, offset: preads.append(n) or real_pread(fd, n, offset))
    with Collection.open(library) as collection:
        assert collection.fetch("book", "0321") == b"321" * 50
    assert len(preads) <= 3, preads
    preads.clear()
    with Collection.open(library) as collection:
        with pytest.raises(NotFoundError):
            collection.fetch("book", "9999")
    assert len(preads) <= 1, preads


def test_a_slot_file_holds_a_directory_and_one_word_per_line(tmp_path):
    path = tmp_path / "i"
    written = entries(1_000)
    SerialIndex.create(path, written).close()
    assert_lookups_exact(path, written)  # publishes the slot file
    words = memoryview(serial_index.slots_path(path).read_bytes()).cast("Q")
    buckets = words[7]
    assert buckets == 64  # the power of two just above 1,000 / 16
    assert len(words) * 8 == 8 * (serial_index.HEADER_WORDS + buckets + 1 + len(written) + 1)
    directory = words[serial_index.HEADER_WORDS:serial_index.HEADER_WORDS + buckets + 1]
    slots = words[serial_index.HEADER_WORDS + buckets + 1:-1]
    assert directory[0] == 0 and directory[-1] == len(slots)
    for start, end in zip(directory, directory[1:]):  # each bucket's words in file order
        offsets = [word >> serial_index.TAIL_BITS & serial_index.OFFSET_MASK for word in slots[start:end]]
        assert offsets == sorted(set(offsets))


def write_version_three(path):
    """The slot file of ``path`` as version 3 wrote it, stamped for the index as it is, with a valid checksum: an
    open-addressed table of 1.5 slots per line, a slot 0 when empty, else tag (low 24 bits of the hash) | line
    offset | tail, at the first free slot from the home that the hash's next bits give."""
    with SerialIndex(path) as index:
        stamp = serial_index._stamp(index.records, index.records.record_count)
    lines = path.read_bytes().splitlines(keepends=True)
    n = int(len(lines) * 1.5) + 1
    salt = os.urandom(16)
    slots = [0] * n
    offset = 0
    for line in lines:
        name, key, rest = line.split(b" ", 2)
        h = serial_index._hash(salt, name, key)
        i = (h >> 24) % n
        while slots[i]:
            i = (i + 1) % n
        slots[i] = ((h & 0xFFFFFF) << 32 | offset) << 8 | len(rest)
        offset += len(line)
    words = array("Q", b"RACSLT3" + sys.byteorder[0].upper().encode("ascii") + salt) + array("Q", (*stamp, n, *slots))
    words.append(serial_index._checksum(words))
    serial_index.slots_path(path).write_bytes(words)


def test_a_version_three_slot_file_is_refused_by_its_magic_and_rebuilt_once_as_version_four(tmp_path, monkeypatch):
    path = tmp_path / "i"
    written = entries(300)
    SerialIndex.create(path, written).close()
    write_version_three(path)
    builds = counted_loads(monkeypatch)
    assert_lookups_exact(path, written)
    assert builds == [path.stat().st_size]
    assert serial_index.slots_path(path).read_bytes()[:7] == b"RACSLT4"
    assert_lookups_exact(path, written)
    assert len(builds) == 1


def rewrite_slots(path, edit):
    """Apply ``edit`` to the bytes of the slot file of ``path``, then give them a valid checksum again."""
    data = bytearray(serial_index.slots_path(path).read_bytes())
    edit(data)
    data[-8:] = serial_index._checksum(memoryview(data)[:-8]).to_bytes(8, "little")
    serial_index.slots_path(path).write_bytes(data)


def replace_index(path, written):
    """Publish a new index over ``path`` by rename, as a rebuild does."""
    written[:] = entries(300, start=5_000)
    SerialIndex.create(path.with_name("new"), written).close()
    os.replace(path.with_name("new"), path)


def append_in_place(path, written):
    more = entries(10, start=9_000)
    with open(path, "a", encoding="ascii") as f:
        f.write("".join(e.line() for e in more))
    written += more


def truncate_slots(path, written):
    slots = serial_index.slots_path(path)
    slots.write_bytes(slots.read_bytes()[:-8])


def flip_one_slot_byte(path, written):
    slots = serial_index.slots_path(path)
    data = bytearray(slots.read_bytes())
    data[8 * serial_index.HEADER_WORDS + 5] ^= 0x10
    slots.write_bytes(data)


def wrong_version(path, written):
    rewrite_slots(path, lambda data: data.__setitem__(slice(6, 7), b"9"))


def version_one(path, written):
    rewrite_slots(path, lambda data: data.__setitem__(slice(6, 7), b"1"))


def version_two(path, written):
    """The slot file as the previous version wrote it: its header held a long-line count, here 0."""
    rewrite_slots(path, lambda data: data.__setitem__(slice(6, 64), b"2" + data[7:64] + bytes(8)))


def wrong_byte_order(path, written):
    rewrite_slots(path, lambda data: data.__setitem__(slice(7, 8), b"X"))


def slots_of_another_index(path, written):
    other = path.with_name("other")
    other.write_bytes(path.read_bytes())  # the same bytes, another file
    assert_lookups_exact(other, written)
    os.replace(serial_index.slots_path(other), serial_index.slots_path(path))


@pytest.mark.parametrize("damage", [
    replace_index, append_in_place, truncate_slots, flip_one_slot_byte, wrong_version, version_one,
    version_two, wrong_byte_order, slots_of_another_index,
])
def test_stale_or_damaged_slot_file_is_never_trusted(tmp_path, monkeypatch, damage):
    path = tmp_path / "i"
    written = entries(300)
    SerialIndex.create(path, written).close()
    assert_lookups_exact(path, written)  # publishes the slot file
    damage(path, written)
    builds = counted_loads(monkeypatch)
    assert_lookups_exact(path, written)
    assert builds == [path.stat().st_size]  # rebuilt, and published again for the file as it is now
    assert_lookups_exact(path, written)
    assert len(builds) == 1


def test_handle_opened_before_an_append_publishes_no_table_for_the_longer_file(tmp_path, monkeypatch):
    path = tmp_path / "i"
    written = entries(300)
    SerialIndex.create(path, written).close()
    with SerialIndex(path) as early:
        append_in_place(path, written)
        early.lookup("title0", "0000")  # builds from the 300 lines it covers
    builds = counted_loads(monkeypatch)
    assert_lookups_exact(path, written)
    assert builds == [path.stat().st_size]


def test_unwritable_slot_file_serves_from_memory(tmp_path, monkeypatch, caplog):
    def refuse(*args, **kwargs):
        raise OSError(errno.EROFS, "read-only file system")

    path = tmp_path / "i"
    written = entries(300)
    SerialIndex.create(path, written).close()
    monkeypatch.setattr(serial_index, "publish_file", refuse)
    before = open_fd_count()
    with caplog.at_level(logging.DEBUG, logger="raclib.serial_index"):
        for _ in range(2):
            assert_lookups_exact(path, written)
    assert open_fd_count() == before
    assert [p.name for p in tmp_path.iterdir()] == ["i"]
    assert "read-only file system" in caplog.text


def test_concurrent_first_lookups_read_the_slot_file_once(tmp_path, monkeypatch):
    write_lines(tmp_path / "big.index", 20_000)
    with SerialIndex(tmp_path / "big.index") as first:
        first.lookup("title0", "0000")  # publishes the slot file
    builds = counted_loads(monkeypatch)
    reads = []
    real_read_slots = serial_index._read_slots
    monkeypatch.setattr(serial_index, "_read_slots", lambda *args: reads.append(args) or real_read_slots(*args))
    index = SerialIndex(tmp_path / "big.index")
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
    assert (len(reads), builds) == (1, [])


def test_table_is_views_over_the_slot_file_words_whether_built_or_read(tmp_path):
    path = tmp_path / "i"
    written = [SerialIndexEntry("a", "1", 0, 1), SerialIndexEntry("N" * 300, "1", 9, 2),
               SerialIndexEntry("b", "1", 11, 1), SerialIndexEntry("L" * 400, "2", 12, 1)]
    lines = [e.line() for e in written]
    SerialIndex.create(path, written).close()
    for _ in range(2):  # the first handle builds the words and publishes them, the second reads them
        with SerialIndex(path) as index:
            assert all(index.lookup(e.name, e.key) == e for e in written)
            salt, directory, slots = index._table
            words = bytes(slots.obj)
            assert directory.obj is slots.obj
            assert words == serial_index.slots_path(path).read_bytes()
            assert salt == words[8:24]
            assert (directory.tolist(), len(slots)) == ([0, 4], 4)  # four lines, one bucket
            assert words[8 * serial_index.HEADER_WORDS:-8] == bytes(directory) + bytes(slots)
            # Each word holds its line's tail, what follows the key's separator: the long lines are no exception.
            tails = sorted(word & serial_index.MAX_TAIL for word in slots)
            assert tails == sorted(len(line.split(" ", 2)[2]) for line in lines)


def test_cold_build_holds_one_copy_of_the_table(tmp_path):
    path = tmp_path / "big.index"
    write_lines(path, 100_000)
    with SerialIndex(path) as index:
        peak = traced_peak(lambda: index.lookup("title7", "0007"))
    assert peak <= 1.25 * serial_index.slots_path(path).stat().st_size


def test_a_host_that_numbers_the_disk_otherwise_reads_the_slot_file(tmp_path, monkeypatch):
    # Hosts that share one disk number its device each for itself, so the stamp must not depend on that number.
    path = tmp_path / "i"
    written = entries(300)
    SerialIndex.create(path, written).close()
    assert_lookups_exact(path, written)  # publishes the slot file
    real_fstat = RecordStore.fstat

    def fstat_on_another_host(store):
        st = real_fstat(store)
        return SimpleNamespace(st_dev=st.st_dev + 1, st_ino=st.st_ino, st_size=st.st_size,
                               st_mtime_ns=st.st_mtime_ns, st_ctime_ns=st.st_ctime_ns)

    monkeypatch.setattr(RecordStore, "fstat", fstat_on_another_host)
    builds = counted_loads(monkeypatch)
    assert_lookups_exact(path, written)
    assert builds == []
