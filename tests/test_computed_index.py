import fcntl
import os
import random
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from raclib.computed_index import (
    ENTRY_WIDTH,
    GROUP_COUNT,
    INDEX_FILE_SIZE,
    ComputedIndex,
    GroupEntry,
    TrigramKey,
    key_ordinal,
    letters_only,
    name_ordinal,
    pack_tiling,
    trigram_of,
)


def test_worked_example_kennedy_robert():
    key = trigram_of("Kennedy", "Robert")
    assert key == TrigramKey(10, 4, 17)
    assert key_ordinal(key) == 6881


def per_character_letters_only(text):
    return "".join(c.upper() for c in text if c in string.ascii_letters)


def per_character_key(surname, given):
    s, g = per_character_letters_only(surname), per_character_letters_only(given)
    return TrigramKey(
        c1=ord(s[0]) - ord("A") if len(s) > 0 else 0,
        c2=ord(s[1]) - ord("A") if len(s) > 1 else 0,
        c3=ord(g[0]) - ord("A") if g else 0,
    )


# ASCII letters among look-alikes: letters outside ASCII (the Kelvin sign and
# long s fold to K and S under case-insensitive matching, ß upper-cases to SS),
# digits outside ASCII, punctuation and whitespace, plus any character at all.
names = st.text(st.sampled_from("aZkK\u212a\u017fßÅıé²１0-'. \t\n") | st.characters(), max_size=30)


@given(names, names)
def test_letters_and_ordinal_match_a_per_character_scan(surname, given_name):
    assert letters_only(surname) == per_character_letters_only(surname)
    key = per_character_key(surname, given_name)
    assert trigram_of(surname, given_name) == key
    assert name_ordinal(surname, given_name) == key_ordinal(key)


def test_missing_letters_map_to_a():
    assert trigram_of("", "") == TrigramKey(0, 0, 0)
    assert trigram_of("K", "") == TrigramKey(10, 0, 0)
    assert trigram_of("Ko", "") == TrigramKey(10, 14, 0)


def test_normalization_strips_non_letters():
    # effective surname letters O,N; given D
    assert trigram_of("O'Neil", "D") == TrigramKey(14, 13, 3)
    assert trigram_of("o'neil", "d") == trigram_of("ONEIL", "D")
    assert trigram_of(" 41st#", "7") == TrigramKey(18, 19, 0)


def test_non_ascii_letters_are_discarded():
    # 'ß' must not turn into 'SS' during normalization
    assert trigram_of("ßert", "Ärn") == trigram_of("ert", "rn")


def test_key_ordinal_extremes():
    assert key_ordinal(TrigramKey(0, 0, 0)) == 0
    assert key_ordinal(TrigramKey(25, 25, 25)) == 17575


def test_key_ordinal_bijection_exhaustive():
    seen = set()
    for c1 in range(26):
        for c2 in range(26):
            for c3 in range(26):
                seen.add(key_ordinal(TrigramKey(c1, c2, c3)))
    assert seen == set(range(GROUP_COUNT))


def test_key_ordinal_out_of_range():
    with pytest.raises(ValueError):
        TrigramKey(26, 0, 0)
    with pytest.raises(ValueError):
        TrigramKey(0, -1, 0)


@pytest.mark.parametrize("start, count, message", [
    (-1, 0, "start"), (10**10, 0, "start"), (0, -1, "count"), (0, 10**8, "count"),
])
def test_group_entry_out_of_range(start, count, message):
    with pytest.raises(ValueError, match=f"group {message} out of range"):
        GroupEntry(start, count)


def test_pack_tiling_refuses_a_count_out_of_range_or_too_few_groups():
    with pytest.raises(ValueError, match="group count out of range: 100000000"):
        pack_tiling([0, 10**8] + [0] * (GROUP_COUNT - 2))
    with pytest.raises(ValueError, match=f"expected {GROUP_COUNT} entries, got 5"):
        pack_tiling([1] * 5)


def test_create_fixed_file_size(tmp_path):
    ComputedIndex.create(tmp_path / "g.index").close()
    assert (tmp_path / "g.index").stat().st_size == INDEX_FILE_SIZE == 351_520


def entries_with(placed):
    """Every group's entry: ``placed[ordinal]`` where given, else an empty group."""
    return [placed.get(ordinal, GroupEntry(0, 0)) for ordinal in range(GROUP_COUNT)]


def test_entry_offset_law(tmp_path):
    with ComputedIndex.create(tmp_path / "g.index", entries_with({6881: GroupEntry(start=85652, count=181)})) as index:
        raw = (tmp_path / "g.index").read_bytes()
        assert raw[6881 * ENTRY_WIDTH : 6882 * ENTRY_WIDTH] == b"0000085652 00000181\n"
        assert index.read_group_entry(6881) == GroupEntry(85652, 181)


def test_write_read_round_trip_random(tmp_path):
    rng = random.Random(3)
    wrote = {}
    for _ in range(500):
        ordinal = rng.randrange(GROUP_COUNT)
        wrote[ordinal] = GroupEntry(rng.randrange(10**9), rng.randrange(10**6))
    with ComputedIndex.create(tmp_path / "g.index", entries_with(wrote)) as index:
        for ordinal, entry in wrote.items():
            assert index.read_group_entry(ordinal) == entry


def test_ordinal_bounds(tmp_path):
    with ComputedIndex.create(tmp_path / "g.index") as index:
        for ordinal in (-1, GROUP_COUNT):
            with pytest.raises(IndexError):
                index.read_group_entry(ordinal)
        assert index.read_group_entry(GROUP_COUNT - 1) == GroupEntry(0, 0)


def test_read_counts_as_single_io(tmp_path):
    with ComputedIndex.create(tmp_path / "g.index") as index:
        index.counters.reset()
        index.read_group_entry(123)
        assert index.counters.reads == 1
        assert index.counters.bytes_read == ENTRY_WIDTH


def test_malformed_entry_bytes(tmp_path):
    with ComputedIndex.create(tmp_path / "g.index") as index:
        with open(tmp_path / "g.index", "r+b") as f:
            f.write(b"not an entry at all\n" + b"00000000x1 0000000+\n")  # bad layout; good layout, not digits
        for ordinal in (0, 1):
            with pytest.raises(ValueError, match="malformed group entry"):
                index.read_group_entry(ordinal)


def test_open_rejects_wrong_size(tmp_path):
    (tmp_path / "bad.index").write_bytes(b"x" * 100)
    with pytest.raises(ValueError):
        ComputedIndex.open(tmp_path / "bad.index")


def test_open_existing(tmp_path):
    ComputedIndex.create(tmp_path / "g.index", entries_with({7: GroupEntry(5, 2)})).close()
    with ComputedIndex.open(tmp_path / "g.index") as again:
        assert again.read_group_entry(7) == GroupEntry(5, 2)
        assert again.read_all()[7] == GroupEntry(5, 2)


def test_open_is_read_only(tmp_path):
    """Every handle, whether it created the index or opened it, holds a read-only fd."""
    opens = {
        "create": ComputedIndex.create,
        "create_packed": lambda path: ComputedIndex.create_packed(path, GroupEntry(0, 0).pack() * GROUP_COUNT),
        "open": lambda path: ComputedIndex.create(path).close() or ComputedIndex.open(path),
    }
    for name, open_index in opens.items():
        with open_index(tmp_path / f"{name}.index") as index:
            assert fcntl.fcntl(index.records._fd, fcntl.F_GETFL) & os.O_ACCMODE == os.O_RDONLY, name
            with pytest.raises(PermissionError):
                index.records.append_payload(b"x" * ENTRY_WIDTH)
            assert index.read_group_entry(7) == GroupEntry(0, 0)
        assert (tmp_path / f"{name}.index").stat().st_size == INDEX_FILE_SIZE


def test_index_file_has_no_sidecar(tmp_path):
    with ComputedIndex.create(tmp_path / "g.index") as index:
        index.write_all([GroupEntry(i, 0) for i in range(GROUP_COUNT)])
        index.sync()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.index"]


def test_create_with_entries_writes_them(tmp_path):
    entries = [GroupEntry(i, i % 7) for i in range(GROUP_COUNT)]
    with ComputedIndex.create(tmp_path / "g.index", entries) as index:
        assert index.read_all() == entries
    assert (tmp_path / "g.index").read_bytes() == b"".join(e.pack() for e in entries)


def test_create_with_wrong_entry_count_writes_no_file(tmp_path):
    for entries in ([], [GroupEntry(0, 0)] * (GROUP_COUNT + 1)):
        with pytest.raises(ValueError):
            ComputedIndex.create(tmp_path / "g.index", entries)
    for size in (INDEX_FILE_SIZE - 1, INDEX_FILE_SIZE + ENTRY_WIDTH):
        with pytest.raises(ValueError, match=f"an index is {INDEX_FILE_SIZE} bytes, got {size}"):
            ComputedIndex.create_packed(tmp_path / "g.index", bytes(size))
    assert not (tmp_path / "g.index").exists()
