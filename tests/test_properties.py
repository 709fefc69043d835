"""Round trips of the line and record codecs, and a model test of the serial index."""

import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from raclib import serial_index
from raclib.computed_index import GroupEntry
from raclib.errors import NotFoundError
from raclib.neuro import COORD_BOUND, Voxel, decode_coord, encode_coord
from raclib.serial_index import SerialIndex, SerialIndexEntry

tokens = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E), min_size=1, max_size=12)
counts = st.integers(0, 10**12)


@given(tokens, tokens, counts, counts, st.none() | counts)
def test_index_line_round_trips(name, key, start, count, byte_length):
    entry = SerialIndexEntry(name, key, start, count, byte_length)
    line = entry.line()
    assert line.endswith("\n") and line.count("\n") == 1 and line.isascii()
    assert SerialIndexEntry.parse(line) == entry


def per_character_check(value: str) -> bool:
    """The token check as first written: one ``isspace`` call per character."""
    return value.isascii() and not any(c.isspace() for c in value)


def token_accepted(value: str) -> bool:
    try:
        serial_index._check_token("name", value)
    except ValueError:
        return False
    return True


def test_token_check_equals_a_per_character_check_on_every_ascii_character():
    for c in map(chr, range(128)):
        for value in (c, "a" + c, c + "a", "a" + c + "b"):
            assert token_accepted(value) == per_character_check(value), repr(value)


@given(st.text(st.characters(max_codepoint=0x7F) | st.sampled_from("\x85\xa0\u2003é"), min_size=1, max_size=8))
def test_token_check_equals_a_per_character_check(value):
    assert token_accepted(value) == per_character_check(value)


@given(st.integers(0, 10**10 - 1), st.integers(0, 10**8 - 1))
def test_group_entry_round_trips(start, count):
    entry = GroupEntry(start, count)
    assert len(entry.pack()) == 20
    assert GroupEntry.unpack(entry.pack()) == entry


axis = st.integers(-COORD_BOUND, COORD_BOUND)


@given(axis, axis, axis)
def test_coord_name_round_trips(x, y, z):
    name = encode_coord(Voxel(x, y, z))
    assert decode_coord(name) == (x, y, z)
    assert encode_coord(decode_coord(name)) == name


def first_match(path: Path, name: str, key: str):
    """The entry a lookup must return: the file's first line with these tokens."""
    for line in path.read_text("ascii").splitlines():
        fields = line.split()
        if fields[:2] == [name, key]:
            return SerialIndexEntry.parse(line)
    return None


def weak_hash(salt: bytes, name: bytes, key: bytes) -> int:
    """Three (tag, home) values in all: long probe runs full of tag matches."""
    return hash((name, key)) % 3 * (1 << serial_index.TAG_BITS | 1)


members = st.tuples(st.sampled_from("abcd"), st.integers(0, 15).map(str))


@given(st.lists(members, max_size=40), st.booleans(), st.booleans(), st.lists(members, max_size=10))
def test_lookups_match_a_scan_of_the_file(written, unterminated, weak, probes):
    # A built index whose lines may repeat a (name, key), whose last line may
    # lack its newline, and whose hash may put long runs of tag matches in one
    # probe: every lookup agrees with a first-match scan of the file, both from
    # the handle that builds the table and from a second handle that reads it
    # from the slot file the first one wrote.
    builds = []
    real_load = serial_index._load

    def counting_load(records, size):
        builds.append(size)
        return real_load(records, size)

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        serial_index, "_hash", weak_hash if weak else serial_index._hash
    ), mock.patch.object(serial_index, "_load", counting_load):
        path = Path(tmp) / "i"
        SerialIndex.create(path, [SerialIndexEntry(n, k, i, 1, i) for i, (n, k) in enumerate(written)]).close()
        if unterminated and written:
            path.write_bytes(path.read_bytes()[:-1])  # as an editor might leave it
        keys = {*written, *probes}
        for _ in range(2):
            with SerialIndex(path) as index:
                for n, k in keys:
                    want = first_match(path, n, k)
                    if want is None:
                        with pytest.raises(NotFoundError):
                            index.lookup(n, k)
                    else:
                        assert index.lookup(n, k) == want
                assert index.entry_count() == len(path.read_text("ascii").splitlines())
            assert len(builds) == (1 if keys else 0)  # the second handle built no table
