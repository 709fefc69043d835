"""Round trips of the line and record codecs, and a model test of the serial index."""

import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from raclib import serial_index
from raclib.computed_index import GroupEntry
from raclib.errors import DuplicateKeyError, NotFoundError
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


def weak_hash(name: bytes, key: bytes) -> int:
    """Three (tag, home) values in all: long probe runs full of tag matches."""
    return hash((name, key)) % 3 * (1 << serial_index.TAG_BITS | 1)


members = st.tuples(st.sampled_from("abcd"), st.integers(0, 15).map(str))
operations = st.lists(st.tuples(st.sampled_from(["mine", "other", "raw", "lookup"]), members), max_size=40)


@given(st.lists(members, unique=True, max_size=10), st.booleans(), st.booleans(), operations)
def test_lookups_match_a_scan_of_the_file(initial, unterminated, weak, ops):
    # Appends from this instance, a second writer and raw duplicate lines,
    # across in-place fills and the reloads past MAX_FILL: every lookup and
    # every duplicate check agrees with a first-match scan of the file.
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        serial_index, "_hash", weak_hash if weak else serial_index._hash
    ):
        path = Path(tmp) / "i"
        entries = [SerialIndexEntry(n, k, i, 1, i) for i, (n, k) in enumerate(initial)]
        SerialIndex.create(path, entries).close()
        if unterminated and entries:
            path.write_bytes(path.read_bytes()[:-1])  # as an editor might leave it
        with SerialIndex(path) as index, SerialIndex(path) as other:
            for step, (op, (name, key)) in enumerate(ops, start=len(entries)):
                entry = SerialIndexEntry(name, key, step, 1, step)
                expected = first_match(path, name, key)
                if op == "raw":
                    ended = path.read_bytes().endswith(b"\n") or not path.stat().st_size
                    with open(path, "a", encoding="ascii") as f:
                        f.write(("" if ended else "\n") + entry.line())
                elif op in ("mine", "other"):
                    writer = index if op == "mine" else other
                    if expected is None:
                        writer.append(entry)
                    else:
                        with pytest.raises(DuplicateKeyError):
                            writer.append(entry)
                for n, k in {(name, key), *initial}:
                    want = first_match(path, n, k)
                    if want is None:
                        with pytest.raises(NotFoundError):
                            index.lookup(n, k)
                    else:
                        assert index.lookup(n, k) == want
            assert index.entry_count() == len(path.read_text("ascii").splitlines())
