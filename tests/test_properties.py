"""Round trips of the line and record codecs, a model test of the serial index, and the TSV fast path."""

import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from helpers import unpacked_records
from hypothesis import strategies as st

from raclib import serial_index, ssdi
from raclib.computed_index import GroupEntry
from raclib.errors import NotFoundError
from raclib.neuro import COORD_BOUND, Voxel, decode_coord, encode_coord
from raclib.serial_index import SerialIndex, SerialIndexEntry
from raclib.ssdi import DeathRecord, read_records_tsv

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


# -- the TSV fast path: one compiled match per plain line ----------------------

letters = "ABJKNOSZ"
dates = st.builds("{:04d}{:02d}{:02d}".format, st.integers(0, 9999), st.integers(0, 12), st.integers(0, 31))
plain_fields = st.tuples(
    st.text(st.sampled_from(letters), min_size=1, max_size=24),
    st.text(st.sampled_from(letters), min_size=1, max_size=12),
    st.text(st.sampled_from("0123456789"), min_size=9, max_size=9),
    dates, dates,
).map(list)
# Characters that one edit of a plain field puts in it, by field: the per-field checks change the
# result (lower case, padding), take it as it is (punctuation) or refuse it.
odd_characters = ["Aaz '-\x00ẞ", "Aaz '-\x00ẞ", "0x１ ", "0x１ ", "0x１ "]


@st.composite
def tsv_lines(draw) -> bytes:
    """A plain line, or one a single edit away from plain; with or without its newline."""
    fields = draw(plain_fields)
    change = draw(st.sampled_from(["none", "none", "edit", "edit", "edit", "date", "count", "blank", "bytes"]))
    if change == "edit":
        i = draw(st.integers(0, 4))
        value, odd = fields[i], draw(st.sampled_from(odd_characters[i]))
        at = draw(st.integers(0, len(value) - 1))
        fields[i] = draw(st.sampled_from([
            value[:at] + odd + value[at:], value[:at] + odd + value[at + 1 :], value[:at] + value[at + 1 :],
            value.lower(), f" {value}", f"{value} ", (value * 30)[: (25, 13, 10, 9, 9)[i]],  # one too long
        ]))
    elif change == "date":  # month up to 19, day up to 39
        fields[draw(st.integers(3, 4))] = draw(
            st.builds("{:04d}{:02d}{:02d}".format, st.integers(0, 9999), st.integers(0, 19), st.integers(0, 39))
        )
    elif change == "count":
        fields = draw(st.sampled_from([fields[:4], fields + ["x"]]))
    elif change == "blank":
        fields = draw(st.sampled_from([[], [" "]]))
    line = "\t".join(fields).encode("utf-8")
    if change == "bytes":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from([b"\xff", b"\xc3\xa9"])) + line[at:]  # not UTF-8; UTF-8 "é"
    return line + draw(st.sampled_from([b"\n", b"\n", b"\r\n", b"\r", b""]))


def read_all(path: Path):
    """The packed records, or the first error's message."""
    try:
        return read_records_tsv(path), None
    except ValueError as e:
        return None, str(e)


def edge_line(surname=24, given=12, ssn="123456789", birth="19001231", death="20001131") -> bytes:
    return f"{'A' * surname}\t{'B' * given}\t{ssn}\t{birth}\t{death}\n".encode()


@settings(max_examples=200)
@given(st.lists(tsv_lines(), max_size=12))
@example([edge_line(), edge_line(surname=25), edge_line(given=13), edge_line(ssn="12345678")])
@example([edge_line(birth="19001331"), edge_line(death="20001132"), edge_line(birth="1900123")])
def test_plain_lines_read_as_the_per_field_checks_read_them(lines):
    # The lines as one file, whose first bad line ends the read, and each line as a file of its own.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.tsv"
        for text in [b"".join(lines), *lines]:
            path.write_bytes(text)
            fast = read_all(path)
            with mock.patch.object(ssdi, "_PLAIN_LINE", re.compile(b"(?!)")):  # every line through the per-field checks
                assert fast == read_all(path), text


def test_only_lines_the_match_refuses_go_through_the_field_checks(tmp_path):
    path = tmp_path / "records.tsv"
    path.write_text(
        "SMITH\tJOHN\t123456789\t19000101\t19700101\r\n"
        "O'Brien\tMARY\t123456788\t19000000\t19700101\r\n"
        "\n"
        "ZZZZZZZZZZZZZZZZZZZZZZZZ\tZZZZZZZZZZZZ\t123456787\t99991231\t00000000\n"
        "LI\tANN\t123456786\t19000101\t19700101"
    )
    checked = []
    real = DeathRecord.__post_init__
    with mock.patch.object(DeathRecord, "__post_init__", lambda self: checked.append(self.surname) or real(self)):
        packed = read_records_tsv(path)
    records = unpacked_records(packed)
    # A CRLF line is read as its LF twin; a punctuated name and a last line with no newline are not plain.
    assert checked == ["O'Brien", "LI"]
    assert [(r.surname, r.birth_date) for r in records] == [  # in group order
        ("LI", "19000101"), ("O'BRIEN", "19000000"), ("SMITH", "19000101"), ("Z" * 24, "99991231"),
    ]
