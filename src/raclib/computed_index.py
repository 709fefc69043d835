"""Arithmetically addressed group index over three key letters.

Records grouped by (first surname letter, second surname letter, first
given-name letter) fall into 26**3 = 17,576 groups. The index holds one
fixed-width entry per group at byte offset ``ordinal * 20``, so a single
positioned read finds any group without scanning. The index file is itself
a record library: 17,576 twenty-byte ASCII records, no header. It is never
written in place: every handle reads it through a read-only fd, and a new
index is published whole by rename, unseen by the handles already open.

Entry layout: ten-digit start, space, eight-digit count, newline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .store import Closeable, RecordStore, _fsync_dir, publish_file

ALPHABET_SIZE = 26
GROUP_COUNT = ALPHABET_SIZE**3  # 17576
ENTRY_WIDTH = 20
INDEX_FILE_SIZE = GROUP_COUNT * ENTRY_WIDTH  # 351,520 bytes

_MAX_START = 10**10 - 1
_MAX_COUNT = 10**8 - 1

_NON_LETTERS = re.compile(r"[^A-Za-z]+")


def letters_only(text: str) -> str:
    """Uppercase ASCII letters of ``text``; everything else is discarded."""
    return _NON_LETTERS.sub("", text).upper()


@dataclass(frozen=True)
class TrigramKey:
    c1: int  # first surname letter, A=0 .. Z=25
    c2: int  # second surname letter
    c3: int  # first given-name letter

    def __post_init__(self):
        for ordinal in (self.c1, self.c2, self.c3):
            if not 0 <= ordinal < ALPHABET_SIZE:
                raise ValueError(f"key letter ordinal out of range: {ordinal}")


@dataclass(frozen=True)
class GroupEntry:
    start: int
    count: int

    def __post_init__(self):
        if not 0 <= self.start <= _MAX_START:
            raise ValueError(f"group start out of range: {self.start}")
        if not 0 <= self.count <= _MAX_COUNT:
            raise ValueError(f"group count out of range: {self.count}")

    def pack(self) -> bytes:
        return f"{self.start:010d} {self.count:08d}\n".encode("ascii")

    @classmethod
    def unpack(cls, raw: bytes) -> "GroupEntry":
        if len(raw) != ENTRY_WIDTH or raw[10:11] != b" " or raw[19:20] != b"\n":
            raise ValueError(f"malformed group entry: {raw!r}")
        try:
            return cls(start=int(raw[:10]), count=int(raw[11:19]))
        except ValueError:
            raise ValueError(f"malformed group entry: {raw!r}") from None


def trigram_of(surname: str, given: str) -> TrigramKey:
    """Key letters of a name; missing positions map to ordinal 0 ('A')."""
    c1, rest = divmod(name_ordinal(surname, given), ALPHABET_SIZE**2)
    return TrigramKey(c1, *divmod(rest, ALPHABET_SIZE))


def key_ordinal(key: TrigramKey) -> int:
    """Index record number for a key: c3 + 26*c2 + 676*c1."""
    return key.c3 + ALPHABET_SIZE * key.c2 + ALPHABET_SIZE**2 * key.c1


def name_ordinal(surname: str, given: str) -> int:
    """``key_ordinal(trigram_of(surname, given))``, with no key built on the way."""
    s = letters_only(surname)
    g = letters_only(given)
    c1 = ord(s[0]) - 65 if s else 0
    c2 = ord(s[1]) - 65 if len(s) > 1 else 0
    c3 = ord(g[0]) - 65 if g else 0
    return c3 + ALPHABET_SIZE * c2 + ALPHABET_SIZE**2 * c1


def pack_entries(entries: Iterable[GroupEntry]) -> bytearray:
    """The index file's bytes: one packed entry per group, in ordinal order.

    Entries are packed one at a time as they are drawn, so a generator of
    entries never has more than one alive.
    """
    packed = bytearray()
    for entry in entries:
        packed += entry.pack()
    if len(packed) != INDEX_FILE_SIZE:
        raise ValueError(f"expected {GROUP_COUNT} entries, got {len(packed) // ENTRY_WIDTH}")
    return packed


def pack_tiling(counts: Iterable[int]) -> bytearray:
    """``pack_entries`` of one entry per group count, each group starting where the one before ends."""
    packed = bytearray()
    start = 0
    for count in counts:
        if not (0 <= count <= _MAX_COUNT and start <= _MAX_START):
            GroupEntry(start, count)  # raises, naming the value out of range
        packed += b"%010d %08d\n" % (start, count)
        start += count
    if len(packed) != INDEX_FILE_SIZE:
        raise ValueError(f"expected {GROUP_COUNT} entries, got {len(packed) // ENTRY_WIDTH}")
    return packed


class ComputedIndex(Closeable):
    """A codec over one fixed-geometry, read-only record store."""

    def __init__(self, records: RecordStore):
        self.records = records
        self.path = records.path
        self.counters = records.counters

    @classmethod
    def create(cls, path: str | Path, entries: Iterable[GroupEntry] | None = None) -> "ComputedIndex":
        """Create the index holding ``entries`` (every group empty if omitted) in one write and one fsync."""
        records = GroupEntry(0, 0).pack() * GROUP_COUNT if entries is None else pack_entries(entries)
        return cls.create_packed(path, records)

    @classmethod
    def create_packed(cls, path: str | Path, records) -> "ComputedIndex":
        """Create the index from the bytes ``pack_entries`` or ``pack_tiling`` returned, in one write and one fsync."""
        if len(records) != INDEX_FILE_SIZE:
            raise ValueError(f"an index is {INDEX_FILE_SIZE} bytes, got {len(records)}")
        return cls(RecordStore.create_fixed(path, ENTRY_WIDTH, records))

    @classmethod
    def open(cls, path: str | Path) -> "ComputedIndex":
        return cls(RecordStore.open_fixed(path, ENTRY_WIDTH, GROUP_COUNT))

    def read_group_entry(self, ordinal: int) -> GroupEntry:
        """Fetch one entry with a single positioned read; no scan."""
        return GroupEntry.unpack(self.records.read_records(ordinal, 1))

    def write_all(self, entries: Iterable[GroupEntry]) -> None:
        """Publish a new index of ``entries`` at this one's path, fsync'd, by rename, and read it from now on."""
        publish_file(self.path, pack_entries(entries), replace=True)
        self.records.close()
        self.records = RecordStore.open_fixed(self.path, ENTRY_WIDTH, GROUP_COUNT)
        self.counters = self.records.counters

    def read_all(self) -> list[GroupEntry]:
        """All entries in ordinal order (one full-file read; for builds and audits)."""
        raw = self.records.read_records(0, GROUP_COUNT)
        return [GroupEntry.unpack(raw[i : i + ENTRY_WIDTH]) for i in range(0, INDEX_FILE_SIZE, ENTRY_WIDTH)]

    def sync(self) -> None:
        """Fsync the index's directory, so that the rename of the last ``write_all`` survives a crash."""
        _fsync_dir(self.path.parent)

    def close(self) -> None:
        self.records.close()
