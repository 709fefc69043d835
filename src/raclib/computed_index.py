"""Arithmetically addressed group index over three key letters.

Records grouped by (first surname letter, second surname letter, first
given-name letter) fall into 26**3 = 17,576 groups. The index holds one
fixed-width entry per group at byte offset ``ordinal * 20``, so a single
positioned read finds any group without scanning. The index file is itself
a record library: 17,576 twenty-byte ASCII records, no header.

Entry layout: ten-digit start, space, eight-digit count, newline.
"""

from __future__ import annotations

import os
import string
from dataclasses import dataclass
from pathlib import Path

from .store import Closeable, IOCounters, _pread_all, _pwrite_all

ALPHABET_SIZE = 26
GROUP_COUNT = ALPHABET_SIZE**3  # 17576
ENTRY_WIDTH = 20
INDEX_FILE_SIZE = GROUP_COUNT * ENTRY_WIDTH  # 351,520 bytes

_MAX_START = 10**10 - 1
_MAX_COUNT = 10**8 - 1


def letters_only(text: str) -> str:
    """Uppercase ASCII letters of ``text``; everything else is discarded."""
    return "".join(c.upper() for c in text if c in string.ascii_letters)


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
    s = letters_only(surname)
    g = letters_only(given)
    return TrigramKey(
        c1=ord(s[0]) - ord("A") if len(s) > 0 else 0,
        c2=ord(s[1]) - ord("A") if len(s) > 1 else 0,
        c3=ord(g[0]) - ord("A") if g else 0,
    )


def key_ordinal(key: TrigramKey) -> int:
    """Index record number for a key: c3 + 26*c2 + 676*c1."""
    return key.c3 + ALPHABET_SIZE * key.c2 + ALPHABET_SIZE**2 * key.c1


class ComputedIndex(Closeable):
    """Fixed-geometry group index file with one-seek entry access."""

    def __init__(self, path: Path, fd: int):
        self.path = path
        self._fd = fd
        self.counters = IOCounters()

    @classmethod
    def create(cls, path: str | Path) -> "ComputedIndex":
        path = Path(path)
        fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o644)
        _pwrite_all(fd, GroupEntry(0, 0).pack() * GROUP_COUNT, 0)
        return cls(path, fd)

    @classmethod
    def open(cls, path: str | Path) -> "ComputedIndex":
        path = Path(path)
        fd = os.open(path, os.O_RDWR)
        size = os.fstat(fd).st_size
        if size != INDEX_FILE_SIZE:
            os.close(fd)
            raise ValueError(f"computed index {path} is {size} bytes, expected {INDEX_FILE_SIZE}")
        return cls(path, fd)

    def _check_ordinal(self, ordinal: int) -> None:
        if not 0 <= ordinal < GROUP_COUNT:
            raise IndexError(f"group ordinal out of range: {ordinal}")

    def write_group_entry(self, ordinal: int, entry: GroupEntry) -> None:
        self._check_ordinal(ordinal)
        _pwrite_all(self._fd, entry.pack(), ordinal * ENTRY_WIDTH)

    def read_group_entry(self, ordinal: int) -> GroupEntry:
        """Fetch one entry with a single positioned read; no scan."""
        self._check_ordinal(ordinal)
        raw = _pread_all(self._fd, ENTRY_WIDTH, ordinal * ENTRY_WIDTH)
        self.counters.reads += 1
        self.counters.bytes_read += len(raw)
        return GroupEntry.unpack(raw)

    def write_all(self, entries: list[GroupEntry]) -> None:
        """Replace every entry in ordinal order (single write; for builds)."""
        if len(entries) != GROUP_COUNT:
            raise ValueError(f"expected {GROUP_COUNT} entries, got {len(entries)}")
        _pwrite_all(self._fd, b"".join(e.pack() for e in entries), 0)

    def read_all(self) -> list[GroupEntry]:
        """All entries in ordinal order (one full-file read; for builds and audits)."""
        raw = _pread_all(self._fd, INDEX_FILE_SIZE, 0)
        self.counters.reads += 1
        self.counters.bytes_read += len(raw)
        return [
            GroupEntry.unpack(raw[i * ENTRY_WIDTH : (i + 1) * ENTRY_WIDTH])
            for i in range(GROUP_COUNT)
        ]

    def sync(self) -> None:
        os.fsync(self._fd)

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1
