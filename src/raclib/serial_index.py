"""Human-readable line-per-member index, found through an in-memory offset table.

Each line locates one record set in a companion library:

    <name> <key> <start> <count>[ <byte_length>]

The optional fifth field is the exact payload length; four-field lines (the
legacy format) are accepted and resolve to the full padded record set.

The file stays the only copy of the entries. One pass over it builds an
open-addressed table of line offsets, kept until the file's size, mtime or
inode changes, so lines appended by another writer and an index replaced by
rename are seen by the next lookup. A lookup probes the table and reads only
the lines its probe points at (normally exactly one, none for a miss), then
matches the name and key tokens of that line exactly, never by substring, so
"040" does not hit "0404". When a file holds the same (name, key) twice, the
first line wins. Writers only append to an index or replace it by rename.
"""

from __future__ import annotations

import os
import threading
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import DuplicateKeyError, NotFoundError
from .store import Closeable, IOCounters, RecordSetRef

# A table slot is one 64-bit word: tag | line offset | line length, zero when
# empty. The tag is the low bits of the per-process salted hash((name, key)),
# so keys sent from outside cannot be chosen to collide, and it also picks
# the home slot (tag % len(slots)), so the table can be resized without
# reading the file again.
LENGTH_BITS = 8
LONG_LINE = (1 << LENGTH_BITS) - 1  # length field of a line this long or longer
# Slots per entry when a table is sized; an append that would leave fewer
# than MIN_SLOTS_PER_ENTRY doubles the table, so probe runs stay short.
SLOTS_PER_ENTRY = 1.5
MIN_SLOTS_PER_ENTRY = 1.25
MIN_SLOTS = 8
SAMPLE_BYTES = 1 << 16


def _check_token(field: str, value: str) -> None:
    if not value:
        raise ValueError(f"{field} must be non-empty")
    if any(c.isspace() for c in value):
        raise ValueError(f"{field} contains whitespace: {value!r}")


@dataclass(frozen=True)
class SerialIndexEntry:
    name: str
    key: str
    start: int
    count: int
    byte_length: int | None = None

    def __post_init__(self):
        _check_token("name", self.name)
        _check_token("key", self.key)
        if self.start < 0 or self.count < 0:
            raise ValueError(f"negative start/count: {self.start}/{self.count}")
        if self.byte_length is not None and self.byte_length < 0:
            raise ValueError(f"negative byte_length: {self.byte_length}")

    def line(self) -> str:
        fields = [self.name, self.key, str(self.start), str(self.count)]
        if self.byte_length is not None:
            fields.append(str(self.byte_length))
        return " ".join(fields) + "\n"

    @classmethod
    def parse(cls, line: str) -> "SerialIndexEntry":
        tokens = line.split()
        if len(tokens) not in (4, 5):
            raise ValueError(f"index line must have 4 or 5 fields: {line!r}")
        byte_length = int(tokens[4]) if len(tokens) == 5 else None
        return cls(tokens[0], tokens[1], int(tokens[2]), int(tokens[3]), byte_length)

    def to_ref(self, record_size: int) -> RecordSetRef:
        """Resolve to a record-set ref; legacy 4-field entries cover whole records."""
        byte_length = self.byte_length
        if byte_length is None:
            byte_length = self.count * record_size
        return RecordSetRef(start=self.start, count=self.count, byte_length=byte_length)


class _OpenFile:
    """A read-only fd, closed when the last table that reads through it is dropped.

    Tables are replaced while other threads may still be reading through the
    old one, so the fd is never closed explicitly.
    """

    __slots__ = ("fd",)

    def __init__(self, fd: int):
        self.fd = fd

    def __del__(self, _close=os.close):
        _close(self.fd)


class _Table(NamedTuple):
    """One published view of the index file; replaced whole, never edited,
    except that ``append`` may fill an empty slot of ``slots`` in place."""

    file: _OpenFile
    signature: tuple[int, int, int]  # (st_size, st_mtime_ns, st_ino) the table covers
    slots: array
    offset_bits: int
    lines: int
    entries: int


def _tag(name: bytes, key: bytes, offset_bits: int) -> int:
    return hash((name, key)) & ((1 << (64 - LENGTH_BITS - offset_bits)) - 1)


def _word(tag: int, offset: int, length: int, offset_bits: int) -> int:
    return tag << (offset_bits + LENGTH_BITS) | offset << LENGTH_BITS | min(length, LONG_LINE)


def file_signature(st: os.stat_result) -> tuple[int, int, int]:
    return st.st_size, st.st_mtime_ns, st.st_ino


def _offset_bits(end: int) -> int:
    """Offset field width for a file of ``end`` bytes, with room to double."""
    return max(2 * end, 1 << 12).bit_length()


def _slot_count(entries: int) -> int:
    return max(MIN_SLOTS, int(entries * SLOTS_PER_ENTRY) + 1)


def _insert(slots: array, home: int, word: int) -> None:
    n = len(slots)
    i = home % n
    while slots[i]:
        i = i + 1 if i + 1 < n else 0
    slots[i] = word


def _rehashed(slots: array, old_bits: int, nslots: int, offset_bits: int) -> array:
    """The same words in ``nslots`` slots with ``offset_bits``-wide offsets.

    Walking from an empty slot visits every probe run in probe order, so
    entries that share a tag keep their order and the first line still wins.
    """
    old_shift = old_bits + LENGTH_BITS
    shift = offset_bits + LENGTH_BITS
    tag_mask = (1 << (64 - shift)) - 1
    low_mask = (1 << old_shift) - 1
    new = array("Q", [0]) * nslots
    n = len(slots)
    empty = slots.index(0)
    for j in range(empty + 1, empty + 1 + n):
        word = slots[j % n]
        if word:
            tag = (word >> old_shift) & tag_mask
            _insert(new, tag, tag << shift | word & low_mask)
    return new


def _with_room(slots: array, entries: int, offset_bits: int, end: int) -> tuple[array, int]:
    """Slots and offset width that take one more entry in a file of ``end`` bytes."""
    grow = (entries + 1) * MIN_SLOTS_PER_ENTRY > len(slots)
    if grow or end >> offset_bits:
        new_bits = max(offset_bits, _offset_bits(end))
        slots = _rehashed(slots, offset_bits, len(slots) * (2 if grow else 1), new_bits)
        offset_bits = new_bits
    return slots, offset_bits


def _load(path: Path) -> _Table:
    """One pass over the file: the offset, length and tag of every line."""
    fd = os.open(path, os.O_RDONLY)
    file = _OpenFile(fd)
    signature = file_signature(os.fstat(fd))
    size = signature[0]
    offset_bits = _offset_bits(size)
    entries = lines = offset = 0
    with open(fd, "rb", buffering=SAMPLE_BYTES, closefd=False) as f:
        # Size the table from the line density of the first block, so no
        # list of all entries is held while the file is read.
        sample = f.peek(SAMPLE_BYTES)
        slots = array("Q", [0]) * _slot_count(size * sample.count(b"\n") // max(len(sample), 1))
        for line in f:
            if offset >= size:
                break  # appended after the signature was taken
            tokens = line.split(None, 2)
            if len(tokens) >= 2:
                slots, _ = _with_room(slots, entries, offset_bits, size)
                tag = _tag(tokens[0], tokens[1], offset_bits)
                _insert(slots, tag, _word(tag, offset, min(len(line), size - offset), offset_bits))
                entries += 1
            lines += 1
            offset += len(line)
    return _Table(file, signature, slots, offset_bits, lines, entries)


class SerialIndex(Closeable):
    """Append-only index file with flat, table-driven lookup.

    ``counters`` counts the line reads made to answer lookups and append's
    duplicate check; the one pass that builds the table is not counted.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.counters = IOCounters()
        self._table: _Table | None = None
        self._lock = threading.Lock()
        self._appender = None

    @classmethod
    def create(cls, path: str | Path) -> "SerialIndex":
        path = Path(path)
        if path.exists():
            raise FileExistsError(f"index already exists: {path}")
        path.touch()
        return cls(path)

    def _fresh(self) -> _Table:
        """The table for the file as it is now; the caller holds the lock."""
        table = self._table
        if table is None or table.signature != file_signature(os.stat(self.path)):
            table = self._table = _load(self.path)
        return table

    def _view(self) -> _Table:
        table = self._table
        if table is None or table.signature != file_signature(os.stat(self.path)):
            with self._lock:
                table = self._fresh()
        return table

    def _read_line(self, table: _Table, offset: int, length: int) -> bytes:
        if length < LONG_LINE:
            line = os.pread(table.file.fd, length, offset)
            self.counters.reads += 1
            self.counters.bytes_read += len(line)
            return line
        data = b""
        while b"\n" not in data:
            chunk = os.pread(table.file.fd, 4096, offset + len(data))
            self.counters.reads += 1
            self.counters.bytes_read += len(chunk)
            if not chunk:
                break
            data += chunk
        return data.split(b"\n", 1)[0]

    def _find(self, table: _Table, name: str, key: str) -> SerialIndexEntry | None:
        try:
            tag = _tag(name.encode("ascii"), key.encode("ascii"), table.offset_bits)
        except UnicodeEncodeError:
            return None  # the file is ASCII, so no line can match
        slots = table.slots
        n = len(slots)
        shift = table.offset_bits + LENGTH_BITS
        offset_mask = (1 << table.offset_bits) - 1
        i = tag % n
        while True:
            word = slots[i]
            if not word:
                return None
            if word >> shift == tag:
                line = self._read_line(table, word >> LENGTH_BITS & offset_mask, word & LONG_LINE)
                text = line.decode("ascii")
                tokens = text.split()
                if len(tokens) >= 2 and tokens[0] == name and tokens[1] == key:
                    return SerialIndexEntry.parse(text)
            i = i + 1 if i + 1 < n else 0

    def append(self, entry: SerialIndexEntry) -> None:
        line = entry.line()
        with self._lock:
            table = self._fresh()
            if self._find(table, entry.name, entry.key) is not None:
                raise DuplicateKeyError(f"duplicate index entry ({entry.name}, {entry.key})")
            if self._appender is None:
                self._appender = open(self.path, "a", encoding="ascii")
            # One write call per line, so concurrent readers never see a torn line.
            self._appender.write(line)
            self._appender.flush()
            offset = table.signature[0]
            signature = file_signature(os.fstat(self._appender.fileno()))
            if signature[0] != offset + len(line) or signature[2] != table.signature[2]:
                return  # another writer got in between; the next lookup reloads
            slots, offset_bits = _with_room(table.slots, table.entries, table.offset_bits, signature[0])
            tag = _tag(entry.name.encode("ascii"), entry.key.encode("ascii"), offset_bits)
            _insert(slots, tag, _word(tag, offset, len(line), offset_bits))
            self._table = table._replace(
                signature=signature, slots=slots, offset_bits=offset_bits,
                lines=table.lines + 1, entries=table.entries + 1,
            )

    def lookup(self, name: str, key: str) -> SerialIndexEntry:
        """The first line whose name and key tokens both match exactly."""
        entry = self._find(self._view(), name, key)
        if entry is None:
            raise NotFoundError(f"no index entry for ({name}, {key})")
        return entry

    def entries(self):
        """Yield all entries in file (append) order."""
        with open(self.path, "r", encoding="ascii") as f:
            for line in f:
                yield SerialIndexEntry.parse(line)

    def entry_count(self) -> int:
        """Lines in the file, counted by the pass that builds the table."""
        return self._view().lines

    def close_appender(self) -> None:
        """Close the append handle and keep the table; a later append reopens it."""
        with self._lock:
            if self._appender is not None:
                self._appender.close()
                self._appender = None

    def close(self) -> None:
        self.close_appender()
        # The fd closes once no lookup still holds the table.
        self._table = None
