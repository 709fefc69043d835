"""Human-readable line-per-member index, found through an in-memory slot table.

Each line locates one record set in a companion library:

    <name> <key> <start> <count>[ <byte_length>]

The optional fifth field is the exact payload length; four-field lines (the
legacy format) are accepted and resolve to the full padded record set.

An index is constant once published: ``create`` writes a whole index under a
temp name in one write and one fsync, and only then links it to its own
name, so no reader sees a prefix, and a change is a new index, published by
rename. ``SerialIndex`` opens the file once and reads only through that fd,
and only the bytes the file held then, so an index renamed over its path is
not seen: the open index answers for the file it opened until it is closed.

The file stays the only copy of the entries. The first lookup reads it
twice: it counts the lines, sizes an open-addressed table of fixed-layout
words once, then fills it in one pass. A lookup probes the table and reads
only the lines its probe points at (normally exactly one, none for a miss),
then matches the name and key tokens of that line exactly, never by
substring, so "040" does not hit "0404". When a file holds the same (name,
key) twice, the first line wins.

``runs(name)`` gives the record runs of every line named ``name``. One pass
over the file on the first query builds the runs of all names, kept for the
life of the index.
"""

from __future__ import annotations

import os
import threading
from array import array
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

from .errors import NotFoundError
from .store import Closeable, IOCounters, RecordSetRef, publish_file

# A slot is one 64-bit word, tag | line offset | line length, zero when empty.
# Tag and home slot are disjoint bits of the per-process salted hash((name,
# key)), so keys sent from outside cannot be chosen to collide. A probe reads
# a line only on a tag match, 1 in 16M per word passed, so a miss reads none.
TAG_BITS = 24
OFFSET_BITS = 32  # so an index must stay under 4 GiB
LENGTH_BITS = 8
TAG_MASK = (1 << TAG_BITS) - 1
OFFSET_MASK = (1 << OFFSET_BITS) - 1
LONG_LINE = (1 << LENGTH_BITS) - 1  # length field of a line this long or longer
SLOTS_PER_ENTRY = 1.5  # a load sizes the table at this many slots per line
MIN_SLOTS = 8
BLOCK_BYTES = 1 << 16


def _check_token(field: str, value: str) -> None:
    if not value:
        raise ValueError(f"{field} must be non-empty")
    if not value.isascii() or value.split() != [value]:  # split() cuts at every isspace() character
        raise ValueError(f"{field} must be ASCII without whitespace: {value!r}")


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


def _hash(name: bytes, key: bytes) -> int:
    return hash((name, key))


def _word(h: int, offset: int, length: int) -> int:
    return ((h & TAG_MASK) << OFFSET_BITS | offset) << LENGTH_BITS | min(length, LONG_LINE)


def _insert(slots: array, h: int, word: int) -> None:
    n = len(slots)
    i = (h >> TAG_BITS) % n
    while slots[i]:
        i = i + 1 if i + 1 < n else 0
    slots[i] = word


def _count_lines(fd: int, size: int) -> int:
    """Lines in the first ``size`` bytes of ``fd``, an unterminated last one counted."""
    blocks = range(0, size, BLOCK_BYTES)
    lines = sum(os.pread(fd, min(BLOCK_BYTES, size - s), s).count(b"\n") for s in blocks)
    return lines + (size > 0 and os.pread(fd, 1, size - 1) != b"\n")


def _lines(fd: int, size: int) -> Iterator[bytes]:
    """Each line of the first ``size`` bytes of ``fd``, without its newline.

    Reads by ``pread`` in blocks, so the fd's position is never used and
    any number of readers may share it."""
    def blocks():
        rest = b""
        for start in range(0, size, BLOCK_BYTES):
            *lines, rest = (rest + os.pread(fd, min(BLOCK_BYTES, size - start), start)).split(b"\n")
            yield lines
        yield [rest] if rest else []

    return chain.from_iterable(blocks())


def _load(fd: int, size: int) -> array:
    """Count the lines, size the table for them, then one pass fills it."""
    slots = array("Q", [0]) * max(MIN_SLOTS, int(_count_lines(fd, size) * SLOTS_PER_ENTRY) + 1)
    offset = 0
    for line in _lines(fd, size):
        tokens = line.split(None, 2)
        if len(tokens) >= 2:
            h = _hash(tokens[0], tokens[1])
            _insert(slots, h, _word(h, offset, min(len(line) + 1, size - offset)))
        offset += len(line) + 1
    return slots


def _load_runs(fd: int, size: int) -> dict[str, tuple[tuple[int, int], ...]]:
    """Each name's (start, count) runs in line order; a line that follows on from its name's last run extends it."""
    runs: dict[str, list[list[int]]] = {}
    for line in _lines(fd, size):
        entry = SerialIndexEntry.parse(line.decode("ascii"))
        named = runs.setdefault(entry.name, [])
        if named and named[-1][0] + named[-1][1] == entry.start:
            named[-1][1] += entry.count
        elif entry.count:
            named.append([entry.start, entry.count])
    return {name: tuple(map(tuple, named)) for name, named in runs.items()}


class SerialIndex(Closeable):
    """A constant index file with flat, table-driven lookup.

    The file is opened at construction and closed by ``close``; every read
    goes through that fd and covers the bytes the file held at open. The
    slot table and the runs are each built once, on first use, and kept.
    ``counters`` counts the line reads made to answer lookups; the passes
    that build the table and the runs are not counted.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.counters = IOCounters()
        self._fd = os.open(self.path, os.O_RDONLY)
        self._size = os.fstat(self._fd).st_size
        if self._size >> OFFSET_BITS:
            self.close()
            raise ValueError(f"index {path} is {self._size} B, not under the {1 << OFFSET_BITS} B limit")
        self._slots: array | None = None
        self._runs: dict | None = None
        self._lock = threading.Lock()

    @classmethod
    def create(cls, path: str | Path, entries: Iterable[SerialIndexEntry] = ()) -> "SerialIndex":
        """Create the index holding ``entries``, in order, in one write and one fsync; fails if it exists.

        No (name, key) may repeat: this does not check, and a lookup finds the first."""
        publish_file(path, "".join(entry.line() for entry in entries).encode("ascii"))
        return cls(path)

    def _kept(self, attr: str, build):
        """``build(fd, size)``, made under the lock by the first caller and kept in ``attr``."""
        with self._lock:
            if getattr(self, attr) is None:
                setattr(self, attr, build(self._fd, self._size))
            return getattr(self, attr)

    def _read_line(self, offset: int, length: int) -> bytes:
        if length < LONG_LINE:
            line = os.pread(self._fd, length, offset)
            self.counters.reads += 1
            self.counters.bytes_read += len(line)
            return line
        data = b""
        while b"\n" not in data and offset + len(data) < self._size:
            chunk = os.pread(self._fd, min(4096, self._size - offset - len(data)), offset + len(data))
            self.counters.reads += 1
            self.counters.bytes_read += len(chunk)
            if not chunk:
                break
            data += chunk
        return data.split(b"\n", 1)[0]

    def lookup(self, name: str, key: str) -> SerialIndexEntry:
        """The first line whose name and key tokens both match exactly."""
        slots = self._slots
        if slots is None:
            slots = self._kept("_slots", _load)
        if name.isascii() and key.isascii():  # else no line of the ASCII file can match
            h = _hash(name.encode("ascii"), key.encode("ascii"))
            tag = h & TAG_MASK
            n = len(slots)
            i = (h >> TAG_BITS) % n
            while word := slots[i]:
                if word >> (OFFSET_BITS + LENGTH_BITS) == tag:
                    text = self._read_line(word >> LENGTH_BITS & OFFSET_MASK, word & LONG_LINE).decode("ascii")
                    tokens = text.split()
                    if len(tokens) >= 2 and tokens[0] == name and tokens[1] == key:
                        return SerialIndexEntry.parse(text)
                i = i + 1 if i + 1 < n else 0
        raise NotFoundError(f"no index entry for ({name}, {key})")

    def runs(self, name: str) -> tuple[tuple[int, int], ...]:
        """The (start, count) record runs of every line named ``name``, in file order.

        Adjacent lines are merged; a repeated line gives a run each time it
        appears. Raises NotFoundError if no line is named ``name``."""
        runs = self._runs
        if runs is None:
            runs = self._kept("_runs", _load_runs)
        found = runs.get(name)
        if found is None:
            raise NotFoundError(f"no index entry named {name!r}")
        return found

    def entries(self):
        """Yield all entries in file order."""
        for line in _lines(self._fd, self._size):
            yield SerialIndexEntry.parse(line.decode("ascii"))

    def entry_count(self) -> int:
        """Lines in the file, counted as the table build counts them, with no table built."""
        return _count_lines(self._fd, self._size)

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1
        self._slots = self._runs = None
