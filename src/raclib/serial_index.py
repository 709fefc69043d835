"""Human-readable line-per-member index, found through an in-memory slot table.

Each line locates one record set in a companion library:

    <name> <key> <start> <count>[ <byte_length>]

The optional fifth field is the exact payload length; four-field lines (the
legacy format) are accepted and resolve to the full padded record set.

The file stays the only copy of the entries. A load reads it twice: it
counts the lines, sizes an open-addressed table of fixed-layout words once,
then fills it in one pass. The table is kept until the file's size, mtime or
inode changes, so lines appended by another writer and an index replaced by
rename are seen by the next lookup. A lookup probes the table and reads only
the lines its probe points at (normally exactly one, none for a miss), then
matches the name and key tokens of that line exactly, never by substring, so
"040" does not hit "0404". When a file holds the same (name, key) twice, the
first line wins. Writers only append to an index or replace it by rename:
``create`` writes a whole index in one write and one fsync, and ``append``
one line, which it adds to the table in place while the table is under
MAX_FILL; past that the next lookup reloads, once per ~20% growth, so O(1)
per append amortised.

``runs(name)`` gives the record runs of every line named ``name``. One pass
over the table's bytes builds the runs of all names, kept until the table's
signature changes, so a query sees appends and renames as a lookup does.
"""

from __future__ import annotations

import os
import threading
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import DuplicateKeyError, NotFoundError
from .store import Closeable, IOCounters, RecordSetRef, _pread_all

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
MAX_FILL = 0.8  # an append fills a slot in place only below this share of slots
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
    lines: int
    unterminated: bool  # the last line has no newline


def _hash(name: bytes, key: bytes) -> int:
    return hash((name, key))


def _word(h: int, offset: int, length: int) -> int:
    return ((h & TAG_MASK) << OFFSET_BITS | offset) << LENGTH_BITS | min(length, LONG_LINE)


def file_signature(st: os.stat_result) -> tuple[int, int, int]:
    return st.st_size, st.st_mtime_ns, st.st_ino


def _insert(slots: array, h: int, word: int) -> None:
    n = len(slots)
    i = (h >> TAG_BITS) % n
    while slots[i]:
        i = i + 1 if i + 1 < n else 0
    slots[i] = word


def _load(path: Path) -> _Table:
    """Count the lines, size the table for them, then one pass fills it."""
    fd = os.open(path, os.O_RDONLY)
    file = _OpenFile(fd)
    signature = file_signature(os.fstat(fd))
    size = signature[0]
    if size >> OFFSET_BITS:
        raise ValueError(f"index {path} is {size} B, not under the {1 << OFFSET_BITS} B limit")
    unterminated = size > 0 and os.pread(fd, 1, size - 1) != b"\n"
    blocks = range(0, size, BLOCK_BYTES)
    lines = unterminated + sum(os.pread(fd, min(BLOCK_BYTES, size - s), s).count(b"\n") for s in blocks)
    slots = array("Q", [0]) * max(MIN_SLOTS, int(lines * SLOTS_PER_ENTRY) + 1)
    offset = 0
    with open(fd, "rb", buffering=BLOCK_BYTES, closefd=False) as f:
        for line in f:
            if offset >= size:
                break  # appended after the signature was taken
            tokens = line.split(None, 2)
            if len(tokens) >= 2:
                h = _hash(tokens[0], tokens[1])
                _insert(slots, h, _word(h, offset, min(len(line), size - offset)))
            offset += len(line)
    return _Table(file, signature, slots, lines, unterminated)


def _load_runs(table: _Table) -> dict[str, tuple[tuple[int, int], ...]]:
    """Each name's (start, count) runs in line order; a line that follows on from its name's last run extends it."""
    runs: dict[str, list[list[int]]] = {}
    for line in _pread_all(table.file.fd, table.signature[0], 0).decode("ascii").splitlines():
        entry = SerialIndexEntry.parse(line)
        named = runs.setdefault(entry.name, [])
        if named and named[-1][0] + named[-1][1] == entry.start:
            named[-1][1] += entry.count
        elif entry.count:
            named.append([entry.start, entry.count])
    return {name: tuple(map(tuple, named)) for name, named in runs.items()}


class SerialIndex(Closeable):
    """Append-only index file with flat, table-driven lookup.

    ``counters`` counts the line reads made to answer lookups and append's
    duplicate check; the passes that load the table are not counted.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.counters = IOCounters()
        self._table: _Table | None = None
        self._runs: tuple[tuple[int, int, int], dict] | None = None  # (table signature, _load_runs of it)
        self._lock = threading.Lock()

    @classmethod
    def create(cls, path: str | Path, entries: Iterable[SerialIndexEntry] = ()) -> "SerialIndex":
        """Create the index holding ``entries``, in order, in one write and one fsync; fails if it exists.

        No (name, key) may repeat: unlike ``append``, this does not check."""
        with open(path, "xb") as f:
            f.write("".join(entry.line() for entry in entries).encode("ascii"))
            f.flush()
            os.fsync(f.fileno())
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
            h = _hash(name.encode("ascii"), key.encode("ascii"))
        except UnicodeEncodeError:
            return None  # the file is ASCII, so no line can match
        tag = h & TAG_MASK
        slots = table.slots
        n = len(slots)
        i = (h >> TAG_BITS) % n
        while True:
            word = slots[i]
            if not word:
                return None
            if word >> (OFFSET_BITS + LENGTH_BITS) == tag:
                line = self._read_line(table, word >> LENGTH_BITS & OFFSET_MASK, word & LONG_LINE)
                text = line.decode("ascii")
                tokens = text.split()
                if len(tokens) >= 2 and tokens[0] == name and tokens[1] == key:
                    return SerialIndexEntry.parse(text)
            i = i + 1 if i + 1 < n else 0

    def append(self, entry: SerialIndexEntry) -> None:
        line = entry.line().encode("ascii")
        with self._lock:
            table = self._fresh()
            if self._find(table, entry.name, entry.key) is not None:
                raise DuplicateKeyError(f"duplicate index entry ({entry.name}, {entry.key})")
            # A last line without a newline is ended first, in the same write.
            data = b"\n" + line if table.unterminated else line
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
            try:
                os.write(fd, data)  # one write per line, so readers never see a torn line
                signature = file_signature(os.fstat(fd))
            finally:
                os.close(fd)
            end = table.signature[0] + len(data)
            raced = signature[0] != end or signature[2] != table.signature[2]  # another writer got in
            if raced or table.lines + 1 > MAX_FILL * len(table.slots) or end >> OFFSET_BITS:
                return  # the table no longer matches the file, so the next lookup reloads
            h = _hash(entry.name.encode("ascii"), entry.key.encode("ascii"))
            _insert(table.slots, h, _word(h, end - len(line), len(line)))
            self._table = table._replace(signature=signature, lines=table.lines + 1, unterminated=False)

    def lookup(self, name: str, key: str) -> SerialIndexEntry:
        """The first line whose name and key tokens both match exactly."""
        entry = self._find(self._view(), name, key)
        if entry is None:
            raise NotFoundError(f"no index entry for ({name}, {key})")
        return entry

    def runs(self, name: str) -> tuple[tuple[int, int], ...]:
        """The (start, count) record runs of every line named ``name``, in file order.

        Adjacent lines are merged; a repeated line gives a run each time it
        appears. Raises NotFoundError if no line is named ``name``."""
        with self._lock:
            table = self._fresh()
            runs = self._runs
            if runs is None or runs[0] != table.signature:
                runs = self._runs = (table.signature, _load_runs(table))
        found = runs[1].get(name)
        if found is None:
            raise NotFoundError(f"no index entry named {name!r}")
        return found

    def entries(self):
        """Yield all entries in file (append) order."""
        with open(self.path, "r", encoding="ascii") as f:
            for line in f:
                yield SerialIndexEntry.parse(line)

    def entry_count(self) -> int:
        """Lines in the file, counted by the load."""
        return self._view().lines

    def close(self) -> None:
        # The fd closes once no lookup still holds the table.
        self._table = self._runs = None
