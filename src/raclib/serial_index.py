"""Human-readable line-per-member index, found through an in-memory bucketed table.

Each line locates one record set in a companion library:

    <name> <key> <start> <count>[ <byte_length>]

The optional fifth field is the exact payload length; four-field lines (the
legacy format) are accepted and resolve to the full padded record set.

An index is constant once published: ``create`` writes a whole index under a
temp name in one write and one fsync, and only then links it to its own
name, so no reader sees a prefix, and a change is a new index, published by
rename. ``SerialIndex`` reads the file through one sidecar-less
``RecordStore`` of 1-byte records, opened once and covering the file's size
at open, so an index renamed over its path is not seen: the open index
answers for the file it opened until it is closed.

The file stays the only copy of the entries. Its lookup table, a directory of
buckets over one fixed-layout word per line, is derived data, kept beside it in
``<index>.slots`` (about 8.5 B per line) so that it is built once per file, not
once per process. The words of that file are the table's only encoding: a
lookup uses them in place, whether they were read or just built. A handle's
first lookup reads the slot file in one uncounted read, if the file is whole
(its checksum matches) and was made for the bytes this handle reads: the same
inode, size, mtime and ctime. Otherwise it reads the index three times, to
count its lines, which sizes the directory, then each bucket's, then to place
each word in one array sized once, and publishes the words for the next handle,
by rename and without fsync, since after a crash the checksum refuses a torn
file. Where the slot file cannot be written (a read-only directory, a full
quota), the words are kept in memory only. A lookup scans its bucket's words,
about 16, in file order, and reads only the lines whose tag matches (normally
exactly one, none for a miss), each in one store read of exactly its bytes,
whatever its length, then matches the name and key tokens of that line exactly,
never by substring, so "040" does not hit "0404". When a file holds the same
(name, key) twice, the first line wins.
"""

from __future__ import annotations

import logging
import os
import sys
import threading
from _blake2 import blake2b  # hashlib.blake2b, without the OpenSSL that importing hashlib maps: 0.6 MB of RSS
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain
from pathlib import Path
from typing import Iterable, Iterator

from .errors import NotFoundError
from .store import Closeable, RecordSetRef, RecordStore, publish_file

logger = logging.getLogger(__name__)

# Each line of two or more tokens has one 64-bit word, tag | line offset | line
# tail. The top bits of a 64-bit BLAKE2b of "name key", keyed by the table's
# random salt so that keys sent from outside cannot be chosen to collide,
# choose its bucket, and the next TAG_BITS are its tag. A lookup reads a line
# only on a tag match, 1 in 16M per word scanned, so a miss reads none. The
# tail is the line's length less its first two tokens and two separators, so a
# hit on (name, key) reads exactly its line: len(name) + len(key) + 2 + tail
# bytes. A line with over MAX_TAIL bytes after its key (only zero-padded
# numbers or runs of blanks make one) fails its own lookup.
TAG_BITS = 24
OFFSET_BITS = 32  # so an index must stay under 4 GiB
TAIL_BITS = 8
TAG_MASK = (1 << TAG_BITS) - 1
OFFSET_MASK = (1 << OFFSET_BITS) - 1
MAX_TAIL = (1 << TAIL_BITS) - 1
BLOCK_BYTES = 1 << 14  # a build pass holds one block's lines at a time: a few hundred, not thousands

# <index>.slots is native 64-bit words, the only encoding of the table: the
# magic, which carries the format version and byte order, with the 16-byte
# salt (3 words); the index's stamp, as _stamp gives it (4); the bucket count
# B (1); the directory (B + 1): bucket b is words[dir[b]:dir[b + 1]] of the
# words after it, in file order; a checksum of every word before it.
SLOTS_SUFFIX = ".slots"
SLOTS_MAGIC = b"RACSLT4" + sys.byteorder[0].upper().encode("ascii")
SALT_BYTES = 16
HEADER_WORDS = 8


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
        if not all(number.isascii() and number.isdigit() for number in tokens[2:]):  # int() would take "+3", "1_0"
            raise ValueError(f"index line numbers must be digits 0-9: {line!r}")
        byte_length = int(tokens[4]) if len(tokens) == 5 else None
        return cls(tokens[0], tokens[1], int(tokens[2]), int(tokens[3]), byte_length)

    def to_ref(self, record_size: int) -> RecordSetRef:
        """Resolve to a record-set ref; legacy 4-field entries cover whole records."""
        byte_length = self.byte_length
        if byte_length is None:
            byte_length = self.count * record_size
        return RecordSetRef(start=self.start, count=self.count, byte_length=byte_length)


def _hash(salt: bytes, name: bytes, key: bytes) -> int:
    # The same in every process; no token holds a space, so "name key" is unambiguous.
    return int.from_bytes(blake2b(name + b" " + key, digest_size=8, key=salt).digest(), "little")


def _place(h: int, buckets: int) -> tuple[int, int]:
    """The bucket of hash ``h`` among ``buckets``, from its top bits, and its tag, from the next TAG_BITS."""
    return h * buckets >> 64, h * buckets >> 64 - TAG_BITS & TAG_MASK


def _checksum(data) -> int:
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "little")


def _count_lines(records: RecordStore, size: int) -> int:
    """Lines in the first ``size`` bytes of ``records``, an unterminated last one counted."""
    blocks = range(0, size, BLOCK_BYTES)
    lines = sum(records.read_block(s, min(BLOCK_BYTES, size - s)).count(b"\n") for s in blocks)
    return lines + (size > 0 and records.read_block(size - 1, 1) != b"\n")


def _lines(records: RecordStore, size: int) -> Iterator[bytes]:
    """Each line of the first ``size`` bytes of ``records``, without its newline, read in uncounted blocks."""
    def blocks():
        rest = b""
        for start in range(0, size, BLOCK_BYTES):
            *lines, rest = (rest + records.read_block(start, min(BLOCK_BYTES, size - start))).split(b"\n")
            yield lines
        yield [rest] if rest else []

    return chain.from_iterable(blocks())


def _placed(records: RecordStore, size: int, salt: bytes, buckets: int) -> Iterator[tuple[int, int]]:
    """The bucket and word of each line of two or more tokens in the first ``size`` bytes of ``records``."""
    offset = 0
    for line in _lines(records, size):
        tokens = line.split(None, 2)
        if len(tokens) >= 2:
            bucket, tag = _place(_hash(salt, tokens[0], tokens[1]), buckets)
            tail = min(len(line) + 1, size - offset) - len(tokens[0]) - len(tokens[1]) - 2
            yield bucket, (tag << OFFSET_BITS | offset) << TAIL_BITS | min(max(tail, 0), MAX_TAIL)
        offset += len(line) + 1


def _load(records: RecordStore, size: int) -> array:
    """The words of the slot file of the first ``size`` bytes of ``records``, built in one array: the line
    count sizes the directory, a pass under a new salt counts each bucket's words, then a second places them."""
    stamp = _stamp(records, size)  # taken before the passes, so a file changed during them gets a stale stamp
    buckets = 1 << (_count_lines(records, size) // 16).bit_length()  # a power of two: 8 to 16 lines a bucket
    salt = os.urandom(SALT_BYTES)
    starts = array("Q", [0]) * (buckets + 1)
    for bucket, _ in _placed(records, size, salt, buckets):
        starts[bucket + 1] += 1
    starts = array("Q", accumulate(starts))  # the directory, then each bucket's next free word
    words = array("Q", [0]) * (HEADER_WORDS + buckets + 1 + starts[-1] + 1)
    words[:HEADER_WORDS + buckets + 1] = array("Q", SLOTS_MAGIC + salt) + array("Q", (*stamp, buckets)) + starts
    slots = memoryview(words)[HEADER_WORDS + buckets + 1:-1]
    for bucket, word in _placed(records, size, salt, buckets):
        slots[starts[bucket]] = word
        starts[bucket] += 1
    words[-1] = _checksum(memoryview(words)[:-1])
    return words


def slots_path(index_path: Path) -> Path:
    """Where the slot table of the index at ``index_path`` is kept."""
    return index_path.with_name(index_path.name + SLOTS_SUFFIX)


def _stamp(records: RecordStore, size: int) -> tuple[int, ...]:
    """The stamp of the first ``size`` bytes of the file ``records`` reads: its inode, ``size``, mtime, ctime.

    ``size`` stands in for st_size, so a table built by a handle opened before the file grew in place is not
    taken for the longer file's. No device: each host numbers its own mounts, and the slot file is beside its
    index, on its filesystem."""
    st = records.fstat()
    return tuple(v % (1 << 64) for v in (st.st_ino, size, st.st_mtime_ns, st.st_ctime_ns))


def _read_slots(path: Path, stamp: tuple[int, ...]) -> memoryview | None:
    """The words of the slot file at ``path``, as read, if the file is whole and has ``stamp``; else None."""
    try:
        with RecordStore.open_fixed(path, 8) as store:
            data = store.read_block(0, store.record_count)  # one read, uncounted as the build passes are
    except (OSError, ValueError):  # missing, or not whole words
        return None
    words = memoryview(data).cast("Q")
    if len(words) <= HEADER_WORDS or data[:8] != SLOTS_MAGIC or tuple(words[3:7]) != stamp:
        return None
    slots = HEADER_WORDS + words[7] + 1  # where the directory ends and the words begin
    if slots >= len(words) or slots + words[slots - 1] + 1 != len(words) or words[-1] != _checksum(words[:-1]):
        return None
    return words


def _views(words) -> tuple[bytes, memoryview, memoryview]:
    """A lookup's table over checked slot-file words, read or built: salt, directory and words."""
    words = memoryview(words)
    slots = HEADER_WORDS + words[7] + 1
    return words[1:3].tobytes(), words[HEADER_WORDS:slots], words[slots:-1]


def _load_table(records: RecordStore, size: int):
    """The table from the index's slot file, if it is made for these bytes; else built by ``_load`` and
    published as the slot file for the next handle, or, if that fails, kept in memory only."""
    path = slots_path(records.path)
    words = _read_slots(path, _stamp(records, size))
    if words is None:
        words = _load(records, size)
        try:
            publish_file(path, words, replace=True, sync=False)
        except OSError as error:
            logger.debug("slot table of %s kept in memory only: %s", records.path, error)
    return _views(words)


class SerialIndex(Closeable):
    """A codec over one sidecar-less store of 1-byte records: the index file as it was at open.

    The slot table is built once, on the first lookup, and kept, or read
    from its slot file instead where that holds it for this file.
    ``counters`` are the store's: they count the line reads made to answer
    lookups, each one read of exactly its line; the slot-file read and the
    passes that build the table or read ``entries`` are not counted.
    """

    def __init__(self, path: str | Path):
        self.records = RecordStore.open_fixed(path, 1)
        self.path = self.records.path
        self.counters = self.records.counters
        if self.records.record_count >> OFFSET_BITS:
            self.close()
            raise ValueError(f"index {path} is {self.records.record_count} B, not under the {1 << OFFSET_BITS} B limit")
        self._table: tuple[bytes, memoryview, memoryview] | None = None  # salt, directory, words
        self._lock = threading.Lock()

    @classmethod
    def create(cls, path: str | Path, entries: Iterable[SerialIndexEntry] = ()) -> "SerialIndex":
        """Create the index holding ``entries``, in order, in one write and one fsync; fails if it exists.

        No (name, key) may repeat: this does not check, and a lookup finds the first."""
        publish_file(path, "".join(entry.line() for entry in entries).encode("ascii"))
        return cls(path)

    def lookup(self, name: str, key: str) -> SerialIndexEntry:
        """The first line whose name and key tokens both match exactly; ValueError if it is malformed."""
        if self._table is None:
            with self._lock:  # one build, by the first lookup
                if self._table is None:
                    self._table = _load_table(self.records, self.records.record_count)
        salt, directory, slots = self._table
        if name.isascii() and key.isascii():  # else no line of the ASCII file can match
            bucket, tag = _place(_hash(salt, name.encode("ascii"), key.encode("ascii")), len(directory) - 1)
            for word in slots[directory[bucket]:directory[bucket + 1]]:
                if word >> (OFFSET_BITS + TAIL_BITS) == tag:
                    offset = word >> TAIL_BITS & OFFSET_MASK
                    # A true hit's first two tokens are (name, key), whatever blanks surround them.
                    length = min(len(name) + len(key) + 2 + (word & MAX_TAIL), self.records.record_count - offset)
                    text = self.records.read_records(offset, length).decode("ascii")
                    tokens = text.split()
                    if len(tokens) >= 2 and tokens[0] == name and tokens[1] == key:
                        if text[-1] != "\n" and offset + length < self.records.record_count:
                            raise ValueError(f"index line at byte {offset} has over {MAX_TAIL} B after its key")
                        return SerialIndexEntry.parse(text)
        raise NotFoundError(f"no index entry for ({name}, {key})")

    def entries(self):
        """Yield all entries in file order."""
        for line in _lines(self.records, self.records.record_count):
            yield SerialIndexEntry.parse(line.decode("ascii"))

    def entry_count(self) -> int:
        """Lines in the file, counted as the table build counts them, with no table built."""
        return _count_lines(self.records, self.records.record_count)

    def close(self) -> None:
        self.records.close()
        self._table = None
