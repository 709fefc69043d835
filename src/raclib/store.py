"""Fixed-record-size concatenated library files.

A library is a single headerless file of equal-length records. Members are
appended as payloads padded with NUL bytes to the next record boundary and
addressed by (start record, record count). A two-line ASCII sidecar
(``<library>.meta``) carries the record size and record count, so stores are
self-describing while the data file stays a plain byte-for-byte record
concatenation.

A store is written once, by the builder that creates it, and then only
read: ``open`` gives a read-only handle that keeps the sidecar's record
count and reads only the file it opened, so a store renamed over its path
is not seen until it is opened again. The handle a builder returns is
published, and refuses appends as a read-only handle does. Reads go
through ``pread``, so any number of threads or processes may read one
store concurrently. A member read is one ``pread`` of exactly the member's
own bytes: the padding after it is never read. The sidecar is written
only after the appended bytes are fsync'd, so a crash never leaves the
record count pointing into unwritten data, and each write is a temp
fsync'd before its rename, so a crash never leaves an empty sidecar. A
new store has no sidecar until its first append commits, so a store
killed before then is a data file that ``open`` refuses.

Appends copy nothing and flush once per call: ``append_payloads`` writes
each member from the caller's buffer, with its padding, in one ``pwritev``,
and makes one fsync and one sidecar update after its last payload, however
many it wrote. A builder so holds each record once, as the bytes it hands
over, and a pack of any number of members costs one data fsync.

A file whose format fixes its geometry, such as either index, is a store
with no sidecar: ``create_fixed`` publishes it whole and fsync'd
(``publish_file``: a temp, then a hard link, so it is never seen partial),
and ``open_fixed`` checks its exact size, or covers the size at open if
given no record count. Both give a read-only handle: a changed file is a
new one, published whole over the old by rename.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path

DEFAULT_RECORD_SIZE = 1024
META_SUFFIX = ".meta"


@dataclass(frozen=True)
class RecordSetRef:
    """Location of one member inside a library.

    ``start`` is the 0-based first record, ``count`` the number of records,
    and ``byte_length`` the exact payload length before padding.
    """

    start: int
    count: int
    byte_length: int


class Closeable:
    """``with`` support for objects whose ``close`` releases their files."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@contextmanager
def closed_on_error(resource):
    """Yield ``resource``, closing it if the block raises."""
    try:
        yield resource
    except BaseException:
        resource.close()
        raise


class IOCounters:
    """Read instrumentation: logical read calls and bytes returned."""

    __slots__ = ("reads", "bytes_read")

    def __init__(self) -> None:
        self.reads = 0
        self.bytes_read = 0

    def reset(self) -> None:
        self.reads = 0
        self.bytes_read = 0


def _pwritev_all(fd: int, buffers, offset: int) -> None:
    """Write ``buffers`` back to back at ``offset``, one ``pwritev`` for all of them unless it writes short."""
    views = [memoryview(buffer).cast("B") for buffer in buffers]
    while views:
        n = os.pwritev(fd, views, offset)
        offset += n
        while views and n >= views[0].nbytes:
            n -= views.pop(0).nbytes
        if n:
            views[0] = views[0][n:]


def _pread_all(fd: int, nbytes: int, offset: int) -> bytes:
    chunks = []
    remaining = nbytes
    while remaining:
        chunk = os.pread(fd, remaining, offset)
        if not chunk:
            raise OSError(f"short read: wanted {remaining} more bytes at offset {offset}")
        chunks.append(chunk)
        remaining -= len(chunk)
        offset += len(chunk)
    return b"".join(chunks)


def _meta_path(path: Path) -> Path:
    return path.with_name(path.name + META_SUFFIX)


def _read_meta(meta_path: Path) -> tuple[int, int]:
    try:
        lines = meta_path.read_text("ascii").splitlines()
    except FileNotFoundError:
        raise FileNotFoundError(f"no store metadata at {meta_path}") from None
    if len(lines) != 2 or not lines[0].startswith("record_size=") or not lines[1].startswith("record_count="):
        raise ValueError(f"malformed store metadata in {meta_path}")
    record_size = int(lines[0].split("=", 1)[1])
    record_count = int(lines[1].split("=", 1)[1])
    if record_size < 1 or record_count < 0:
        raise ValueError(f"invalid store metadata values in {meta_path}")
    return record_size, record_count


def publish_file(path: str | Path, data, replace: bool = False, sync: bool = True) -> None:
    """Make ``path`` hold ``data``, whole and fsync'd, or leave it as it was.

    The bytes go to a temp sibling that no other writer uses and no
    ``*.index`` glob matches (``.<name>.<pid>.<thread>.tmp``), are fsync'd
    there, and only then appear at ``path``: through ``os.link``, which
    raises FileExistsError if ``path`` exists, or with ``replace`` through
    ``os.replace``, which moves the temp. Any temp left, after a link or a
    failure, is removed, and no fd is left. Without ``sync``, for a copy
    that need not survive a crash, no fsync.
    """
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.{threading.get_ident()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)  # if it raises, there is no temp to remove
    moved = False
    try:
        try:
            _pwritev_all(fd, (data,), 0)
            if sync:
                os.fsync(fd)
        finally:
            os.close(fd)
        if replace:
            os.replace(tmp, path)
            moved = True
        else:
            os.link(tmp, path)
    finally:
        if not moved:
            with suppress(FileNotFoundError):
                os.unlink(tmp)


def read_tsv(path: str | Path, width: int, expected: str):
    """Yield ``(lineno, fields)`` for each non-empty line of a UTF-8 text file, split at tabs by ``tsv_fields``."""
    # Bytes that are not UTF-8 decode to lone surrogates, which tsv_fields finds, line by line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, 1):
            fields = tsv_fields(path, lineno, line, width, expected)
            if fields is not None:
                yield lineno, fields


def tsv_fields(path: str | Path, lineno: int, line: str, width: int, expected: str) -> list[str] | None:
    """The tab-split fields of one line, decoded with ``surrogateescape``, or None if it is blank.

    A line that is not UTF-8, or of other than ``width`` fields, raises
    ``ValueError("<path>:<lineno>: ...")``.
    """
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{path}:{lineno}: not UTF-8") from None
    line = line.rstrip("\n")
    if not line:
        return None
    fields = line.split("\t")
    if len(fields) != width:
        raise ValueError(f"{path}:{lineno}: expected {expected}")
    return fields


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_meta(meta_path: Path, record_size: int, record_count: int) -> None:
    # Replaced whole, so a crash mid-update leaves the old sidecar or the new one.
    publish_file(meta_path, f"record_size={record_size}\nrecord_count={record_count}\n".encode("ascii"), replace=True)


class RecordStore(Closeable):
    """One library file plus its sidecar metadata, or a fixed-geometry file."""

    def __init__(self, path: Path, fd: int, record_size: int, record_count: int, writable: bool = False):
        self.path = path
        self._fd = fd
        self._record_size = record_size
        self._record_count = record_count
        self._writable = writable
        self.counters = IOCounters()

    @classmethod
    def create(cls, path: str | Path, record_size: int = DEFAULT_RECORD_SIZE) -> "RecordStore":
        """Create an empty writable store, whose file must not exist; its first append publishes its sidecar."""
        if record_size < 1:
            raise ValueError(f"record_size must be >= 1, got {record_size}")
        path = Path(path)
        return cls(path, os.open(path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o644), record_size, 0, writable=True)

    @classmethod
    def open(cls, path: str | Path) -> "RecordStore":
        """Open an existing store read-only, with the record count its sidecar gives now.

        Bytes past that count, the residue of an append that crashed before
        its sidecar update, are never read.
        """
        path = Path(path)
        return cls._open(path, *_read_meta(_meta_path(path)), exact=False)

    @classmethod
    def create_fixed(cls, path: str | Path, record_size: int, records: bytes) -> "RecordStore":
        """Create a sidecar-less store holding exactly ``records``, fsync'd, and open it read-only."""
        publish_file(path, records)
        return cls.open_fixed(path, record_size)

    @classmethod
    def open_fixed(cls, path: str | Path, record_size: int, record_count: int | None = None) -> "RecordStore":
        """Open a sidecar-less store read-only: exactly ``record_count`` records, or with none given, the whole file."""
        return cls._open(Path(path), record_size, record_count, exact=True)

    @classmethod
    def _open(cls, path: Path, record_size: int, record_count: int | None, exact: bool):
        fd = os.open(path, os.O_RDONLY)
        size = os.fstat(fd).st_size
        if record_count is None:
            record_count = size // record_size
        covered = record_count * record_size
        if size < covered or exact and size != covered:
            os.close(fd)
            raise ValueError(f"store {path} is {size} B, but its geometry covers {covered} B")
        return cls(path, fd, record_size, record_count)

    @property
    def record_size(self) -> int:
        return self._record_size

    @property
    def record_count(self) -> int:
        return self._record_count

    def append_payload(self, payload) -> RecordSetRef:
        """Append one member, any bytes-like object, NUL-padded to the next record boundary."""
        return self.append_payloads((payload,))[0]

    def append_payloads(self, payloads) -> list[RecordSetRef]:
        """Append members from ``payloads``, in order, each NUL-padded to a record boundary.

        Each payload, any bytes-like object, is written from the caller's
        buffer with its padding by one ``pwritev``, so nothing is copied,
        and a caller that yields and drops payloads holds one at a time. One
        fsync and one sidecar update follow the last payload, if any took
        records or the store holds none yet: so a new store's first call
        publishes its sidecar, and a call that appends nothing to a store
        that holds records syncs nothing. If drawing a payload raises, the
        sidecar keeps its old count, or a new store stays without one: the
        state a crashed append leaves, whose written tail no reader reads.
        An empty payload takes no records. Returns one ref per payload.
        """
        if not self._writable:
            raise PermissionError(f"store {self.path} is read-only")
        rsize = self._record_size
        start = end = self._record_count
        refs = []
        for payload in payloads:
            nbytes = memoryview(payload).nbytes
            count = -(-nbytes // rsize)
            _pwritev_all(self._fd, (payload, bytes(count * rsize - nbytes)), end * rsize)
            del payload  # dropped before the next one is drawn
            refs.append(RecordSetRef(start=end, count=count, byte_length=nbytes))
            end += count
        if end > start or start == 0:
            self._commit(end)
        return refs

    def _commit(self, record_count: int) -> None:
        os.fsync(self._fd)
        _write_meta(_meta_path(self.path), self._record_size, record_count)
        self._record_count = record_count

    def read_records(self, start: int, count: int, nbytes: int | None = None) -> bytes:
        """Return ``count`` whole records beginning at record ``start``.

        One positioned read; no bytes before the requested offset are touched.
        With ``nbytes``, only the first ``nbytes`` bytes of those records are
        read and returned, so the padding after a member is not touched either.
        """
        self._check_range(start, count)
        rsize = self._record_size
        span = count * rsize
        if nbytes is None:
            nbytes = span
        elif not 0 <= nbytes <= span:
            raise ValueError(f"cannot read {nbytes} bytes from {count} records of {rsize} bytes")
        data = _pread_all(self._fd, nbytes, start * rsize) if nbytes else b""
        self.counters.reads += 1
        self.counters.bytes_read += len(data)
        return data

    def read_block(self, start: int, count: int) -> bytes:
        """``read_records(start, count)`` left out of ``counters``: for the passes that scan a file to build a table."""
        self._check_range(start, count)
        return _pread_all(self._fd, count * self._record_size, start * self._record_size)

    def fstat(self) -> os.stat_result:
        """The ``fstat`` of the file this handle reads, which may since have been renamed over."""
        return os.fstat(self._fd)

    def _check_range(self, start: int, count: int) -> None:
        if start < 0 or count < 0 or start + count > self._record_count:
            raise IndexError(
                f"record range [{start}, {start + count}) outside store of {self._record_count} records"
            )

    def read_payload(self, ref: RecordSetRef) -> bytes:
        """Return the exact original payload for ``ref``: one read of its ``byte_length`` bytes.

        The padding after the payload is never read. A ref whose
        ``byte_length`` is ``count × record_size`` (a four-field index line)
        reads its whole records.
        """
        rsize = self._record_size
        if ref.count == 0:
            if ref.byte_length != 0:
                raise ValueError(f"ref with count=0 must have byte_length=0, got {ref.byte_length}")
        elif not ((ref.count - 1) * rsize < ref.byte_length <= ref.count * rsize):
            raise ValueError(
                f"byte_length {ref.byte_length} inconsistent with {ref.count} records of {rsize} bytes"
            )
        return self.read_records(ref.start, ref.count, ref.byte_length)

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1


class Library(Closeable):
    """A record store and the index that addresses it: built and opened all or nothing, closed together."""

    def __init__(self, store: RecordStore, index):
        self.store = store
        self.index = index

    @classmethod
    def _build(cls, store_path: Path, record_size: int, payloads, index_path: Path, create_index):
        """The one build order: payloads first and durable, then the index.

        An existing index is refused before any file is created or payload
        drawn, then the index's directory is made. ``payloads`` go to a new
        store under one fsync, then ``create_index(index_path, refs)``, given
        one ref per payload, publishes the index whole and fsync'd, and one
        fsync of its directory makes that name survive a crash. If any step
        raises, the store and index are closed and the index, then the store
        and its sidecar, as far as they got, are deleted, and nothing else: a
        rerun can succeed, and a kill midway through leaves no index without
        its store. Each directory the build made is kept through a crash as
        well, by an fsync of its parent after the index directory's. The
        store returned is published: it refuses appends.
        """
        if index_path.exists():
            raise FileExistsError(f"index already exists: {index_path}")
        made = []  # the directories mkdir makes, deepest first
        directory = index_path.parent
        while not directory.is_dir():
            made.append(directory)
            directory = directory.parent
        index_path.parent.mkdir(parents=True, exist_ok=True)
        store = RecordStore.create(store_path, record_size)
        try:
            with closed_on_error(cls(store, create_index(index_path, store.append_payloads(payloads)))) as library:
                _fsync_dir(index_path.parent)
                for directory in made:
                    _fsync_dir(directory.parent)
                store._writable = False
                return library
        except BaseException:
            store.close()
            for path in (index_path, store_path, _meta_path(store_path)):  # the commit point first
                path.unlink(missing_ok=True)
            raise

    @classmethod
    def _open(cls, store_path: Path, index_path: Path, open_index):
        """The one open order: a missing index raises before the store is opened; any failure leaves no fd.

        The library reads only the two files opened here, as they were: a
        store or index renamed over either path later is not seen, so the
        library serves the build it opened, whole, until it is opened again.
        """
        if not index_path.exists():
            raise FileNotFoundError(f"no index at {index_path}")
        with closed_on_error(RecordStore.open(store_path)) as store:
            return cls(store, open_index(index_path))

    def close(self) -> None:
        self.store.close()
        self.index.close()
