"""Fixed-record-size concatenated library files.

A library is a single headerless file of equal-length records. Members are
appended as payloads padded with NUL bytes to the next record boundary and
addressed by (start record, record count). A two-line ASCII sidecar
(``<library>.meta``) carries the record size and record count, so stores are
self-describing while the data file stays a plain byte-for-byte record
concatenation.

Reads go through ``pread``, so any number of threads or processes may read
one store concurrently; at most one appender may be active. A member read is
one ``pread`` of exactly the member's own bytes: the padding after it is
never read. The sidecar is rewritten only after appended bytes are fsync'd,
so a crash never leaves the record count pointing into unwritten data. A
store with a sidecar, read-only or writable, reads that commit record again
when asked for records past its count, so it serves what another appender
has committed since; a repack renamed into place is not followed.

Appends copy nothing and flush once per call: ``append_payloads`` writes
each member from the caller's buffer and then its padding, if any, and
makes one fsync and one sidecar update after its last payload, however many
it wrote. A builder so holds each record once, as the bytes it hands over,
and a pack of any number of members costs one fsync.

A file whose format fixes its geometry, such as the computed index, is a
store with no sidecar: ``create_fixed`` writes and fsyncs it whole,
``open_fixed`` checks its exact size and opens it read-only unless asked,
and ``write_records`` rewrites it in place.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
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


def _pwrite_all(fd: int, data, offset: int) -> None:
    view = memoryview(data).cast("B")
    while view:
        n = os.pwrite(fd, view, offset)
        view = view[n:]
        offset += n


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


def _write_meta(meta_path: Path, record_size: int, record_count: int) -> None:
    # Temp-and-rename so a crash mid-update leaves the old, consistent sidecar.
    tmp = meta_path.with_name(meta_path.name + ".tmp")
    tmp.write_text(f"record_size={record_size}\nrecord_count={record_count}\n", "ascii")
    os.replace(tmp, meta_path)


class RecordStore(Closeable):
    """One library file plus its sidecar metadata, or a fixed-geometry file."""

    def __init__(self, path: Path, fd: int, record_size: int, record_count: int, writable: bool,
                 follows_sidecar: bool):
        self.path = path
        self._fd = fd
        self._record_size = record_size
        self._record_count = record_count
        self._writable = writable
        self._follows_sidecar = follows_sidecar
        self.counters = IOCounters()

    @classmethod
    def create(cls, path: str | Path, record_size: int = DEFAULT_RECORD_SIZE) -> "RecordStore":
        """Create an empty writable store. Fails if one already exists."""
        if record_size < 1:
            raise ValueError(f"record_size must be >= 1, got {record_size}")
        path = Path(path)
        meta = _meta_path(path)
        if meta.exists():
            raise FileExistsError(f"store already exists: {path}")
        fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            _write_meta(meta, record_size, 0)
        except BaseException:
            os.close(fd)
            path.unlink()
            raise
        return cls(path, fd, record_size, 0, writable=True, follows_sidecar=True)

    @classmethod
    def open(cls, path: str | Path, mode: str = "r") -> "RecordStore":
        """Open an existing store, ``mode`` "r" (read-only) or "a" (appendable).

        Opening for append truncates any bytes beyond the recorded length:
        such a tail can only be the residue of an append that crashed before
        its metadata update.
        """
        if mode not in ("r", "a"):
            raise ValueError(f"mode must be 'r' or 'a', got {mode!r}")
        path = Path(path)
        return cls._open(path, *_read_meta(_meta_path(path)), writable=mode == "a", exact=False)

    @classmethod
    def create_fixed(cls, path: str | Path, record_size: int, records: bytes) -> "RecordStore":
        """Create a sidecar-less store holding exactly ``records``, fsync'd, open for writes."""
        with open(path, "xb") as f:
            f.write(records)
            f.flush()
            os.fsync(f.fileno())
        return cls.open_fixed(path, record_size, len(records) // record_size, writable=True)

    @classmethod
    def open_fixed(cls, path: str | Path, record_size: int, record_count: int, writable=False):
        """Open a sidecar-less store that must be exactly ``record_count`` records long."""
        return cls._open(Path(path), record_size, record_count, writable, exact=True)

    @classmethod
    def _open(cls, path: Path, record_size: int, record_count: int, writable: bool, exact: bool):
        fd = os.open(path, os.O_RDWR if writable else os.O_RDONLY)
        covered = record_count * record_size
        size = os.fstat(fd).st_size
        if size < covered or exact and size != covered:
            os.close(fd)
            raise ValueError(f"store {path} is {size} B, but its geometry covers {covered} B")
        if writable and size > covered:
            os.ftruncate(fd, covered)
        return cls(path, fd, record_size, record_count, writable, follows_sidecar=not exact)

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
        buffer and its padding by a second write, so nothing is copied, and
        a caller that yields and drops payloads holds one at a time. One
        fsync and one sidecar update follow the last payload. If drawing a
        payload raises, the sidecar keeps its old count: the state a crashed
        append leaves, whose tail ``open(mode="a")`` truncates. An empty
        payload takes no records. Returns one ref per payload.
        """
        self._check_writable()
        rsize = self._record_size
        start = end = self._record_count
        refs = []
        for payload in payloads:
            nbytes = memoryview(payload).nbytes
            count = -(-nbytes // rsize)
            offset = end * rsize
            _pwrite_all(self._fd, payload, offset)
            if count * rsize > nbytes:
                _pwrite_all(self._fd, bytes(count * rsize - nbytes), offset + nbytes)
            del payload  # dropped before the next one is drawn
            refs.append(RecordSetRef(start=end, count=count, byte_length=nbytes))
            end += count
        if end > start:
            self._commit(end)
        return refs

    def _commit(self, record_count: int) -> None:
        os.fsync(self._fd)
        _write_meta(_meta_path(self.path), self._record_size, record_count)
        self._record_count = record_count

    def _check_writable(self) -> None:
        if not self._writable:
            raise PermissionError(f"store {self.path} opened read-only")

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

    def write_records(self, start: int, data: bytes) -> None:
        """Overwrite whole records in place from record ``start``; no fsync."""
        self._check_writable()
        count, partial = divmod(len(data), self._record_size)
        if partial:
            raise ValueError(f"{len(data)} bytes are not whole records of {self._record_size} bytes")
        self._check_range(start, count)
        _pwrite_all(self._fd, data, start * self._record_size)

    def _check_range(self, start: int, count: int) -> None:
        if start + count > self._record_count and self._follows_sidecar:
            held = os.fstat(self._fd).st_size // self._record_size  # a commit counts as far as this file holds it
            self._record_count = max(self._record_count, min(_read_meta(_meta_path(self.path))[1], held))
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

    def sync(self) -> None:
        os.fsync(self._fd)

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
        drawn. ``payloads`` go to a new store under one fsync, then
        ``create_index(index_path, refs)``, given one ref per payload,
        writes and fsyncs the index. If any step raises, the store is closed
        and the index, then the store and its sidecar, as far as they got,
        are deleted, and nothing else: a rerun can succeed, and a kill midway
        through leaves no index without its store.
        """
        if index_path.exists():
            raise FileExistsError(f"index already exists: {index_path}")
        store = RecordStore.create(store_path, record_size)
        try:
            return cls(store, create_index(index_path, store.append_payloads(payloads)))
        except BaseException:
            store.close()
            for path in (index_path, store_path, _meta_path(store_path)):  # the commit point first
                path.unlink(missing_ok=True)
            raise

    @classmethod
    def _open(cls, store_path: Path, index_path: Path, open_index):
        """The one open order: a missing index raises before the store is opened; any failure leaves no fd."""
        if not index_path.exists():
            raise FileNotFoundError(f"no index at {index_path}")
        with closed_on_error(RecordStore.open(store_path)) as store:
            return cls(store, open_index(index_path))

    def close(self) -> None:
        self.store.close()
        self.index.close()
