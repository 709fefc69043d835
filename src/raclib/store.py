"""Fixed-record-size concatenated library files.

A library is a single headerless file of equal-length records. Members are
appended as payloads padded with NUL bytes to the next record boundary and
addressed by (start record, record count). A two-line ASCII sidecar
(``<library>.meta``) carries the record size and record count, so stores are
self-describing while the data file stays a plain byte-for-byte record
concatenation.

Reads go through ``pread``, so any number of threads or processes may read
one store concurrently; at most one appender may be active. The sidecar is
rewritten only after appended bytes are fsync'd, so a crash never leaves the
record count pointing into unwritten data.

A file whose format fixes its geometry, such as the computed index, is a
store with no sidecar: ``open_fixed`` checks its exact size and opens it
read-only unless asked, and ``write_records`` rewrites it in place.
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


def _pwrite_all(fd: int, data: bytes, offset: int) -> None:
    view = memoryview(data)
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

    def __init__(self, path: Path, fd: int, record_size: int, record_count: int, writable: bool):
        self.path = path
        self._fd = fd
        self._record_size = record_size
        self._record_count = record_count
        self._writable = writable
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
        _write_meta(meta, record_size, 0)
        return cls(path, fd, record_size, 0, writable=True)

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
        """Create a sidecar-less store holding exactly ``records``, open for writes."""
        with open(path, "xb") as f:
            f.write(records)
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
        return cls(path, fd, record_size, record_count, writable)

    @property
    def record_size(self) -> int:
        return self._record_size

    @property
    def record_count(self) -> int:
        return self._record_count

    def append_payload(self, payload: bytes) -> RecordSetRef:
        """Append one member, NUL-padded to the next record boundary.

        The sidecar is updated only after the payload bytes are fsync'd.
        """
        if not self._writable:
            raise PermissionError(f"store {self.path} opened read-only")
        start = self._record_count
        if not payload:
            return RecordSetRef(start=start, count=0, byte_length=0)
        rsize = self._record_size
        count = -(-len(payload) // rsize)
        pad = count * rsize - len(payload)
        _pwrite_all(self._fd, payload + b"\x00" * pad, start * rsize)
        os.fsync(self._fd)
        _write_meta(_meta_path(self.path), rsize, start + count)
        self._record_count = start + count
        return RecordSetRef(start=start, count=count, byte_length=len(payload))

    def read_records(self, start: int, count: int) -> bytes:
        """Return ``count`` whole records beginning at record ``start``.

        One positioned read; no bytes before the requested offset are touched.
        """
        self._check_range(start, count)
        rsize = self._record_size
        data = _pread_all(self._fd, count * rsize, start * rsize) if count else b""
        self.counters.reads += 1
        self.counters.bytes_read += len(data)
        return data

    def write_records(self, start: int, data: bytes) -> None:
        """Overwrite whole records in place from record ``start``; no fsync."""
        if not self._writable:
            raise PermissionError(f"store {self.path} opened read-only")
        count, partial = divmod(len(data), self._record_size)
        if partial:
            raise ValueError(f"{len(data)} bytes are not whole records of {self._record_size} bytes")
        self._check_range(start, count)
        _pwrite_all(self._fd, data, start * self._record_size)

    def _check_range(self, start: int, count: int) -> None:
        if start < 0 or count < 0 or start + count > self._record_count:
            raise IndexError(
                f"record range [{start}, {start + count}) outside store of {self._record_count} records"
            )

    def read_payload(self, ref: RecordSetRef) -> bytes:
        """Return the exact original payload for ``ref`` (padding stripped)."""
        rsize = self._record_size
        if ref.count == 0:
            if ref.byte_length != 0:
                raise ValueError(f"ref with count=0 must have byte_length=0, got {ref.byte_length}")
        elif not ((ref.count - 1) * rsize < ref.byte_length <= ref.count * rsize):
            raise ValueError(
                f"byte_length {ref.byte_length} inconsistent with {ref.count} records of {rsize} bytes"
            )
        return self.read_records(ref.start, ref.count)[: ref.byte_length]

    def sync(self) -> None:
        os.fsync(self._fd)

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1


class Library(Closeable):
    """A record store and the index that addresses it: opened all or nothing, closed together."""

    def __init__(self, store: RecordStore, index):
        self.store = store
        self.index = index

    def close(self) -> None:
        self.store.close()
        self.index.close()
