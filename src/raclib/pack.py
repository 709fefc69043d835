"""Pack directories of member files into one library plus one serial index.

Member identity comes from the filename, ``<name>_<key>.<ext>`` (the key is
the token after the last underscore), or from an explicit manifest of
``filename<TAB>name<TAB>key`` lines when filenames don't follow the
convention. Members are appended in sorted (name, key) order and indexed
with their exact byte length, so a fetch returns the original file
byte-for-byte.

Every (name, key) is checked before any file is created. ``Library._build``
then reads the member files one at a time and appends them under one fsync
and one sidecar update for the whole pack, not one per member, and writes
and fsyncs the index last, whole, in one write. Until then no member is
reachable, so a crash mid-pack leaves no index. A pack that fails (a member
file that cannot be read, an index that cannot be written) deletes the
library, sidecar and index it created, and nothing else, so the directory
stays loadable and a rerun can succeed.
"""

from __future__ import annotations

from pathlib import Path

from .errors import DuplicateKeyError, NotFoundError
from .serial_index import SerialIndex, SerialIndexEntry
from .store import DEFAULT_RECORD_SIZE, Closeable, Library, closed_on_error, read_tsv

LIBRARY_SUFFIX = ".raclib"
INDEX_SUFFIX = ".index"


def parse_member_filename(filename: str) -> tuple[str, str]:
    """Split ``<name>_<key>.<ext>`` into (name, key)."""
    stem = filename.rsplit(".", 1)[0] if "." in filename else filename
    name, sep, key = stem.rpartition("_")
    if not sep or not name or not key:
        raise ValueError(f"cannot derive (name, key) from filename {filename!r}; use a manifest")
    return name, key


def _indexable(member: tuple[str, str], where: str) -> tuple[str, str]:
    """``member``, if its name and key fit an index line; else a ValueError that starts with ``where``."""
    try:
        SerialIndexEntry(*member, 0, 0)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None
    return member


def read_manifest(path: str | Path) -> dict[str, tuple[str, str]]:
    """Parse a filename -> (name, key) manifest (three tab-separated fields); a filename may appear once."""
    members = {}
    for lineno, (filename, name, key) in read_tsv(path, 3, "filename<TAB>name<TAB>key"):
        if filename in members:
            raise ValueError(f"{path}:{lineno}: {filename} is listed twice")
        members[filename] = _indexable((name, key), f"{path}:{lineno}")
    return members


class Collection(Library):
    """One packed library and its serial index, fetched by (name, key)."""

    @classmethod
    def open(cls, library_path: str | Path, index_path: str | Path | None = None) -> "Collection":
        library_path = Path(library_path)
        index_path = library_path.with_suffix(INDEX_SUFFIX) if index_path is None else Path(index_path)
        return cls._open(library_path, index_path, SerialIndex)

    def fetch(self, name: str, key: str) -> bytes:
        entry = self.index.lookup(name, key)
        return self.store.read_payload(entry.to_ref(self.store.record_size))


def pack_directory(
    input_dir: str | Path,
    collection: str,
    out_dir: str | Path,
    record_size: int = DEFAULT_RECORD_SIZE,
    manifest: str | Path | None = None,
) -> Collection:
    """Pack every file in ``input_dir`` into ``<out_dir>/<collection>.raclib``.

    Without a manifest every regular file must follow the filename
    convention; with one, exactly the listed files are packed.
    """
    input_dir = Path(input_dir)
    out_dir = Path(out_dir)
    if manifest is not None:
        named = {input_dir / fname: (name, key) for fname, (name, key) in read_manifest(manifest).items()}
    else:
        named = {
            path: _indexable(parse_member_filename(path.name), str(path))
            for path in sorted(input_dir.iterdir())
            if path.is_file()
        }

    seen: dict[tuple[str, str], Path] = {}
    for path, member in named.items():
        if member in seen:
            raise DuplicateKeyError(f"{path} and {seen[member]} both map to {member}")
        seen[member] = path

    members = sorted(seen.items())

    def create_index(index_path, refs):
        return SerialIndex.create(index_path, (
            SerialIndexEntry(name, key, ref.start, ref.count, ref.byte_length)
            for ((name, key), _), ref in zip(members, refs)
        ))

    payloads = (path.read_bytes() for _, path in members)
    return Collection._build(out_dir / (collection + LIBRARY_SUFFIX), record_size, payloads,
                             out_dir / (collection + INDEX_SUFFIX), create_index)


class CollectionSet(Closeable):
    """All collections under one directory, addressed by member (name, key)."""

    def __init__(self, collections: list[Collection]):
        self.collections = collections

    @classmethod
    def load_dir(cls, library_dir: str | Path) -> "CollectionSet":
        library_dir = Path(library_dir)
        if not library_dir.is_dir():
            raise FileNotFoundError(f"library directory {library_dir} does not exist")
        with closed_on_error(cls([])) as collection_set:
            # The index is a build's commit point: a store without one is a build that did not finish.
            libraries = (index.with_suffix(LIBRARY_SUFFIX) for index in library_dir.glob("*" + INDEX_SUFFIX))
            for path in sorted(libraries):
                collection_set.collections.append(Collection.open(path))
            return collection_set

    def fetch(self, name: str, key: str) -> bytes:
        for collection in self.collections:
            try:
                return collection.fetch(name, key)
            except NotFoundError:
                continue
        raise NotFoundError(f"({name}, {key}) not found in any collection")

    def close(self) -> None:
        for collection in self.collections:
            collection.close()
