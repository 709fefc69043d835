"""Pack directories of member files into one library plus one serial index.

Member identity comes from the filename, ``<name>_<key>.<ext>`` (the key is
the token after the last underscore), or from an explicit manifest of
``filename<TAB>name<TAB>key`` lines when filenames don't follow the
convention. Members are appended in sorted (name, key) order and indexed
with their exact byte length, so a fetch returns the original file
byte-for-byte.
"""

from __future__ import annotations

from pathlib import Path

from .errors import DuplicateKeyError, NotFoundError
from .serial_index import SerialIndex, SerialIndexEntry
from .store import DEFAULT_RECORD_SIZE, Closeable, Library, RecordStore, closed_on_error

LIBRARY_SUFFIX = ".raclib"
INDEX_SUFFIX = ".index"


def parse_member_filename(filename: str) -> tuple[str, str]:
    """Split ``<name>_<key>.<ext>`` into (name, key)."""
    stem = filename.rsplit(".", 1)[0] if "." in filename else filename
    name, sep, key = stem.rpartition("_")
    if not sep or not name or not key:
        raise ValueError(f"cannot derive (name, key) from filename {filename!r}; use a manifest")
    return name, key


def read_manifest(path: str | Path) -> dict[str, tuple[str, str]]:
    """Parse a filename -> (name, key) manifest (three tab-separated fields)."""
    members = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected filename<TAB>name<TAB>key")
            members[fields[0]] = (fields[1], fields[2])
    return members


class Collection(Library):
    """One packed library and its serial index, fetched by (name, key)."""

    @classmethod
    def open(cls, library_path: str | Path, index_path: str | Path | None = None) -> "Collection":
        library_path = Path(library_path)
        if index_path is None:
            index_path = library_path.with_suffix(INDEX_SUFFIX)
        index_path = Path(index_path)
        if not index_path.exists():
            raise FileNotFoundError(f"no serial index at {index_path}")
        with closed_on_error(RecordStore.open(library_path)) as store:
            return cls(store, SerialIndex(index_path))

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
    out_dir.mkdir(parents=True, exist_ok=True)

    if manifest is not None:
        named = {input_dir / fname: (name, key) for fname, (name, key) in read_manifest(manifest).items()}
    else:
        named = {
            path: parse_member_filename(path.name)
            for path in sorted(input_dir.iterdir())
            if path.is_file()
        }

    seen: dict[tuple[str, str], Path] = {}
    for path, member in named.items():
        if member in seen:
            raise DuplicateKeyError(f"{path} and {seen[member]} both map to {member}")
        seen[member] = path

    index = SerialIndex.create(out_dir / (collection + INDEX_SUFFIX))  # holds no fd until used
    store = RecordStore.create(out_dir / (collection + LIBRARY_SUFFIX), record_size)
    with closed_on_error(Collection(store, index)) as packed:
        for (name, key), path in sorted(seen.items()):
            ref = store.append_payload(path.read_bytes())
            index.append(SerialIndexEntry(name, key, ref.start, ref.count, ref.byte_length))
        index.close_appender()
    return packed


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
            for path in sorted(library_dir.glob("*" + LIBRARY_SUFFIX)):
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
