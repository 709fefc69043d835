"""Millimeter brain coordinates grouped by region and cubic-centimeter block.

A coordinate is encoded per axis as a sign letter plus the magnitude's
digits, so (-41, 12, -35) is "n41p12n35"; zero takes 'p'. A block names the
10 mm cube a coordinate falls in by sign and decade per axis: "n4_xp1_yn3_z"
covers (-4[0-9], 1[0-9], -3[0-9]). Coordinates of one (region, block) group
are stored as consecutive fixed-width records, one serial-index line per
group, so a block query is one index lookup plus one contiguous read.

A region query reads the region's (start, count) record runs, in index
order, adjacent groups merged into one run. The library builds the runs of
every region in one pass over the serial index's ``entries()`` on the first
region query and keeps them while it is open. So a region query is a dict
probe and one contiguous read per run; a built library stores each region's
groups back to back, so that is one read. This module never opens or parses
an index file itself: ``entries()`` parses its lines.

A run is decoded in one pass over its bytes: each 16-byte record is checked
and split into its three axis tokens by one compiled pattern, and each
token is looked up in a table of the canonical tokens met so far. A record
that fails either step is decoded by ``decode_coord``, so it raises as that
does, and adds its tokens to the table if it is canonical;
``decode_coord`` stays the strict parser of names from outside.

A library is built from an atlas TSV file, and no ``Voxel`` is held per
line: ``read_atlas_tsv`` checks each line and appends its 16-byte record
to its (region, block) buffer, and ``RegionLibrary.build`` writes these
buffers. A voxel repeated in its region repeats in its block, so repeats
are looked for one buffer at a time, once every line is read.
"""

from __future__ import annotations

import re
import struct
import threading
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import NotFoundError
from .serial_index import SerialIndex, SerialIndexEntry, _check_token
from .store import Library, RecordStore, read_tsv

COORD_BOUND = 999  # 3-digit encoding per axis
COORD_RECORD_SIZE = 16
BLOCK_CAPACITY = 1000  # a cm^3 holds at most 10*10*10 lattice points
BLOCK_KEY = "{}_x{}_y{}_z"  # a block's name from its decade codes per axis: "n4", "p1", "n3" -> "n4_xp1_yn3_z"
WRITE_BYTES = 1 << 16  # a build joins block buffers into writes of about this size, so it copies little at a time

DATA_FILE = "voxels.raclib"
INDEX_FILE = "regions.index"

_COORD_RE = re.compile(r"([pn])(\d{1,3})([pn])(\d{1,3})([pn])(\d{1,3})")
# A stored record split into its three axis tokens, for ``fullmatch(data, o, o + 16)``.
_RECORD_RE = re.compile(rb"([pn][0-9]{1,3})([pn][0-9]{1,3})([pn][0-9]{1,3})\x00*")
_INTEGER_RE = re.compile(r"-?[0-9]+")


class Voxel(NamedTuple):
    x: int
    y: int
    z: int


def _check_bounds(v: Voxel) -> None:
    for component in v:
        if type(component) is not int:
            raise ValueError(f"coordinate components must be ints: {v}")
        if not -COORD_BOUND <= component <= COORD_BOUND:
            raise ValueError(f"coordinate component out of range [-999, 999]: {v}")


def _axis_code(value: int) -> str:
    return ("p" if value >= 0 else "n") + str(abs(value))


def _decade_code(value: int) -> str:
    return ("p" if value >= 0 else "n") + str(abs(value) // 10)


def encode_coord(v: Voxel) -> str:
    """Sign+digits per axis, concatenated: (-41, 12, -35) -> "n41p12n35"."""
    v = Voxel(*v)
    _check_bounds(v)
    return "".join(_axis_code(c) for c in v)


def decode_coord(name: str) -> Voxel:
    """Inverse of encode_coord; rejects anything but canonical names."""
    m = _COORD_RE.fullmatch(name)
    if not m:
        raise ValueError(f"malformed coordinate name: {name!r}")
    components = []
    for sign, digits in zip(m.groups()[::2], m.groups()[1::2]):
        value = int(digits)
        if str(value) != digits:  # leading zeros are never produced
            raise ValueError(f"non-canonical digits in coordinate name: {name!r}")
        if sign == "n":
            if value == 0:
                raise ValueError(f"negative zero in coordinate name: {name!r}")
            value = -value
        components.append(value)
    return Voxel(*components)


def block_of(v: Voxel) -> str:
    """Name of the cm^3 block containing v: sign and decade per axis.

    p0 covers 0..9, n0 covers -9..-1, n4 covers -49..-40, and so on.
    """
    v = Voxel(*v)
    _check_bounds(v)
    return BLOCK_KEY.format(*map(_decade_code, v))


class _ComponentCodes(dict):
    """One build's memo: a component's text -> (axis code as ASCII, block decade), "-41" -> (b"n41", "n4").

    A miss checks the text: it must match ``-?[0-9]+`` and spell an integer
    in [-999, 999], else ValueError. Only canonical texts are kept, at most
    1,999, so non-canonical spellings ("007", "-0") cannot grow the memo.
    """

    def __missing__(self, text: str) -> tuple[bytes, str]:
        if not _INTEGER_RE.fullmatch(text):
            raise ValueError(f"coordinate component must match -?[0-9]+: {text!r}")
        value = int(text)
        if not -COORD_BOUND <= value <= COORD_BOUND:
            raise ValueError(f"coordinate component out of range [-999, 999]: {text}")
        codes = (_axis_code(value).encode("ascii"), _decade_code(value))
        if str(value) == text:
            self[text] = codes
        return codes


def _unpack_coord(raw: bytes) -> Voxel:
    return decode_coord(raw.rstrip(b"\x00").decode("ascii"))


# Canonical axis tokens met so far and their components: b"n41" -> -41. Filled as
# records are decoded, so it holds the tokens a process reads, not all 1,999 (198 KB).
_AXIS_VALUES: dict[bytes, int] = {}


def _unpack_run(data: bytes) -> list[Voxel]:
    """``_unpack_coord`` of each record of ``data``, in one pass: a split and three table lookups per record.

    A record that is not three canonical tokens and NUL padding goes through
    ``_unpack_coord``, so it raises as that does; so does one whose tokens
    are not in the table yet, which then adds them.
    """
    values = _AXIS_VALUES
    split = _RECORD_RE.fullmatch
    new = tuple.__new__
    voxels = []
    for o in range(0, len(data), COORD_RECORD_SIZE):
        try:
            x, y, z = split(data, o, o + COORD_RECORD_SIZE).groups()
            voxel = new(Voxel, (values[x], values[y], values[z]))
        except (AttributeError, KeyError):  # no match, or a token not met yet
            voxel = _unpack_coord(data[o : o + COORD_RECORD_SIZE])
            values.update(zip((x, y, z), voxel))  # canonical, so split matched: these are its tokens
        voxels.append(voxel)
    return voxels


_RECORD_STRUCT = struct.Struct(f"{COORD_RECORD_SIZE}s")


def _check_distinct(region: str, records: bytearray) -> None:
    """Raise on the first record that repeats in one block's buffer.

    A voxel repeated in a region repeats in the same block, so a check per
    block finds every repeat, and holds at most one block's records as keys.
    """
    if len(set(_RECORD_STRUCT.iter_unpack(records))) < len(records) // COORD_RECORD_SIZE:
        seen = set()
        for (record,) in _RECORD_STRUCT.iter_unpack(records):
            if record in seen:
                raise ValueError(f"duplicate voxel {_unpack_coord(record)} in region {region}")
            seen.add(record)
    assert len(records) <= BLOCK_CAPACITY * COORD_RECORD_SIZE


def _index_entries(regions: dict):
    """One index line per (region, block) of ``read_atlas_tsv``'s ``regions``, in its order, records counted from 0."""
    start = 0
    for region, blocks in regions.items():
        for decades, records in blocks.items():
            count = len(records) // COORD_RECORD_SIZE
            yield SerialIndexEntry(region, BLOCK_KEY.format(*decades), start, count)
            start += count


def _writes(regions: dict):
    """The records of ``regions`` in store order: its block buffers joined into writes of about ``WRITE_BYTES``."""
    chunk, size = [], 0
    for blocks in regions.values():
        for records in blocks.values():
            chunk.append(records)
            size += len(records)
            if size >= WRITE_BYTES:
                yield b"".join(chunk)
                chunk, size = [], 0
    if chunk:
        yield b"".join(chunk)


def _region_runs(entries: Iterable[SerialIndexEntry]) -> dict[str, tuple[tuple[int, int], ...]]:
    """Each region's (start, count) runs in line order; a line that follows on from its region's last run extends it."""
    runs: dict[str, list[list[int]]] = {}
    for entry in entries:
        named = runs.setdefault(entry.name, [])
        if named and named[-1][0] + named[-1][1] == entry.start:
            named[-1][1] += entry.count
        elif entry.count:
            named.append([entry.start, entry.count])
    return {name: tuple(map(tuple, named)) for name, named in runs.items()}


class RegionLibrary(Library):
    """Voxel store grouped region-by-region, block-by-block."""

    def __init__(self, store: RecordStore, index: SerialIndex):
        super().__init__(store, index)
        self._runs: dict[str, tuple[tuple[int, int], ...]] | None = None  # built by the first region query
        self._failed: tuple | None = None  # the args of the ValueError that build raised: the index is constant
        self._lock = threading.Lock()

    @classmethod
    def build(cls, regions: dict[str, dict[tuple[str, str, str], bytearray]], out_dir: str | Path) -> "RegionLibrary":
        """Write one library and index for the atlas ``read_atlas_tsv`` returns.

        Blocks of a region stay contiguous and appear in first-use order;
        voxels keep input order within their block. The voxels are held
        once, as their packed records, which go to the store under one fsync
        in writes of about ``WRITE_BYTES``; the index is written last, in one
        write and one fsync, once the voxels are in the library.
        """
        out_dir = Path(out_dir)
        return cls._build(
            out_dir / DATA_FILE, COORD_RECORD_SIZE, _writes(regions),
            out_dir / INDEX_FILE, lambda path, refs: SerialIndex.create(path, _index_entries(regions)),
        )

    @classmethod
    def open(cls, directory: str | Path) -> "RegionLibrary":
        directory = Path(directory)
        return cls._open(directory / DATA_FILE, directory / INDEX_FILE, SerialIndex)

    def _read_run(self, start: int, count: int) -> list[Voxel]:
        return _unpack_run(self.store.read_records(start, count))

    def block_voxels(self, region: str, block: str) -> list[Voxel]:
        """One index lookup plus one contiguous read."""
        entry = self.index.lookup(region, block)
        return self._read_run(entry.start, entry.count)

    def region_voxels(self, region: str) -> list[Voxel]:
        """The records of every index line named for the region, in file order.

        Duplicate lines are read as often as they appear. The cost is a
        probe of the region runs and one contiguous read per run of
        adjacent groups: one read for a library written by ``build``.
        An unknown region raises NotFoundError without reading the store. A
        malformed index line's ValueError is raised afresh by every region
        query, with no read; after an OSError the next query builds again.
        """
        runs = self._runs
        if runs is None:
            with self._lock:
                if self._failed is not None:
                    raise ValueError(*self._failed)
                if self._runs is None:
                    try:
                        self._runs = _region_runs(self.index.entries())
                    except ValueError as error:
                        self._failed = error.args
                        raise
                runs = self._runs
        found = runs.get(region)
        if found is None:
            raise NotFoundError(f"no index entry named {region!r}")
        voxels = []
        for start, count in found:
            voxels.extend(self._read_run(start, count))
        return voxels

    def close(self) -> None:
        super().close()
        self._runs = None


def read_atlas_tsv(path: str | Path) -> dict[str, dict[tuple[str, str, str], bytearray]]:
    """Check every region/x/y/z line of a TSV file and pack it, for ``RegionLibrary.build``.

    Returns each region, in first-use order, mapped to its blocks' decade
    codes, in first-use order within the region, and each block to its
    16-byte records, in input order: no line is held but as its record. A
    component is exactly ``-?[0-9]+`` and in [-999, 999], each canonical
    text checked and encoded once; signs, spaces and underscores that
    ``int()`` would accept, and values out of range, raise
    ``ValueError("path:line: ...")``, as does a region an index line cannot
    hold, checked on the line it first appears. Once the whole file is
    read, a voxel repeated in its region raises.
    """
    codes = _ComponentCodes()
    regions: dict[str, dict[tuple[str, str, str], bytearray]] = {}
    for lineno, (region, x, y, z) in read_tsv(path, 4, "region<TAB>x<TAB>y<TAB>z"):
        try:
            (cx, dx), (cy, dy), (cz, dz) = codes[x], codes[y], codes[z]
            blocks = regions.get(region)
            if blocks is None:
                _check_token("region", region)
                blocks = regions[region] = {}
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
        record = (cx + cy + cz).ljust(COORD_RECORD_SIZE, b"\x00")
        block = blocks.get((dx, dy, dz))
        if block is None:
            blocks[dx, dy, dz] = bytearray(record)
        else:
            block += record
    for region, blocks in regions.items():
        for records in blocks.values():
            _check_distinct(region, records)
    return regions
