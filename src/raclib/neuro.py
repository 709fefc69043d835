"""Millimeter brain coordinates grouped by region and cubic-centimeter block.

A coordinate is encoded per axis as a sign letter plus the magnitude's
digits, so (-41, 12, -35) is "n41p12n35"; zero takes 'p'. A block names the
10 mm cube a coordinate falls in by sign and decade per axis: "n4_xp1_yn3_z"
covers (-4[0-9], 1[0-9], -3[0-9]). Coordinates of one (region, block) group
are stored as consecutive fixed-width records, one serial-index line per
group, so a block query is one index lookup plus one contiguous read.

A region query reads the region's lines through a region table: each
region's (start, count) record runs in index order, adjacent groups merged
into one run. One pass over the index builds it, kept until the index
file's size, mtime or inode changes, so a region query is a stat, a dict
probe and one contiguous read per run; a built library stores each region's
groups back to back, so that is one read.
"""

from __future__ import annotations

import os
import re
import threading
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .errors import NotFoundError
from .serial_index import SerialIndex, SerialIndexEntry, file_signature
from .store import Library, RecordStore, closed_on_error

COORD_BOUND = 999  # 3-digit encoding per axis
COORD_RECORD_SIZE = 16
BLOCK_CAPACITY = 1000  # a cm^3 holds at most 10*10*10 lattice points

DATA_FILE = "voxels.raclib"
INDEX_FILE = "regions.index"

_COORD_RE = re.compile(r"([pn])(\d{1,3})([pn])(\d{1,3})([pn])(\d{1,3})")


class Voxel(NamedTuple):
    x: int
    y: int
    z: int


def _check_bounds(v: Voxel) -> None:
    for component in v:
        if not -COORD_BOUND <= component <= COORD_BOUND:
            raise ValueError(f"coordinate component out of range [-999, 999]: {v}")


def _axis_code(value: int) -> str:
    return ("p" if value >= 0 else "n") + str(abs(value))


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
    return "".join(
        f"{'p' if c >= 0 else 'n'}{abs(c) // 10}_{axis}" for c, axis in zip(v, "xyz")
    )


def _pack_coord(v: Voxel) -> bytes:
    return encode_coord(v).encode("ascii").ljust(COORD_RECORD_SIZE, b"\x00")


def _unpack_coord(raw: bytes) -> Voxel:
    return decode_coord(raw.rstrip(b"\x00").decode("ascii"))


class _RegionTable(NamedTuple):
    signature: tuple[int, int, int]  # (st_size, st_mtime_ns, st_ino) the table covers
    runs: dict[str, tuple[tuple[int, int], ...]]  # region -> (start, count) runs


def _load_regions(path: Path) -> _RegionTable:
    """One pass over the index: every region's record runs in line order.

    A line whose records follow on from the region's previous run extends
    that run, so reading the runs returns exactly the lines' records
    concatenated; lines appended after the signature was taken are left out.
    """
    with open(path, "rb") as f:
        signature = file_signature(os.fstat(f.fileno()))
        data = f.read(signature[0])
    runs: dict[str, list[list[int]]] = {}
    for line in data.decode("ascii").splitlines():
        entry = SerialIndexEntry.parse(line)
        region = runs.setdefault(entry.name, [])
        if region and region[-1][0] + region[-1][1] == entry.start:
            region[-1][1] += entry.count
        elif entry.count:
            region.append([entry.start, entry.count])
    return _RegionTable(signature, {name: tuple(map(tuple, r)) for name, r in runs.items()})


class RegionLibrary(Library):
    """Voxel store grouped region-by-region, block-by-block."""

    def __init__(self, store: RecordStore, index: SerialIndex):
        super().__init__(store, index)
        self._regions: _RegionTable | None = None
        self._regions_lock = threading.Lock()

    @classmethod
    def build(cls, regions: Mapping[str, Iterable[Voxel]], out_dir: str | Path) -> "RegionLibrary":
        """Write one library and index for a region -> voxels map.

        Blocks of a region stay contiguous and appear in first-use order;
        voxels keep input order within their block. A voxel may appear only
        once per region.
        """
        blob = bytearray()
        entries = []
        start = 0
        for region, voxels in regions.items():
            seen: set[Voxel] = set()
            grouped: dict[str, list[Voxel]] = {}
            for voxel in voxels:
                voxel = Voxel(*voxel)
                if voxel in seen:
                    raise ValueError(f"duplicate voxel {voxel} in region {region}")
                seen.add(voxel)
                grouped.setdefault(block_of(voxel), []).append(voxel)
            for block, members in grouped.items():
                assert len(members) <= BLOCK_CAPACITY
                for voxel in members:
                    blob += _pack_coord(voxel)
                entries.append(SerialIndexEntry(region, block, start, len(members)))
                start += len(members)

        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        index = SerialIndex.create(out_dir / INDEX_FILE)  # holds no fd until used
        with closed_on_error(cls(RecordStore.create(out_dir / DATA_FILE, COORD_RECORD_SIZE), index)) as built:
            built.store.append_payload(bytes(blob))
            for entry in entries:
                index.append(entry)
            index.close_appender()
        return built

    @classmethod
    def open(cls, directory: str | Path) -> "RegionLibrary":
        directory = Path(directory)
        with closed_on_error(RecordStore.open(directory / DATA_FILE)) as store:
            return cls(store, SerialIndex(directory / INDEX_FILE))

    def _read_run(self, start: int, count: int) -> list[Voxel]:
        data = self.store.read_records(start, count)
        return [
            _unpack_coord(data[i * COORD_RECORD_SIZE : (i + 1) * COORD_RECORD_SIZE])
            for i in range(count)
        ]

    def _region_runs(self) -> dict[str, tuple[tuple[int, int], ...]]:
        table = self._regions
        if table is None or table.signature != file_signature(os.stat(self.index.path)):
            with self._regions_lock:
                table = self._regions
                if table is None or table.signature != file_signature(os.stat(self.index.path)):
                    table = self._regions = _load_regions(self.index.path)
        return table.runs

    def block_voxels(self, region: str, block: str) -> list[Voxel]:
        """One index lookup plus one contiguous read."""
        entry = self.index.lookup(region, block)
        return self._read_run(entry.start, entry.count)

    def region_voxels(self, region: str) -> list[Voxel]:
        """The records of every index line named for the region, in file order.

        Duplicate lines are read as often as they appear. The cost is one
        stat of the index, a region-table probe and one contiguous read per
        run of adjacent groups: one read for a library written by ``build``.
        An unknown region raises NotFoundError without reading the store.
        """
        runs = self._region_runs().get(region)
        if runs is None:
            raise NotFoundError(f"no region {region!r} in index")
        voxels = []
        for start, count in runs:
            voxels.extend(self._read_run(start, count))
        return voxels

    def close(self) -> None:
        super().close()
        self._regions = None


def read_atlas_tsv(path: str | Path) -> dict[str, list[Voxel]]:
    """Parse region/x/y/z TSV lines into a region -> voxels map (file order)."""
    regions: dict[str, list[Voxel]] = {}
    with open(path, "r", encoding="ascii") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(f"{path}:{lineno}: expected region<TAB>x<TAB>y<TAB>z")
            regions.setdefault(fields[0], []).append(Voxel(*map(int, fields[1:])))
    return regions
