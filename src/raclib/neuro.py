"""Millimeter brain coordinates grouped by region and cubic-centimeter block.

A coordinate is encoded per axis as a sign letter plus the magnitude's
digits, so (-41, 12, -35) is "n41p12n35"; zero takes 'p'. A block names the
10 mm cube a coordinate falls in by sign and decade per axis: "n4_xp1_yn3_z"
covers (-4[0-9], 1[0-9], -3[0-9]). Coordinates of one (region, block) group
are stored as consecutive fixed-width records, one serial-index line per
group, so a block query is one index lookup plus one contiguous read.

A region query reads the region's lines as the serial index's ``runs``:
its (start, count) record runs in index order, adjacent groups merged into
one run, built on the first query and kept while the library is open. So a
region query is a dict probe and one contiguous read per run; a built
library stores each region's groups back to back, so that is one read.
This module never opens or parses an index file itself.

A run is decoded in one pass over its bytes: each 16-byte record is checked
and split into its three axis tokens by one compiled pattern, and each
token is looked up in a table of the canonical tokens met so far. A record
that fails either step is decoded by ``decode_coord``, so it raises as that
does, and adds its tokens to the table if it is canonical;
``decode_coord`` stays the strict parser of names from outside.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .serial_index import SerialIndex, SerialIndexEntry, _check_token
from .store import Library, read_tsv

COORD_BOUND = 999  # 3-digit encoding per axis
COORD_RECORD_SIZE = 16
BLOCK_CAPACITY = 1000  # a cm^3 holds at most 10*10*10 lattice points

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
    return "".join(f"{_decade_code(c)}_{axis}" for c, axis in zip(v, "xyz"))


class _ComponentCodes(dict):
    """One build's memo: component -> (axis code as ASCII, block decade), -41 -> (b"n41", "n4").

    An entry is made on first use, which checks the bounds. Lookups do not
    check the type, so callers pass only ints: 1.0 must not find 1's entry.
    """

    def __missing__(self, value: int) -> tuple[bytes, str]:
        if not -COORD_BOUND <= value <= COORD_BOUND:
            raise ValueError(f"coordinate component out of range [-999, 999]: {value}")
        codes = self[value] = (_axis_code(value).encode("ascii"), _decade_code(value))
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


def _block_records(region: str, voxels: Iterable[Voxel], codes: _ComponentCodes) -> dict[tuple, bytearray]:
    """A region's packed records, one buffer per block in first-use order; a repeated or invalid voxel raises.

    One pass: each voxel is checked, and its record appended to its block's
    buffer, which is keyed by the block's three decade codes.
    """
    seen: set[Voxel] = set()
    blocks: dict[tuple, bytearray] = {}
    for voxel in voxels:
        if type(voxel) is not Voxel:  # a Voxel is immutable, so it is kept, not copied
            voxel = Voxel(*voxel)
        x, y, z = voxel
        if type(x) is not int or type(y) is not int or type(z) is not int:
            raise ValueError(f"coordinate components must be ints: {voxel}")
        size = len(seen)
        seen.add(voxel)
        if len(seen) == size:
            raise ValueError(f"duplicate voxel {voxel} in region {region}")
        (cx, dx), (cy, dy), (cz, dz) = codes[x], codes[y], codes[z]
        record = (cx + cy + cz).ljust(COORD_RECORD_SIZE, b"\x00")
        block = blocks.get((dx, dy, dz))
        if block is None:
            blocks[dx, dy, dz] = bytearray(record)
        else:
            block += record
    return blocks


class RegionLibrary(Library):
    """Voxel store grouped region-by-region, block-by-block."""

    @classmethod
    def build(cls, regions: Mapping[str, Iterable[Voxel]], out_dir: str | Path) -> "RegionLibrary":
        """Write one library and index for a region -> voxels map.

        Blocks of a region stay contiguous and appear in first-use order;
        voxels keep input order within their block. A voxel may appear only
        once per region, and its components must be ints in [-999, 999].
        Every voxel is checked before any file is created. The voxels are
        held once, as their packed records, which ``Library._build`` appends
        with no copy and drops; the index is written last, in one write and
        one fsync, once the voxels are in the library. Each distinct
        component is encoded once per build.
        """
        codes = _ComponentCodes()
        blob = bytearray()
        entries = []
        start = 0
        for region, voxels in regions.items():
            for (dx, dy, dz), records in _block_records(region, voxels, codes).items():
                count = len(records) // COORD_RECORD_SIZE
                assert count <= BLOCK_CAPACITY
                blob += records
                entries.append(SerialIndexEntry(region, f"{dx}_x{dy}_y{dz}_z", start, count))
                start += count

        out_dir = Path(out_dir)
        payloads = iter([blob])
        del blob  # held by the iterator alone, so dropped once on disk, before the index text is built
        return cls._build(
            out_dir / DATA_FILE, COORD_RECORD_SIZE, payloads,
            out_dir / INDEX_FILE, lambda path, refs: SerialIndex.create(path, entries),
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
        probe of the index's runs and one contiguous read per run of
        adjacent groups: one read for a library written by ``build``.
        An unknown region raises NotFoundError without reading the store.
        """
        voxels = []
        for start, count in self.index.runs(region):
            voxels.extend(self._read_run(start, count))
        return voxels


def read_atlas_tsv(path: str | Path) -> dict[str, list[Voxel]]:
    """Parse region/x/y/z TSV lines into a region -> voxels map (file order).

    A component is exactly ``-?[0-9]+``; signs, spaces and underscores that
    ``int()`` would accept raise ``ValueError("path:line: ...")``, as does a
    region an index line cannot hold, checked on the line it first appears.
    Components in range share one int object per value.
    """
    # Canonical text of every in-range component -> one int object. Built per
    # call: held by the module, it would cost every raclib process ~0.4 MB of
    # RSS that only an atlas parse uses.
    shared = {str(value): value for value in range(-COORD_BOUND, COORD_BOUND + 1)}
    new = tuple.__new__
    regions: dict[str, list[Voxel]] = {}
    for lineno, (region, x, y, z), _ in read_tsv(path, 4, "region<TAB>x<TAB>y<TAB>z"):
        try:
            voxel = new(Voxel, (shared[x], shared[y], shared[z]))
        except KeyError:  # leading zeros, out of range (build rejects it) or not an integer
            if not all(map(_INTEGER_RE.fullmatch, (x, y, z))):
                raise ValueError(f"{path}:{lineno}: coordinates must match -?[0-9]+: {x!r} {y!r} {z!r}") from None
            voxel = Voxel(*[shared[text] if text in shared else int(text) for text in (x, y, z)])
        voxels = regions.get(region)
        if voxels is None:
            try:
                _check_token("region", region)
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
            voxels = regions[region] = []
        voxels.append(voxel)
    return regions
