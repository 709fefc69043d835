"""Seeded benchmark inputs, the cheap fixture writers, and the oracles.

Every generator takes the workload seed; the same seed gives the same
members, records, atlas and request streams. raclib only ever sees the
generated inputs. The oracles are computed here from the generated values,
never through raclib, so they can catch a wrong answer from any layer.

The fixture writers produce the on-disk formats ``raclib pack``,
``raclib ssdi build`` and ``raclib neuro build`` write (records padded with
NULs, the ``.meta`` sidecar, ASCII index lines, the 17,576-entry computed
index) through the public ``RecordStore``/``SerialIndex``/``ComputedIndex``
API, but in a few large appends instead of one fsync per member: only the
``ingest`` workload times the build functions themselves.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from raclib.computed_index import GROUP_COUNT, ComputedIndex, GroupEntry
from raclib.neuro import COORD_RECORD_SIZE
from raclib.neuro import DATA_FILE as NEURO_DATA_FILE
from raclib.neuro import INDEX_FILE as NEURO_INDEX_FILE
from raclib.pack import INDEX_SUFFIX, LIBRARY_SUFFIX
from raclib.serial_index import SerialIndex, SerialIndexEntry
from raclib.ssdi import DATA_FILE as SSDI_DATA_FILE
from raclib.ssdi import INDEX_FILE as SSDI_INDEX_FILE
from raclib.ssdi import RECORD_SIZE as SSDI_RECORD_SIZE
from raclib.store import RecordStore

APPEND_CHUNK_BYTES = 16 * 1024 * 1024
PAYLOAD_MIN = 512
PAYLOAD_MAX = 8192
POOL_BYTES = 1 << 20
PAGES_PER_TITLE = 100
TITLE_WORDS = ("TallyHo", "Gazette", "Ledger", "Courier", "Almanac")


def digest(value) -> str:
    """Stable digest of a canonical (sorted, plain-tuple) result."""
    return hashlib.blake2b(repr(value).encode(), digest_size=16).hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# -- packed image collections ---------------------------------------------------


@dataclass(frozen=True)
class Member:
    name: str
    key: str
    size: int
    offset: int  # into the payload pool


class MemberSet:
    """Members of ``collections`` packed collections, in load order.

    Names follow the pack filename convention ``<name>_<key>``: titles
    contain ``_`` and keys (page numbers) contain none. Payload sizes are
    log-uniform between 0.5 and 8 KiB. Each payload starts with its own
    ``name_key`` line, so no two members share bytes, followed by a slice of
    a seeded random pool, so payloads can be rebuilt for checking without
    keeping them all in memory.
    """

    def __init__(self, seed: int, collections: int, per_collection: int):
        rng = random.Random(f"members-{seed}")
        self.pool = rng.randbytes(POOL_BYTES + PAYLOAD_MAX)
        self.collections: list[list[Member]] = []
        for c in range(collections):
            members = []
            for i in range(per_collection):
                title, page = divmod(i, PAGES_PER_TITLE)
                size = int(PAYLOAD_MIN * (PAYLOAD_MAX / PAYLOAD_MIN) ** rng.random())
                members.append(Member(
                    name=f"{TITLE_WORDS[title % len(TITLE_WORDS)]}_{c:02d}{title:04d}",
                    key=f"{page:04d}",
                    size=size,
                    offset=rng.randrange(POOL_BYTES),
                ))
            # pack_directory appends in sorted (name, key) order.
            members.sort(key=lambda m: (m.name, m.key))
            self.collections.append(members)
        self.members = [m for members in self.collections for m in members]

    def payload(self, m: Member) -> bytes:
        head = f"{m.name}_{m.key}\n".encode("ascii")
        return head + self.pool[m.offset : m.offset + m.size - len(head)]

    def payload_bytes(self) -> int:
        return sum(m.size for m in self.members)

    def unknown_key(self, rng: random.Random) -> tuple[str, str]:
        """A well-formed request for a page no collection holds."""
        m = self.members[rng.randrange(len(self.members))]
        return m.name, f"{rng.randrange(PAGES_PER_TITLE, 10_000):04d}"

    def write_library(self, out_dir: Path, record_size: int = 1024) -> None:
        """Write one ``<coll>.raclib`` + ``<coll>.index`` pair per collection."""
        out_dir.mkdir(parents=True, exist_ok=True)
        for c, members in enumerate(self.collections):
            stem = f"coll{c:02d}"
            store = RecordStore.create(out_dir / (stem + LIBRARY_SUFFIX), record_size)
            index = SerialIndex.create(out_dir / (stem + INDEX_SUFFIX))
            chunk = bytearray()
            lines = []
            start = 0
            for m in members:
                data = self.payload(m)
                count = -(-len(data) // record_size)
                chunk += data
                chunk += bytes(count * record_size - len(data))
                lines.append(SerialIndexEntry(m.name, m.key, start, count, len(data)).line())
                start += count
                if len(chunk) >= APPEND_CHUNK_BYTES:
                    store.append_payload(bytes(chunk))
                    chunk.clear()
            if chunk:
                store.append_payload(bytes(chunk))
            store.close()
            with open(index.path, "a", encoding="ascii") as f:
                f.write("".join(lines))

    def write_files(self, out_dir: Path) -> None:
        """Write every member as ``<name>_<key>.jpg``, as ``raclib pack`` reads them."""
        out_dir.mkdir(parents=True, exist_ok=True)
        for m in self.members:
            (out_dir / f"{m.name}_{m.key}.jpg").write_bytes(self.payload(m))


class RequestStream:
    """Seeded (name, key, member position or None) requests.

    ``zipf_s`` None spreads members uniformly over load order: positions
    follow a golden-ratio sequence from a seeded start, so every prefix of
    the stream covers load order evenly and the work per request does not
    depend on how many requests a run gets through. Otherwise ranks follow a
    Zipf law with that exponent over a seeded permutation of the members.
    Exactly ``unknown_share`` of the requests, evenly spaced, are planted
    unknown keys.
    """

    GOLDEN = (5 ** 0.5 - 1) / 2

    def __init__(self, members: MemberSet, seed: int, unknown_share: float = 0.0,
                 zipf_s: float | None = None):
        self._members = members
        self._rng = random.Random(f"requests-{seed}")
        self._unknown_share = unknown_share
        self._sent = 0
        self._ranked = None
        if zipf_s is None:
            self._phase = self._rng.random()
        else:
            self._ranked = list(range(len(members.members)))
            self._rng.shuffle(self._ranked)
            self._cum = _zipf_cum(len(self._ranked), zipf_s)

    def next(self) -> tuple[str, str, int | None]:
        rng = self._rng
        share = self._unknown_share
        self._sent += 1
        if int(self._sent * share) > int((self._sent - 1) * share):
            return (*self._members.unknown_key(rng), None)
        if self._ranked is None:
            self._phase = (self._phase + self.GOLDEN) % 1.0
            pos = int(self._phase * len(self._members.members))
        else:
            pos = rng.choices(self._ranked, cum_weights=self._cum)[0]
        m = self._members.members[pos]
        return m.name, m.key, pos


# -- death records ----------------------------------------------------------------

_CONSONANTS = "BCDFGHKLMNPRSTVWZJ"
_CONSONANT_WEIGHTS = (6, 5, 5, 3, 5, 5, 4, 6, 7, 4, 4, 6, 7, 5, 2, 5, 1, 2)
_VOWELS = "AEIOUY"


def _name_pool(rng: random.Random, n: int, min_len: int, max_len: int) -> list[str]:
    names = set()
    while len(names) < n:
        length = rng.randint(min_len, max_len)
        letters = []
        for i in range(length):
            if i % 2 == 0:
                letters.append(rng.choices(_CONSONANTS, _CONSONANT_WEIGHTS)[0])
            else:
                letters.append(rng.choice(_VOWELS))
        names.add("".join(letters))
    return sorted(names)


def _zipf_cum(n: int, s: float) -> list[float]:
    total, cum = 0.0, []
    for r in range(n):
        total += 1.0 / (r + 1) ** s
        cum.append(total)
    return cum


def _ordinal(surname: str, given: str) -> int:
    a = ord("A")
    return (ord(given[0]) - a) + 26 * (ord(surname[1]) - a) + 676 * (ord(surname[0]) - a)


class DeathRecords:
    """``n`` synthetic people with Zipf-popular surnames and given names.

    Records are plain tuples (surname, given, ssn, birth, death), the
    canonical form results are compared in. Names are upper-case letters
    only, surnames at least 3 and given names at least 2 long.

    The name pools and their popularity ranks are one fixed population, so
    the sizes of the key-letter groups, which set the cost of a search, do
    not change from seed to seed; the seed draws the people and the queries.
    """

    SURNAMES = 6000
    GIVENS = 400

    def __init__(self, seed: int, n: int):
        population = random.Random("ssdi-population")
        surnames = _name_pool(population, self.SURNAMES, 3, 9)
        givens = _name_pool(population, self.GIVENS, 2, 7)
        population.shuffle(surnames)
        population.shuffle(givens)
        self._surnames = (surnames, _zipf_cum(len(surnames), 0.9))
        self._givens = (givens, _zipf_cum(len(givens), 1.0))
        rng = random.Random(f"ssdi-{seed}")
        s_pick = rng.choices(surnames, cum_weights=self._surnames[1], k=n)
        g_pick = rng.choices(givens, cum_weights=self._givens[1], k=n)
        ssns = rng.sample(range(10**8, 10**9), n)
        self.records = []
        for surname, given, ssn in zip(s_pick, g_pick, ssns):
            year = rng.randint(1880, 1990)
            birth = f"{year}{rng.randint(0, 12):02d}{rng.randint(0, 28):02d}"
            death_year = min(2010, year + rng.randint(0, 100))
            death = f"{death_year}{rng.randint(1, 12):02d}{rng.randint(1, 28):02d}"
            self.records.append((surname, given, str(ssn), birth, death))
        self._buckets: dict[tuple[str, str], list[tuple]] = {}
        for r in self.records:
            self._buckets.setdefault((r[0][:3], r[1][:2]), []).append(r)

    @staticmethod
    def line(r: tuple) -> bytes:
        return f"{r[0]:<24}{r[1]:<12}{r[2]}{r[3]}{r[4]}  \n".encode("ascii")

    def tsv(self) -> str:
        """The input ``raclib ssdi build`` reads: surname, given, ssn, birth, death."""
        return "".join("\t".join(r) + "\n" for r in self.records)

    def write_library(self, out_dir: Path) -> None:
        """Group by key letters into ``records.raclib`` + ``groups.index``."""
        out_dir.mkdir(parents=True, exist_ok=True)
        groups: dict[int, list[bytes]] = {}
        for r in self.records:
            groups.setdefault(_ordinal(r[0], r[1]), []).append(self.line(r))
        with RecordStore.create(out_dir / SSDI_DATA_FILE, SSDI_RECORD_SIZE) as store:
            store.append_payload(b"".join(b"".join(groups[o]) for o in sorted(groups)))
        entries, start = [], 0
        for ordinal in range(GROUP_COUNT):
            count = len(groups.get(ordinal, ()))
            entries.append(GroupEntry(start, count))
            start += count
        with ComputedIndex.create(out_dir / SSDI_INDEX_FILE) as index:
            index.write_all(entries)
            index.sync()

    def query(self, rng: random.Random) -> tuple[str, str, int | None]:
        """A fully specified query (>= 3 surname, >= 2 given letters) with hits."""
        r = self.records[rng.randrange(len(self.records))]
        # Half the queries use the shortest prefixes, which hit the most records.
        surname = r[0][: 3 if rng.random() < 0.5 else rng.randint(3, len(r[0]))]
        given = r[1][: 2 if rng.random() < 0.5 else rng.randint(2, len(r[1]))]
        year = int(r[3][:4]) if rng.random() < 0.5 else None
        return surname, given, year

    def population_query(self, rng: random.Random) -> tuple[str, str, None]:
        """A shortest-prefix query for a name pair drawn from the fixed population.

        Unlike ``query`` it does not depend on the seed's people, so the same
        ``rng`` gives the same queries, and nearly the same work, on every seed.
        """
        (surname,) = rng.choices(self._surnames[0], cum_weights=self._surnames[1])
        (given,) = rng.choices(self._givens[0], cum_weights=self._givens[1])
        return surname[:3], given[:2], None

    def expected(self, surname: str, given: str, year: int | None) -> list[tuple]:
        """Brute-force answer over the query's (3, 2)-letter prefix bucket."""
        return sorted(
            r for r in self._buckets.get((surname[:3], given[:2]), ())
            if r[0].startswith(surname) and r[1].startswith(given)
            and (year is None or int(r[3][:4]) == year)
        )


# -- brain atlas ----------------------------------------------------------------------


def encode_voxel(v: tuple[int, int, int]) -> str:
    return "".join(("p" if c >= 0 else "n") + str(abs(c)) for c in v)


def block_name(v: tuple[int, int, int]) -> str:
    return "".join(f"{'p' if c >= 0 else 'n'}{abs(c) // 10}_{axis}" for c, axis in zip(v, "xyz"))


class Atlas:
    """``regions`` regions of ``voxels`` distinct voxels each.

    Each region fills a random box of 26-32 mm per side, so it spans about
    60 cm^3 blocks; regions may overlap each other.
    """

    def __init__(self, seed: int, regions: int, voxels: int):
        rng = random.Random(f"atlas-{seed}")
        self.regions: dict[str, list[tuple[int, int, int]]] = {}
        for r in range(regions):
            side = [rng.randint(26, 32) for _ in range(3)]
            while side[0] * side[1] * side[2] < voxels:
                side = [s + 1 for s in side]
            low = [rng.randint(-70, 70 - s) for s in side]
            cells = rng.sample(range(side[0] * side[1] * side[2]), voxels)
            points = []
            for cell in cells:
                cell, x = divmod(cell, side[0])
                z, y = divmod(cell, side[1])
                points.append((low[0] + x, low[1] + y, low[2] + z))
            self.regions[f"ctx_region_{r:03d}"] = points
        self.blocks: dict[tuple[str, str], list[tuple[int, int, int]]] = {}
        for region, points in self.regions.items():
            for v in points:
                self.blocks.setdefault((region, block_name(v)), []).append(v)

    def tsv(self) -> str:
        """The input ``raclib neuro build`` reads: region, x, y, z."""
        return "".join(
            f"{region}\t{x}\t{y}\t{z}\n"
            for region, points in self.regions.items() for x, y, z in points
        )

    def write_library(self, out_dir: Path) -> None:
        """Region-by-region, block-by-block ``voxels.raclib`` + ``regions.index``."""
        out_dir.mkdir(parents=True, exist_ok=True)
        blob = bytearray()
        lines = []
        start = 0
        for (region, block), points in self.blocks.items():
            for v in points:
                blob += encode_voxel(v).encode("ascii").ljust(COORD_RECORD_SIZE, b"\x00")
            lines.append(SerialIndexEntry(region, block, start, len(points)).line())
            start += len(points)
        with RecordStore.create(out_dir / NEURO_DATA_FILE, COORD_RECORD_SIZE) as store:
            store.append_payload(bytes(blob))
        index = SerialIndex.create(out_dir / NEURO_INDEX_FILE)
        with open(index.path, "a", encoding="ascii") as f:
            f.write("".join(lines))

