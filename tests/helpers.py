"""Synthetic corpora shared across test modules."""

import os
import random
import re
import tracemalloc
from pathlib import Path

from raclib.ssdi import DeathRecord, record_tsv_line

SURNAMES = [
    "JOHNSON", "JONES", "JONAS", "KENNEDY", "KENNER", "KENT", "SMITH", "SMYTHE",
    "O'NEIL", "O'BRIEN", "MC-GEE", "DE LA CRUZ", "LI", "NG", "U", "AARON",
    "WASHINGTON", "RIVERA", "GARCIA", "MULLER", "BAKER", "ZHANG", "QUINT",
]

GIVENS = [
    "JAMES", "JOHN", "JOSEPH", "ROBERT", "ROSE", "RALPH", "MARY", "ANNA",
    "D", "J R", "ELIZABETH", "WILL", "WILLIAM", "", "XAVIER", "YOLANDA",
]


def random_name(rng: random.Random, pool: list[str]) -> str:
    if rng.random() < 0.7:
        return rng.choice(pool)
    return "".join(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ") for _ in range(rng.randrange(1, 9)))


def random_death_fields(rng: random.Random, n: int):
    """Yield n (surname, given, ssn, birth, death) field tuples."""
    for _ in range(n):
        birth_year = rng.randrange(1870, 1995)
        death_year = min(birth_year + rng.randrange(0, 95), 2011)
        month = rng.randrange(0, 13)
        day = 0 if rng.random() < 0.2 else rng.randrange(1, 29)
        yield (
            random_name(rng, SURNAMES),
            random_name(rng, GIVENS),
            f"{rng.randrange(10**9):09d}",
            f"{birth_year:04d}{month:02d}{day:02d}",
            f"{death_year:04d}{rng.randrange(0, 13):02d}{rng.randrange(0, 29):02d}",
        )


def unpacked_records(packed) -> list[DeathRecord]:
    """The records of a ``PackedRecords``, group by group, each read back from its compact form by ``DeathRecord``."""
    records = []
    for group, count in zip(packed.groups, packed.counts):
        fields = bytes(group or b"").decode("ascii").split("\n")[:-1]
        assert len(fields) == 5 * count
        records += [DeathRecord(*fields[i : i + 5]) for i in range(0, len(fields), 5)]
    return records


def records_tsv(path, records) -> Path:
    """Write ``records`` to ``path`` as a TSV file for ``read_records_tsv``, a ``record_tsv_line`` each; return ``path``."""
    path = Path(path)
    path.write_text("".join(record_tsv_line(r) + "\n" for r in records), "ascii")
    return path


def atlas_tsv(path, atlas) -> Path:
    """Write a region -> voxels map to ``path`` as a TSV file for ``read_atlas_tsv``, a line per voxel; return ``path``."""
    path = Path(path)
    lines = (f"{region}\t{x}\t{y}\t{z}\n" for region, voxels in atlas.items() for x, y, z in voxels)
    path.write_text("".join(lines), "utf-8")
    return path


_TEMP_SUFFIX = re.compile(r"\.\d+\.\d+\.tmp$")


def fd_name(fd: int) -> str:
    """The base name ``fd`` was opened by; a writer's temp ``.<name>.<pid>.<thread>.tmp`` reads ``.<name>.tmp``."""
    return _TEMP_SUFFIX.sub(".tmp", os.path.basename(os.readlink(f"/proc/self/fd/{fd}")))


def record_fsyncs(monkeypatch) -> list[str]:
    """Patch ``os.fsync`` to log the ``fd_name`` of every fd it syncs; returns the log."""
    names = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: names.append(fd_name(fd)) or real_fsync(fd))
    return names


def open_fd_count() -> int:
    """File descriptors this process holds (raw fds raise no ResourceWarning)."""
    return len(os.listdir("/proc/self/fd"))


def traced_peak(fn) -> int:
    """Peak bytes Python allocated while ``fn()`` ran, above what was live when it began.

    Starts and stops tracing itself, so what the caller built before the call
    (an input already parsed, say) is not counted.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
