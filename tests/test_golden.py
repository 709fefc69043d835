"""The three builders write the same bytes for the same input, file by file.

Each builder runs over a small fixed input: member files for
``pack_directory``, and TSV files read by ``read_records_tsv`` and
``read_atlas_tsv`` for ``SsdiLibrary.build`` and ``RegionLibrary.build``.
The TSV files mix plain lines with lines that only the per-field checks
take (lower-case, padded and punctuated names, non-canonical coordinates,
CRLF ends, blank lines, no newline at the end). The BLAKE2b digest of every
file each build leaves was recorded from the builders as they were before
the one-match input path and the one-pass atlas build (commit ca85fe1), so
any byte drift in a builder fails here.

A second atlas interleaves its regions and returns to a region's earlier
block after other blocks, so the build must regroup records by region and
then by block. Its digests were recorded from the atlas build as it was
before it packed each line straight into its block's buffer (commit b4600c7).
"""

import hashlib
from pathlib import Path

from raclib.neuro import RegionLibrary, read_atlas_tsv
from raclib.pack import pack_directory
from raclib.ssdi import SsdiLibrary, read_records_tsv

SURNAMES = ["JOHNSON", "JONES", "SMITH", "O'BRIEN", "mcgee", " Kent ", "LI", "U", "DE LA CRUZ", "ZHANG"]
GIVENS = ["JAMES", "MARY", "", "j r", "ANNA", " ROSE", "D", "WILLIAM"]


def member_bytes(i: int) -> bytes:
    """Member ``i``: 0 B, exactly two records, or a length that needs padding."""
    size = (0, 512, 1, 255, 257, 1000, 3333)[i % 7] + 97 * (i // 7)
    seed = hashlib.blake2b(str(i).encode(), digest_size=64).digest()
    return (seed * (size // 64 + 1))[:size]


def records_tsv() -> str:
    lines = []
    for i in range(240):
        surname, given = SURNAMES[i % len(SURNAMES)], GIVENS[i * 7 % len(GIVENS)]
        birth = f"{1870 + i % 97:04d}{i % 13:02d}{i * 5 % 32:02d}"
        death = f"{1940 + i % 71:04d}{(i + 3) % 13:02d}{(i * 3 + 1) % 32:02d}"
        lines.append(f"{surname}\t{given}\t{100_000_000 + 7_919 * i:09d}\t{birth}\t{death}")
    return "\n".join(lines[:100]) + "\n\n" + "\r\n".join(lines[100:120]) + "\r\n" + "\n".join(lines[120:])


def atlas_tsv() -> str:
    lines = []
    for r, region in enumerate(["amygdala", "v1", "hippocampus_left"]):
        for i in range(300):  # distinct voxels in a dozen blocks per region
            lines.append(f"{region}\t{i % 10 - 5 + 3 * r}\t{i // 10 % 10 - 20}\t{i // 100 * 7 - 10}")
    lines[5] = "amygdala\t007\t-0\t-041"  # non-canonical components, the per-field path
    return "\n".join(lines) + "\n"


def interleaved_atlas_tsv() -> str:
    """rA, rB, rA, rC, ... in turn; each region's x decade cycles 0, 1, 2, so its first block comes back."""
    lines = []
    for i in range(240):
        region = ("rA", "rB", "rA", "rC")[i % 4]
        z = "-005" if i % 7 == 0 else "-5"  # some non-canonical
        lines.append(f"{region}\t{10 * (i // 4 % 3) + i % 3}\t{i // 12}\t{z}")
    return "\n".join(lines) + "\n"


def file_digests(directory: Path) -> dict[str, str]:
    return {
        path.name: hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()
        for path in sorted(directory.iterdir())
    }


def build_all(tmp_path: Path) -> dict[str, dict[str, str]]:
    (tmp_path / "in").mkdir()
    for i in range(20):
        (tmp_path / "in" / f"Book_{i:04d}.jpg").write_bytes(member_bytes(i))
    (tmp_path / "records.tsv").write_text(records_tsv(), "ascii")
    (tmp_path / "atlas.tsv").write_text(atlas_tsv(), "ascii")
    (tmp_path / "interleaved.tsv").write_text(interleaved_atlas_tsv(), "ascii")
    pack_directory(tmp_path / "in", "books", tmp_path / "pack", record_size=256).close()
    SsdiLibrary.build(read_records_tsv(tmp_path / "records.tsv"), tmp_path / "ssdi").close()
    RegionLibrary.build(read_atlas_tsv(tmp_path / "atlas.tsv"), tmp_path / "atlas").close()
    RegionLibrary.build(read_atlas_tsv(tmp_path / "interleaved.tsv"), tmp_path / "interleaved").close()
    return {kind: file_digests(tmp_path / kind) for kind in ("pack", "ssdi", "atlas", "interleaved")}


GOLDEN = {
    "pack": {
        "books.index": "522de7b7c5778a0ceff3664042a82193",
        "books.raclib": "9cf4f2aa1722654858d29610e115be36",
        "books.raclib.meta": "978599bf01bbbee4e31c3ccd1fdf3ab5",
    },
    "ssdi": {
        "groups.index": "0e06926cbd3270da8f18c7e0d1edaf7c",
        "records.raclib": "dd4c9dfb7eab221a556c9835c3af409a",
        "records.raclib.meta": "8ece34183df6a6cd8dafd22409f21994",
    },
    "atlas": {
        "regions.index": "ce2a60f56b8dabef90dfd443b2bb5277",
        "voxels.raclib": "22995874c072885def4b1bd25fd5505d",
        "voxels.raclib.meta": "6d475a041ac2d783413812ad337f8e4f",
    },
    "interleaved": {
        "regions.index": "b6c346a3af7b61ad5839ff808d6c6aa0",
        "voxels.raclib": "e736db26cc2e414518a146a5a5009ce4",
        "voxels.raclib.meta": "5aa4bcb7e972304710344c56ebf3b525",
    },
}


def test_builders_write_the_recorded_bytes(tmp_path):
    assert build_all(tmp_path) == GOLDEN
