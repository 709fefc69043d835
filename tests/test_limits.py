"""raclib under the per-user limits of a shared host, each set by a child process on itself.

A child lowers its own limit with ``resource.setrlimit`` and then runs the
command through ``raclib.cli.main``; no limit of the test process or of the
machine changes.
"""

import random
import subprocess
import sys

from raclib import serial_index
from raclib.neuro import RegionLibrary
from raclib.pack import Collection, pack_directory
from raclib.ssdi import SearchQuery, SsdiLibrary

# Reads its own VmPeak after importing the CLI, caps its address space at that plus a margin, then runs argv.
LIMITED_CLI = """
import resource, sys
import raclib.cli
with open("/proc/self/status") as f:
    peak = next(int(line.split()[1]) * 1024 for line in f if line.startswith("VmPeak:"))
resource.setrlimit(resource.RLIMIT_AS, (peak + int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(raclib.cli.main(sys.argv[2:]))
"""
MIB = 1 << 20


def test_pack_holds_one_member_at_a_time_under_an_address_space_limit(tmp_path):
    (tmp_path / "in").mkdir()
    members = {}
    for i in range(400):  # 100 MB of input, against a 16 MiB margin
        key = f"{i + 1:04d}"
        members[key] = random.Random(i).randbytes(250_000)
        (tmp_path / "in" / f"Book_{key}.jpg").write_bytes(members[key])
    out = subprocess.run(
        [sys.executable, "-c", LIMITED_CLI, str(16 * MIB), "pack", "--in", str(tmp_path / "in"),
         "--collection", "books", "--out", str(tmp_path / "lib"), "--record-size", "4096"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    with Collection.open(tmp_path / "lib" / "books.raclib") as collection:
        for key, payload in members.items():
            assert collection.fetch("Book", key) == payload, key


def test_cold_fetch_of_a_million_line_index_builds_its_slot_file_under_one_address_space_limit(tmp_path):
    """A 10 MiB margin over the CLI's import peak fits the first fetch on a 1M-line index, which builds its table.

    The table is the slot file's words, built in one array: a directory of
    65,536 buckets and one word per line, 8.5 MB at 1M lines. A table of
    1.5 slots per line, 12 MB, did not fit this margin. The second fetch
    reads the slot file the first published and builds nothing, so the file
    keeps its inode.
    """
    (tmp_path / "in").mkdir()
    payload = random.Random(1).randbytes(3000)
    (tmp_path / "in" / "Book_0000000.jpg").write_bytes(payload)
    pack_directory(tmp_path / "in", "books", tmp_path / "lib").close()
    index = tmp_path / "lib" / "books.index"
    _, _, start, count, length = index.read_text().split()
    index.unlink()
    lines = 1_000_000
    with open(index, "w") as f:  # every line locates the one member
        for low in range(0, lines, 10_000):
            f.write("".join(f"Book {i:07d} {start} {count} {length}\n" for i in range(low, low + 10_000)))
    slots = serial_index.slots_path(index)
    inodes = []
    for run in ("first", "second"):
        out = subprocess.run(
            [sys.executable, "-c", LIMITED_CLI, str(10 * MIB), "fetch", "--library", str(index.with_suffix(".raclib")),
             "--name", "Book", "--key", f"{lines - 1:07d}", "--out", str(tmp_path / f"{run}.jpg")],
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert (tmp_path / f"{run}.jpg").read_bytes() == payload
        assert slots.stat().st_size == 8 * (serial_index.HEADER_WORDS + 65_536 + 1 + lines + 1)
        inodes.append(slots.stat().st_ino)
    assert inodes[0] == inodes[1]


def write_atlas_tsv(path, voxels: int) -> None:
    """``voxels`` voxels in regions of 10,000: region r fills a 25 x 20 x 20 mm box of its own, ~18 cm^3 blocks."""
    with open(path, "w") as f:
        for r in range(voxels // 10_000):
            x0, y0 = r % 10 * 25 - 250, r // 10 * 20 - 100
            f.write("".join(f"r{r}\t{x0 + i % 25}\t{y0 + i // 25 % 20}\t{i // 500 - 10}\n" for i in range(10_000)))


def test_neuro_build_holds_its_packed_records_under_one_address_space_limit(tmp_path):
    """One 32 MiB margin over the CLI's import peak fits an atlas of 100k voxels and one of 1M.

    The build holds each voxel as its 16-byte record until the library is
    written, so its memory is proportional to the packed output, 16 MB at
    1M voxels plus each block buffer's overhead: it is not bounded, and an
    atlas of a few million voxels would not fit this margin. A build that
    held a Python object per voxel, ~100 B each, needed over 100 MB at 1M.
    """
    for voxels in (100_000, 1_000_000):
        tsv, lib = tmp_path / f"atlas{voxels}.tsv", tmp_path / f"lib{voxels}"
        write_atlas_tsv(tsv, voxels)
        out = subprocess.run(
            [sys.executable, "-c", LIMITED_CLI, str(32 * MIB), "neuro", "build", "--in", str(tsv), "--out", str(lib)],
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        with RegionLibrary.open(lib) as library:
            assert library.store.record_count == voxels
            assert len(library.region_voxels(f"r{voxels // 10_000 - 1}")) == 10_000


LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def record_names(i: int) -> tuple[str, str]:
    """Record ``i``'s surname and given name: its key letters count through the 17,576 groups in turn."""
    return f"{LETTERS[i % 26]}{LETTERS[i // 26 % 26]}SMITH", f"{LETTERS[i // 676 % 26]}OHN"


def write_records_tsv(path, records: int) -> None:
    """``records`` plain lines of 45 bytes, record ``i`` named by ``record_names(i)``."""
    with open(path, "w") as f:
        for low in range(0, records, 10_000):
            f.write("".join(
                "{}\t{}\t{:09d}\t19000101\t19700101\n".format(*record_names(i), i)
                for i in range(low, min(records, low + 10_000))
            ))


def test_ssdi_build_holds_its_compact_records_under_one_address_space_limit(tmp_path):
    """One 60 MiB margin over the CLI's import peak fits a build of 100k records and one of 1M.

    The build holds each record in its compact form, its five fields each
    ended by a newline, until its group is written: ~47 MiB of address
    space at 1M records of 45 bytes. Its memory is proportional to the
    input, not bounded, and a build of a few million records would not fit
    this margin. A build that held each record as its padded 64 bytes,
    ~74 MiB at 1M, did not fit it.
    """
    for records in (100_000, 1_000_000):
        tsv, lib = tmp_path / f"records{records}.tsv", tmp_path / f"lib{records}"
        write_records_tsv(tsv, records)
        out = subprocess.run(
            [sys.executable, "-c", LIMITED_CLI, str(60 * MIB), "ssdi", "build", "--in", str(tsv), "--out", str(lib)],
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        with SsdiLibrary.open(lib) as library:
            assert library.store.record_count == records
            surname, given = record_names(records - 1)
            assert f"{records - 1:09d}" in [r.ssn for r in library.search(SearchQuery(surname=surname, given=given))]
