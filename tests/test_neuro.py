import os
import random
import re
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import open_fd_count, traced_peak

from raclib import serial_index
from raclib.errors import NotFoundError
from raclib.neuro import (
    COORD_RECORD_SIZE,
    RegionLibrary,
    Voxel,
    block_of,
    decode_coord,
    encode_coord,
    _unpack_run,
    read_atlas_tsv,
)
from raclib.store import RecordStore


def test_encode_known_coordinate():
    assert encode_coord(Voxel(-41, 12, -35)) == "n41p12n35"


def test_zero_encodes_positive():
    assert encode_coord(Voxel(0, 0, 0)) == "p0p0p0"


def test_encode_bounds():
    assert encode_coord(Voxel(-999, 999, 1)) == "n999p999p1"
    with pytest.raises(ValueError):
        encode_coord(Voxel(1000, 0, 0))
    with pytest.raises(ValueError):
        encode_coord(Voxel(0, -1000, 0))


def test_decode_known_coordinate():
    assert decode_coord("n41p12n35") == Voxel(-41, 12, -35)
    assert decode_coord("p0p0p0") == Voxel(0, 0, 0)


MALFORMED = ["x41p12", "p1p2", "n41p12n35junk", "p01p0p0", "n0p0p0", "", "p1p2p3p4", "pp1p2", "n-1p2p3"]


@pytest.mark.parametrize("bad", MALFORMED)
def test_decode_rejects_malformed(bad):
    with pytest.raises(ValueError):
        decode_coord(bad)


def test_encode_decode_round_trip_random():
    rng = random.Random(6)
    for _ in range(2000):
        v = Voxel(*(rng.randint(-999, 999) for _ in range(3)))
        assert decode_coord(encode_coord(v)) == v


def test_block_of_known_coordinate():
    assert block_of(Voxel(-41, 12, -35)) == "n4_xp1_yn3_z"
    assert block_of(Voxel(5, -7, 60)) == "p0_xn0_yp6_z"


@pytest.mark.parametrize(
    "value, code",
    [(-49, "n4"), (-40, "n4"), (-9, "n0"), (-1, "n0"), (0, "p0"), (9, "p0"), (10, "p1"), (999, "p99")],
)
def test_block_decade_rule(value, code):
    assert block_of(Voxel(value, 0, 0)).split("_")[0] == code


def test_axis_classes_partition_the_range():
    classes = {}
    for v in range(-999, 1000):
        classes.setdefault(block_of(Voxel(v, 0, 0)).split("_")[0], []).append(v)
    assert sum(len(vals) for vals in classes.values()) == 1999
    assert all(len(vals) <= 10 for vals in classes.values())


def axis_range(value):
    """The ten integers sharing value's sign-and-decade class."""
    decade = abs(value) // 10
    if value >= 0:
        return range(10 * decade, 10 * decade + 10)
    if decade == 0:
        return range(-9, 0)  # n0
    return range(-(10 * decade + 9), -(10 * decade) + 1)


def test_block_membership_consistency():
    rng = random.Random(13)
    for _ in range(50):
        v = Voxel(*(rng.randint(-99, 99) for _ in range(3)))
        block = block_of(v)
        cube = [
            Voxel(x, y, z)
            for x in axis_range(v.x)
            for y in axis_range(v.y)
            for z in axis_range(v.z)
        ]
        assert len(cube) in (9**i * 10 ** (3 - i) for i in range(4))  # n0 axes hold 9
        assert all(block_of(member) == block for member in cube)


def test_build_groups_same_block(tmp_path):
    with RegionLibrary.build(
        {"L_ctx_middletemporal": [Voxel(-41, 12, -35), Voxel(-42, 13, -36)]}, tmp_path / "lib"
    ) as lib:
        entries = list(lib.index.entries())
        assert len(entries) == 1
        assert (entries[0].name, entries[0].key) == ("L_ctx_middletemporal", "n4_xp1_yn3_z")
        assert (entries[0].start, entries[0].count) == (0, 2)
        line = (tmp_path / "lib" / "regions.index").read_text()
        assert line == "L_ctx_middletemporal n4_xp1_yn3_z 0 2\n"


def test_build_empty_map(tmp_path):
    with RegionLibrary.build({}, tmp_path / "lib") as lib:
        assert lib.store.record_count == 0
        assert lib.index.entry_count() == 0


def test_build_rejects_duplicate_voxel(tmp_path):
    with pytest.raises(ValueError, match="duplicate voxel"):
        RegionLibrary.build({"r": [Voxel(1, 2, 3), Voxel(1, 2, 3)]}, tmp_path / "lib")


@pytest.mark.parametrize(
    "voxels",
    [[(1.5, 2, 3)], [(1, 2, 3), (1.0, 5, 6)], [(1, 2, "3")], [(True, 2, 3)]],
)
def test_build_rejects_components_that_are_not_ints(tmp_path, voxels):
    # (1.0, 5, 6) follows (1, 2, 3) so that 1.0 would find 1's encoding if it were looked up.
    with pytest.raises(ValueError, match="must be ints"):
        RegionLibrary.build({"r": voxels}, tmp_path / "lib")
    assert not (tmp_path / "lib").exists()
    with pytest.raises(ValueError, match="must be ints"):
        encode_coord(voxels[-1])
    with pytest.raises(ValueError, match="must be ints"):
        block_of(voxels[-1])


def test_records_are_fixed_width_null_padded(tmp_path):
    RegionLibrary.build({"r": [Voxel(-41, 12, -35)]}, tmp_path / "lib").close()
    raw = (tmp_path / "lib" / "voxels.raclib").read_bytes()
    assert raw == b"n41p12n35" + b"\x00" * 7
    assert len(raw) == COORD_RECORD_SIZE


def random_atlas(rng, n_regions=10, per_region=300):
    atlas = {}
    for r in range(n_regions):
        cx, cy, cz = (rng.randint(-900, 900) for _ in range(3))
        voxels = set()
        while len(voxels) < per_region:
            voxels.add(
                Voxel(
                    max(-999, min(999, cx + rng.randint(-15, 15))),
                    max(-999, min(999, cy + rng.randint(-15, 15))),
                    max(-999, min(999, cz + rng.randint(-15, 15))),
                )
            )
        atlas[f"region_{r:02d}"] = list(voxels)
    return atlas


def test_rebuild_and_compare_atlas(tmp_path):
    rng = random.Random(21)
    atlas = random_atlas(rng)
    with RegionLibrary.build(atlas, tmp_path / "lib") as lib:
        for region, voxels in atlas.items():
            assert sorted(lib.region_voxels(region)) == sorted(voxels)
        # groups of one region are contiguous and ordered
        entries = list(lib.index.entries())
        names = [e.name for e in entries]
        assert names == sorted(names, key=lambda n: names.index(n))  # no interleaving
        for prev, entry in zip(entries, entries[1:]):
            assert entry.start == prev.start + prev.count


def test_region_voxels_is_concatenation_of_blocks(tmp_path):
    rng = random.Random(4)
    atlas = random_atlas(rng, n_regions=3)
    with RegionLibrary.build(atlas, tmp_path / "lib") as lib:
        region = "region_01"
        concatenated = []
        for entry in lib.index.entries():
            if entry.name == region:
                concatenated.extend(lib.block_voxels(region, entry.key))
        assert lib.region_voxels(region) == concatenated


def test_block_voxels_uses_one_read(tmp_path):
    with RegionLibrary.build({"r": [Voxel(-41, 12, -35), Voxel(-42, 13, -36)]}, tmp_path / "lib") as lib:
        lib.store.counters.reset()
        assert len(lib.block_voxels("r", "n4_xp1_yn3_z")) == 2
        assert lib.store.counters.reads == 1
        assert lib.store.counters.bytes_read == 2 * COORD_RECORD_SIZE


def test_unknown_region_and_block(tmp_path):
    with RegionLibrary.build({"r": [Voxel(1, 2, 3)]}, tmp_path / "lib") as lib:
        with pytest.raises(NotFoundError):
            lib.region_voxels("nope")
        with pytest.raises(NotFoundError):
            lib.block_voxels("r", "p9_xp9_yp9_z")


def test_atlas_tsv_round_trip(tmp_path):
    path = tmp_path / "atlas.tsv"
    path.write_text("rA\t-41\t12\t-35\nrB\t1\t2\t3\nrA\t-42\t13\t-36\n")
    atlas = read_atlas_tsv(path)
    assert atlas == {
        "rA": [Voxel(-41, 12, -35), Voxel(-42, 13, -36)],
        "rB": [Voxel(1, 2, 3)],
    }
    with pytest.raises(ValueError):
        read_atlas_tsv_path = tmp_path / "bad.tsv"
        read_atlas_tsv_path.write_text("rA\t1\t2\n")
        read_atlas_tsv(read_atlas_tsv_path)


@pytest.mark.parametrize("component", ["1_0", "+5", " 5", "5 ", "", "1.0", "--1", "0x1"])
def test_atlas_tsv_accepts_only_plain_integers(tmp_path, component):
    path = tmp_path / "atlas.tsv"
    path.write_text(f"rA\t1\t2\t3\nrA\t4\t{component}\t6\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:2: ")):
        read_atlas_tsv(path)


def test_atlas_tsv_reads_leading_zeros_and_shares_components(tmp_path):
    path = tmp_path / "atlas.tsv"
    path.write_text("rA\t007\t-0\t-041\nrA\t-999\t999\t1000\nrB\t-999\t999\t12\n")
    atlas = read_atlas_tsv(path)
    assert atlas == {"rA": [Voxel(7, 0, -41), Voxel(-999, 999, 1000)], "rB": [Voxel(-999, 999, 12)]}
    assert atlas["rA"][1].x is atlas["rB"][0].x and atlas["rA"][1].y is atlas["rB"][0].y


def compact_atlas(seed: int, regions: int, voxels: int) -> dict[str, list[Voxel]]:
    """Regions of distinct voxels, each inside a 30 mm box: a few dozen cm^3 blocks apiece."""
    rng = random.Random(seed)
    atlas = {}
    for r in range(regions):
        low = rng.randrange(-70, 40)
        cells = rng.sample(range(30**3), voxels)
        atlas[f"region_{r}"] = [Voxel(low + c % 30, low + c // 30 % 30, low + c // 900) for c in cells]
    return atlas


def test_build_holds_voxels_once_as_records(tmp_path):
    path = tmp_path / "atlas.tsv"
    path.write_text("".join(
        f"{region}\t{v.x}\t{v.y}\t{v.z}\n" for region, voxels in compact_atlas(3, 20, 3000).items() for v in voxels
    ))
    regions = read_atlas_tsv(path)
    # Above the parsed input: the 960,000 B of packed records, the index, one region's grouping.
    assert traced_peak(lambda: RegionLibrary.build(regions, tmp_path / "lib").close()) <= 1_500_000
    assert (tmp_path / "lib" / "voxels.raclib").stat().st_size == 60_000 * COORD_RECORD_SIZE


def test_reopen_library(tmp_path):
    RegionLibrary.build({"r": [Voxel(-41, 12, -35)]}, tmp_path / "lib").close()
    with RegionLibrary.open(tmp_path / "lib") as lib:
        assert lib.region_voxels("r") == [Voxel(-41, 12, -35)]


def test_open_without_index_raises_and_leaves_no_fd(tmp_path):
    RegionLibrary.build({"r": [Voxel(-41, 12, -35)]}, tmp_path / "lib").close()
    (tmp_path / "lib" / "regions.index").unlink()
    before = open_fd_count()
    for _ in range(5):
        with pytest.raises(FileNotFoundError):
            RegionLibrary.open(tmp_path / "lib")
    assert open_fd_count() == before


def test_region_query_is_one_read_of_its_records(tmp_path):
    atlas = random_atlas(random.Random(8), n_regions=4)
    with RegionLibrary.build(atlas, tmp_path / "lib") as lib:
        for region, voxels in atlas.items():
            assert len({e.key for e in lib.index.entries() if e.name == region}) > 1
            lib.store.counters.reset()
            assert sorted(lib.region_voxels(region)) == sorted(voxels)
            assert lib.store.counters.reads == 1
            assert lib.store.counters.bytes_read == len(voxels) * COORD_RECORD_SIZE


def count_index_passes(monkeypatch):
    passes = []
    real_load = serial_index._load_runs

    def counting_load(fd, size):
        passes.append(size)
        return real_load(fd, size)

    monkeypatch.setattr(serial_index, "_load_runs", counting_load)
    return passes


@pytest.mark.parametrize("bad", MALFORMED)
def test_malformed_record_in_the_store_fails_block_and_region_queries(tmp_path, bad):
    voxels = [Voxel(1, 2, 3), Voxel(4, 5, 6), Voxel(7, 8, 9)]
    RegionLibrary.build({"r": voxels}, tmp_path / "lib").close()
    with open(tmp_path / "lib" / "voxels.raclib", "r+b") as f:
        f.seek(COORD_RECORD_SIZE)  # the middle record
        f.write(bad.encode("ascii").ljust(COORD_RECORD_SIZE, b"\0"))
    with RegionLibrary.open(tmp_path / "lib") as lib:
        with pytest.raises(ValueError):
            lib.block_voxels("r", block_of(voxels[0]))
        with pytest.raises(ValueError):
            lib.region_voxels("r")


def test_region_library_serves_the_build_it_opened_after_a_rebuild(tmp_path):
    rng = random.Random(9)
    old = random_atlas(rng, n_regions=3, per_region=40)
    new = {name: voxels[:rng.randrange(5, 40)] for name, voxels in reversed(old.items())}  # new order and sizes
    new["region_new"] = [Voxel(1, 2, 3), Voxel(15, 2, 3)]
    RegionLibrary.build(old, tmp_path / "lib").close()
    RegionLibrary.build(new, tmp_path / "rebuilt").close()
    with RegionLibrary.open(tmp_path / "lib") as lib:
        assert sorted(lib.region_voxels("region_00")) == sorted(old["region_00"])
        for name in ("voxels.raclib", "voxels.raclib.meta", "regions.index"):
            os.replace(tmp_path / "rebuilt" / name, tmp_path / "lib" / name)
        for region, voxels in old.items():
            assert sorted(lib.region_voxels(region)) == sorted(voxels)
            assert lib.block_voxels(region, block_of(voxels[0])) == [v for v in voxels if block_of(v) == block_of(voxels[0])]
        with pytest.raises(NotFoundError):
            lib.region_voxels("region_new")
        with pytest.raises(NotFoundError):
            lib.block_voxels("region_new", block_of(Voxel(1, 2, 3)))
    with RegionLibrary.open(tmp_path / "lib") as lib:
        for region, voxels in new.items():
            assert sorted(lib.region_voxels(region)) == sorted(voxels)


def test_unknown_region_reads_nothing_from_the_store(tmp_path):
    with RegionLibrary.build({"r": [Voxel(1, 2, 3)]}, tmp_path / "lib") as lib:
        for _ in range(2):  # before and after the table exists
            lib.store.counters.reset()
            with pytest.raises(NotFoundError):
                lib.region_voxels("nope")
            assert lib.store.counters.reads == 0


def run_threads(targets, timeout=30):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target) for target in targets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_region_queries_build_runs_once(tmp_path, monkeypatch):
    passes = count_index_passes(monkeypatch)
    a = [Voxel(1, 2, 3), Voxel(15, 2, 3)]
    b = [Voxel(-41, 12, -35), Voxel(-42, 13, -36)]
    with RegionLibrary.build({"a": a, "b": b}, tmp_path / "lib") as lib:
        barrier = threading.Barrier(8)
        first = []

        def first_query():
            barrier.wait()
            first.append(lib.region_voxels("a"))

        run_threads([first_query] * 8)
        assert first == [a] * 8
        for _ in range(10):
            assert lib.region_voxels("b") == b
        assert len(passes) == 1


STORE_RECORDS = 40
index_lines = st.lists(
    st.tuples(
        st.sampled_from("abc"),  # region
        st.sampled_from(["k1", "k2"]),  # block key: a small set, so lines repeat
        st.booleans(),  # follow on from the region's previous line
        st.integers(0, STORE_RECORDS),
        st.integers(0, 6),
    ),
    max_size=30,
)


@settings(max_examples=60)
@given(index_lines)
def test_region_voxels_matches_a_scan_of_the_index(lines):
    with tempfile.TemporaryDirectory() as tmp:
        lib_dir = Path(tmp)
        store = RecordStore.create(lib_dir / "voxels.raclib", record_size=COORD_RECORD_SIZE)
        store.append_payload(b"".join(
            encode_coord(Voxel(i, -i, 7)).encode("ascii").ljust(COORD_RECORD_SIZE, b"\0")
            for i in range(STORE_RECORDS)
        ))
        store.close()
        ends = {}
        text = []
        for region, key, follow_on, start, count in lines:
            if follow_on and region in ends:
                start = ends[region]
            count = min(count, STORE_RECORDS - start)
            ends[region] = start + count
            text.append(f"{region} {key} {start} {count}\n")
        (lib_dir / "regions.index").write_text("".join(text))
        with RegionLibrary.open(lib_dir) as lib:
            for region in "abcd":
                # The oracle: every line named for the region, in file order.
                entries = [e for e in lib.index.entries() if e.name == region]
                expected = [
                    Voxel(i, -i, 7) for e in entries for i in range(e.start, e.start + e.count)
                ]
                if entries:
                    assert lib.region_voxels(region) == expected
                else:
                    with pytest.raises(NotFoundError):
                        lib.region_voxels(region)


def _unpack_each(data: bytes) -> list[Voxel]:
    """The reference: ``decode_coord`` of each record on its own."""
    return [
        decode_coord(data[o : o + COORD_RECORD_SIZE].rstrip(b"\0").decode("ascii"))
        for o in range(0, len(data), COORD_RECORD_SIZE)
    ]


axis = st.integers(-999, 999)
stored_records = st.one_of(
    st.builds(lambda *v: encode_coord(Voxel(*v)).encode("ascii"), axis, axis, axis),
    st.sampled_from(MALFORMED).map(str.encode),
    st.binary(max_size=COORD_RECORD_SIZE),
    st.text(st.sampled_from("pn0129\0"), max_size=COORD_RECORD_SIZE).map(str.encode),
).map(lambda raw: raw.ljust(COORD_RECORD_SIZE, b"\0"))


@settings(max_examples=300)
@given(st.lists(stored_records, max_size=12))
def test_unpack_run_equals_decode_coord_per_record(records):
    data = b"".join(records)
    try:
        expected = _unpack_each(data)
    except ValueError:
        with pytest.raises(ValueError):
            _unpack_run(data)
    else:
        assert _unpack_run(data) == expected
        assert all(type(v) is Voxel for v in _unpack_run(data))


def test_atlas_tsv_skips_blank_lines_and_names_the_line_of_a_short_one(tmp_path):
    path = tmp_path / "atlas.tsv"
    path.write_text("\nrA\t1\t2\t3\n\nrA\t4\t5\t6\n")
    assert read_atlas_tsv(path) == {"rA": [Voxel(1, 2, 3), Voxel(4, 5, 6)]}
    path.write_text("\nrA\t1\t2\t3\n\nrA\t4\t5\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:4: expected region<TAB>x<TAB>y<TAB>z")):
        read_atlas_tsv(path)


def test_atlas_tsv_names_the_line_of_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "atlas.tsv"
    path.write_bytes(b"rA\t1\t2\t3\nr\xe9\t4\t5\t6\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:2: not UTF-8")):
        read_atlas_tsv(path)


def test_build_into_a_new_nested_directory(tmp_path):
    with RegionLibrary.build({"r": [Voxel(1, 2, 3)]}, tmp_path / "a" / "b" / "lib") as lib:
        assert lib.region_voxels("r") == [Voxel(1, 2, 3)]
