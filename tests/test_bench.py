import hashlib
import os
import random

import pytest
from helpers import record_fsyncs

from raclib import bench, store
from raclib.bench import (
    build_scan_archive,
    compare_offsets,
    decade_edges,
    histogram,
    histogram_csv,
    measure_fetch,
    scan_extract,
    serial_baseline,
    synth_library,
)

# sha256 of the 512 x 256 B seed-7 store, recorded on first generation
SYNTH_512_256_SEED7 = "ce264d56cdc0c906ac501a6177096a61dab65dc6bc5c049f93736719a9a76038"


def test_synth_library_is_deterministic(tmp_path):
    synth_library(tmp_path / "a", 512, record_size=256, seed=7).close()
    synth_library(tmp_path / "b", 512, record_size=256, seed=7).close()
    digest = hashlib.sha256((tmp_path / "a").read_bytes()).hexdigest()
    assert digest == SYNTH_512_256_SEED7
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    assert (tmp_path / "a").stat().st_size == 512 * 256


def test_synth_library_seed_changes_content(tmp_path):
    synth_library(tmp_path / "a", 64, record_size=64, seed=1).close()
    synth_library(tmp_path / "b", 64, record_size=64, seed=2).close()
    assert (tmp_path / "a").read_bytes() != (tmp_path / "b").read_bytes()


def test_synth_library_empty(tmp_path):
    with synth_library(tmp_path / "a", 0, record_size=64, seed=1) as store:
        assert store.record_count == 0
        assert (tmp_path / "a").stat().st_size == 0


def test_synth_library_is_one_fsync_and_one_sidecar_update(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SYNTH_CHUNK_BYTES", 1024)  # 16 records of 64 B a chunk: 7 chunks
    sidecars = []
    real_write_meta = store._write_meta
    fsyncs = record_fsyncs(monkeypatch)
    monkeypatch.setattr(store, "_write_meta", lambda *args: sidecars.append(args) or real_write_meta(*args))
    with synth_library(tmp_path / "a", 100, record_size=64, seed=7) as synth:
        assert synth.record_count == 100
    assert fsyncs == ["a", ".a.meta.tmp"]  # one data fsync, then the sidecar's temp before its rename
    assert [count for _, _, count in sidecars] == [100]  # published once, by the commit
    assert (tmp_path / "a").stat().st_size == 100 * 64


def test_measure_fetch_counts_exact_bytes(tmp_path):
    with synth_library(tmp_path / "s", 2000, record_size=128, seed=3) as store:
        for start in (0, 1770):
            stats = measure_fetch(store, start, 230, trials=5)
            assert len(stats.samples) == 5
            assert all(s.bytes_read == 230 * 128 for s in stats.samples)
            assert stats.min_us <= stats.median_us <= stats.max_us
            assert stats.min_us <= stats.mean_us <= stats.max_us


def test_measure_fetch_zero_count(tmp_path):
    with synth_library(tmp_path / "s", 10, record_size=64, seed=0) as store:
        stats = measure_fetch(store, 5, 0, trials=3)
        assert all(s.bytes_read == 0 for s in stats.samples)


def test_measure_fetch_rejects_bad_range(tmp_path):
    with synth_library(tmp_path / "s", 10, record_size=64, seed=0) as store:
        with pytest.raises(IndexError):
            measure_fetch(store, 9, 2, trials=1)
        with pytest.raises(ValueError):
            measure_fetch(store, 0, 1, trials=0)


def test_compare_offsets_interleaves(tmp_path):
    with synth_library(tmp_path / "s", 500, record_size=64, seed=5) as store:
        near, far = compare_offsets(store, 0, 400, count=50, trials=9)
        assert len(near.samples) == len(far.samples) == 9
        assert all(s.start == 0 for s in near.samples)
        assert all(s.start == 400 for s in far.samples)
        with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
            compare_offsets(store, 0, 400, count=50, trials=0)


def archive_members(n, seed=0):
    rng = random.Random(seed)
    return [rng.randbytes(rng.randrange(200, 1200)) for _ in range(n)]


def test_scan_archive_round_trip(tmp_path):
    members = archive_members(100)
    assert build_scan_archive(tmp_path / "arch", members) == 100
    for k in (0, 37, 99):
        payload, _ = scan_extract(tmp_path / "arch", k)
        assert payload == members[k]


def test_scan_archive_bytes_read_grows_with_ordinal(tmp_path):
    members = archive_members(100, seed=2)
    build_scan_archive(tmp_path / "arch", members)
    total = (tmp_path / "arch").stat().st_size

    _, first = scan_extract(tmp_path / "arch", 0)
    assert first == 16 + len(members[0])

    _, last = scan_extract(tmp_path / "arch", 99)
    assert last == total
    assert last - first >= (100 - 2) / 100 * total

    reads = [scan_extract(tmp_path / "arch", k)[1] for k in range(0, 100, 7)]
    assert reads == sorted(reads)


def test_scan_archive_ordinal_out_of_range(tmp_path):
    build_scan_archive(tmp_path / "arch", archive_members(3))
    with pytest.raises(IndexError):
        scan_extract(tmp_path / "arch", 3)
    with pytest.raises(IndexError):
        scan_extract(tmp_path / "arch", -1)


def test_scan_archive_truncated_in_a_header(tmp_path):
    members = archive_members(3)
    build_scan_archive(tmp_path / "arch", members)
    os.truncate(tmp_path / "arch", 16 + len(members[0]) + 5)  # five bytes of the second member's header
    assert scan_extract(tmp_path / "arch", 0)[0] == members[0]
    with pytest.raises(ValueError, match="truncated archive header"):
        scan_extract(tmp_path / "arch", 1)


def test_serial_baseline_sample(tmp_path):
    members = archive_members(50, seed=9)
    build_scan_archive(tmp_path / "arch", members)
    sample = serial_baseline(tmp_path / "arch", 49)
    assert sample.bytes_read == (tmp_path / "arch").stat().st_size
    assert sample.elapsed_us > 0


def test_histogram_conserves_samples():
    rng = random.Random(1)
    values = [rng.uniform(1, 9000) for _ in range(1000)]
    rows = histogram(values)
    assert sum(count for _, _, count in rows) == 1000
    assert rows[0][0] <= min(values) and rows[-1][1] >= max(values)


def test_histogram_single_sample():
    rows = histogram([42.0])
    assert sum(count for _, _, count in rows) == 1
    assert sum(1 for _, _, count in rows if count) == 1


def test_histogram_empty_is_error():
    with pytest.raises(ValueError):
        histogram([])


def test_histogram_upper_edge_is_inclusive():
    rows = histogram([10.0, 100.0], edges=[10, 100])
    assert rows == [(10.0, 100.0, 2)]


def test_histogram_rejects_uncovering_edges():
    with pytest.raises(ValueError):
        histogram([1, 2000], edges=[1, 10, 100])
    with pytest.raises(ValueError):
        histogram([1], edges=[5, 1])


def test_heavy_tail_reaches_top_decade():
    rng = random.Random(3)
    values = [rng.uniform(1, 10) ** 4 for _ in range(500)]  # skewed to the top
    rows = histogram(values, edges=decade_edges(values))
    assert rows[-1][2] > 0


@pytest.mark.parametrize("values", [[0, 5], [-1, 5], [5, 0.0]])
def test_decade_edges_need_positive_values(values):
    with pytest.raises(ValueError, match="decade bins need positive values"):
        decade_edges(values)


def test_histogram_csv_format():
    out = histogram_csv([5, 50], edges=[1, 10, 100])
    assert out == "bin_low,bin_high,count\n1,10,1\n10,100,1\n"
