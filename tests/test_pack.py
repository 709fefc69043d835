import os
import random

import pytest
from helpers import open_fd_count

from raclib import serial_index, store
from raclib.errors import DuplicateKeyError, NotFoundError
from raclib.pack import (
    Collection,
    CollectionSet,
    pack_directory,
    parse_member_filename,
    read_manifest,
)
from raclib.serial_index import SerialIndexEntry


def test_parse_member_filename():
    assert parse_member_filename("TallyHo1965_0404.jpg") == ("TallyHo1965", "0404")
    assert parse_member_filename("Tally_Ho_0404.jpg") == ("Tally_Ho", "0404")
    assert parse_member_filename("A_1") == ("A", "1")


@pytest.mark.parametrize("bad", ["nounderscore.jpg", "_1.jpg", "name_.jpg"])
def test_parse_member_filename_rejects(bad):
    with pytest.raises(ValueError):
        parse_member_filename(bad)


def make_pages(directory, n, seed=0):
    rng = random.Random(seed)
    directory.mkdir(exist_ok=True)
    pages = {}
    for i in range(n):
        name, key = "TallyHo1965", f"{i + 1:04d}"
        body = b"\xff\xd8\xff" + rng.randbytes(rng.randrange(100, 5000))
        (directory / f"{name}_{key}.jpg").write_bytes(body)
        pages[name, key] = body
    return pages


def test_pack_fetch_round_trip(tmp_path):
    pages = make_pages(tmp_path / "in", 25)
    collection = pack_directory(tmp_path / "in", "yearbooks", tmp_path / "out")
    assert collection.index.entry_count() == 25
    for (name, key), body in pages.items():
        assert collection.fetch(name, key) == body


def test_pack_releases_append_handle_and_keeps_table(tmp_path, monkeypatch):
    passes = []
    real_load = serial_index._load
    monkeypatch.setattr(serial_index, "_load", lambda path: passes.append(path) or real_load(path))
    pages = make_pages(tmp_path / "in", 5)
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("counting open fds needs /proc/self/fd")
    before = open_fd_count()
    with pack_directory(tmp_path / "in", "yearbooks", tmp_path / "out") as collection:
        assert open_fd_count() == before + 1  # the library's own fd, no index handle
        assert len(passes) == 0  # the index was written whole, never read
        for (name, key), body in pages.items():
            assert collection.fetch(name, key) == body
        assert len(passes) == 1
        collection.index.append(SerialIndexEntry("Extra", "0001", 0, 1, 1))
        assert collection.fetch("Extra", "0001") == pages["TallyHo1965", "0001"][:1]
        assert len(passes) == 1


def test_pack_appends_in_sorted_order(tmp_path):
    indir = tmp_path / "in"
    indir.mkdir()
    for key in ("0010", "0002", "0001"):
        (indir / f"T_{key}.jpg").write_bytes(key.encode())
    collection = pack_directory(indir, "t", tmp_path / "out")
    entries = list(collection.index.entries())
    assert [e.key for e in entries] == ["0001", "0002", "0010"]
    starts = [e.start for e in entries]
    assert starts == sorted(starts)


def test_pack_empty_dir(tmp_path):
    (tmp_path / "in").mkdir()
    collection = pack_directory(tmp_path / "in", "empty", tmp_path / "out")
    assert collection.store.record_count == 0
    assert collection.index.entry_count() == 0


def test_pack_duplicate_member_identity(tmp_path):
    indir = tmp_path / "in"
    indir.mkdir()
    (indir / "a_1.jpg").write_bytes(b"x")
    (indir / "a_1.png").write_bytes(b"y")
    with pytest.raises(DuplicateKeyError):
        pack_directory(indir, "dup", tmp_path / "out")


def test_pack_unparsable_filename_without_manifest(tmp_path):
    indir = tmp_path / "in"
    indir.mkdir()
    (indir / "README").write_bytes(b"hello")
    with pytest.raises(ValueError):
        pack_directory(indir, "c", tmp_path / "out")


@pytest.mark.parametrize("bad", ["T\u00e4lly_0001.jpg", "Tally Ho_0001.jpg", "Tally_000\u0661.jpg"])
def test_pack_rejects_unindexable_names_before_writing(tmp_path, bad):
    indir = tmp_path / "in"
    indir.mkdir()
    (indir / "Alpha_0001.jpg").write_bytes(b"packed first in sorted order")
    (indir / bad).write_bytes(b"x")
    with pytest.raises(ValueError):
        pack_directory(indir, "c", tmp_path / "out")
    assert list((tmp_path / "out").glob("*")) == []
    (indir / bad).unlink()
    pack_directory(indir, "c", tmp_path / "out").close()  # a rerun finds nothing in its way


def test_pack_rejects_unindexable_manifest_names(tmp_path):
    make_pages(tmp_path / "in", 1)
    manifest = tmp_path / "members.tsv"
    manifest.write_text("TallyHo1965_0001.jpg\tTally Ho\t0001\n")
    with pytest.raises(ValueError):
        pack_directory(tmp_path / "in", "c", tmp_path / "out", manifest=manifest)
    assert list((tmp_path / "out").glob("*")) == []


def test_pack_with_manifest(tmp_path):
    indir = tmp_path / "in"
    indir.mkdir()
    (indir / "scan-001.dat").write_bytes(b"page one")
    (indir / "ignored.txt").write_bytes(b"not packed")
    manifest = tmp_path / "members.tsv"
    manifest.write_text("scan-001.dat\tTallyHo1965\t0001\n")
    assert read_manifest(manifest) == {"scan-001.dat": ("TallyHo1965", "0001")}
    collection = pack_directory(indir, "c", tmp_path / "out", manifest=manifest)
    assert collection.fetch("TallyHo1965", "0001") == b"page one"
    assert collection.index.entry_count() == 1


def test_collection_open_fetches(tmp_path):
    make_pages(tmp_path / "in", 3)
    pack_directory(tmp_path / "in", "c", tmp_path / "out").close()
    with Collection.open(tmp_path / "out" / "c.raclib") as collection:
        body = collection.fetch("TallyHo1965", "0002")
        assert body == (tmp_path / "in" / "TallyHo1965_0002.jpg").read_bytes()
        with pytest.raises(NotFoundError):
            collection.fetch("TallyHo1965", "9999")


def test_failed_pack_leaves_no_fd(tmp_path):
    make_pages(tmp_path / "in", 2)
    manifest = tmp_path / "members.tsv"  # the second file is missing
    manifest.write_text("TallyHo1965_0001.jpg\tA\t1\nmissing.jpg\tB\t2\n")
    before = open_fd_count()
    with pytest.raises(FileNotFoundError):
        pack_directory(tmp_path / "in", "c", tmp_path / "out", manifest=manifest)
    assert open_fd_count() == before


def test_failed_pack_removes_only_the_files_it_created(tmp_path):
    out = tmp_path / "out"
    make_pages(tmp_path / "other", 2, seed=1)
    pack_directory(tmp_path / "other", "other", out).close()
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    make_pages(tmp_path / "in", 2)
    manifest = tmp_path / "members.tsv"
    manifest.write_text("TallyHo1965_0001.jpg\tA\t1\nmissing.jpg\tB\t2\n")
    with pytest.raises(FileNotFoundError):
        pack_directory(tmp_path / "in", "c", out, manifest=manifest)
    assert not list(out.glob("c.*"))
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    with CollectionSet.load_dir(out) as group:
        assert group.fetch("TallyHo1965", "0001") == (tmp_path / "other" / "TallyHo1965_0001.jpg").read_bytes()
    (tmp_path / "in" / "missing.jpg").write_bytes(b"late page")
    with pack_directory(tmp_path / "in", "c", out, manifest=manifest) as collection:
        assert collection.fetch("B", "2") == b"late page"


def test_collection_open_requires_index(tmp_path):
    make_pages(tmp_path / "in", 1)
    pack_directory(tmp_path / "in", "c", tmp_path / "out")
    (tmp_path / "out" / "c.index").unlink()
    with pytest.raises(FileNotFoundError):
        Collection.open(tmp_path / "out" / "c.raclib")


def test_collection_set_spans_libraries(tmp_path):
    a = tmp_path / "a"
    a.mkdir()
    (a / "AlphaBook_0001.jpg").write_bytes(b"alpha")
    b = tmp_path / "b"
    b.mkdir()
    (b / "BetaBook_0001.jpg").write_bytes(b"beta")
    out = tmp_path / "lib"
    pack_directory(a, "alpha", out)
    pack_directory(b, "beta", out)
    group = CollectionSet.load_dir(out)
    assert group.fetch("AlphaBook", "0001") == b"alpha"
    assert group.fetch("BetaBook", "0001") == b"beta"
    with pytest.raises(NotFoundError):
        group.fetch("GammaBook", "0001")


def test_collection_set_failed_load_leaves_no_fd(tmp_path):
    out = tmp_path / "lib"
    for name in ("a", "b", "c"):
        make_pages(tmp_path / name, 2)
        pack_directory(tmp_path / name, name, out).close()
    (out / "c.raclib.meta").unlink()  # a and b open before c fails
    before = open_fd_count()
    for _ in range(5):
        with pytest.raises(FileNotFoundError):
            CollectionSet.load_dir(out)
    assert open_fd_count() == before


def pack_one_member_each(tmp_path, names):
    out = tmp_path / "lib"
    for name in names:
        (tmp_path / name).mkdir()
        (tmp_path / name / f"{name}_0001.jpg").write_bytes(name.encode() * 100)
        pack_directory(tmp_path / name, name, out).close()
    return out


def test_collection_set_loads_around_a_store_whose_build_left_no_index(tmp_path):
    out = pack_one_member_each(tmp_path, ("a", "b", "c"))
    (out / "b.index").unlink()  # a build killed between its store and its index
    with CollectionSet.load_dir(out) as collections:
        assert [c.store.path.name for c in collections.collections] == ["a.raclib", "c.raclib"]
        assert collections.fetch("a", "0001") == b"a" * 100
        assert collections.fetch("c", "0001") == b"c" * 100
        with pytest.raises(NotFoundError):
            collections.fetch("b", "0001")


def test_open_collection_set_serves_a_member_another_writer_appends(tmp_path):
    out = pack_one_member_each(tmp_path, ("c",))
    body = random.Random(5).randbytes(3000)
    with CollectionSet.load_dir(out) as collections:
        assert collections.fetch("c", "0001") == b"c" * 100
        with store.RecordStore.open(out / "c.raclib", mode="a") as writer, \
                serial_index.SerialIndex(out / "c.index") as index:
            ref = writer.append_payload(body)
            index.append(SerialIndexEntry("c", "0002", ref.start, ref.count, ref.byte_length))
        assert collections.fetch("c", "0002") == body
        reader = collections.collections[0].store
        assert reader.record_count == 4
        with open(out / "c.raclib", "ab") as f:
            f.write(bytes(2 * 1024))  # two records that no sidecar update commits
        with pytest.raises(IndexError):
            reader.read_records(4, 1)
        # A sidecar counting past the end of the file commits only what the file holds.
        store._write_meta(out / "c.raclib.meta", 1024, 10)
        assert reader.read_records(5, 1) == bytes(1024)
        with pytest.raises(IndexError):
            reader.read_records(6, 1)
        assert reader.record_count == 6


def test_collection_set_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        CollectionSet.load_dir(tmp_path / "nope")


def test_collection_set_reads_one_index_line_per_hit_and_none_per_miss(tmp_path):
    out = tmp_path / "lib"
    for c in range(4):
        indir = tmp_path / f"in{c}"
        indir.mkdir()
        for i in range(500):
            (indir / f"Book{c}_{i:04d}.jpg").write_bytes(f"{c}/{i}".encode())
        pack_directory(indir, f"coll{c}", out).close()
    group = CollectionSet.load_dir(out)
    assert group.fetch("Book3", "0499") == b"3/499"
    indexes = [collection.index for collection in group.collections]
    assert sum(index.counters.reads for index in indexes) == 1
    line = (out / "coll3.index").read_text().splitlines(keepends=True)[-1]
    assert sum(index.counters.bytes_read for index in indexes) == len(line)
    for index in indexes:
        index.counters.reset()
    with pytest.raises(NotFoundError):
        group.fetch("Book3", "9999")
    assert sum(index.counters.reads for index in indexes) == 0


def test_pack_is_one_fsync_and_one_sidecar_update(tmp_path, monkeypatch):
    pages = make_pages(tmp_path / "in", 5)
    fsyncs, sidecars = [], []
    real_fsync, real_write_meta = os.fsync, store._write_meta

    def fsync_naming_the_file(fd):
        fsyncs.append(os.path.basename(os.readlink(f"/proc/self/fd/{fd}")))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync_naming_the_file)
    monkeypatch.setattr(store, "_write_meta", lambda *args: sidecars.append(args) or real_write_meta(*args))
    with pack_directory(tmp_path / "in", "c", tmp_path / "out", record_size=512) as collection:
        records = sum(-(-len(body) // 512) for body in pages.values())
        assert collection.store.record_count == records
        assert all(collection.fetch(*member) == body for member, body in pages.items())
    assert sorted(fsyncs) == ["c.index", "c.raclib"]  # one each, not one per member
    assert [count for _, _, count in sidecars] == [0, records]  # create, then the one update
