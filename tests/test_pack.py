import errno
import os
import random
import re
from pathlib import Path

import pytest
from helpers import open_fd_count, record_fsyncs

from raclib import serial_index, store
from raclib.errors import DuplicateKeyError, NotFoundError
from raclib.pack import (
    Collection,
    CollectionSet,
    pack_directory,
    parse_member_filename,
    read_manifest,
)


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
    with pack_directory(tmp_path / "in", "yearbooks", tmp_path / "out") as collection:
        assert collection.index.entry_count() == 25
        for (name, key), body in pages.items():
            assert collection.fetch(name, key) == body


def test_pack_releases_append_handle_and_keeps_table(tmp_path, monkeypatch):
    passes = []
    real_load = serial_index._load
    monkeypatch.setattr(serial_index, "_load", lambda fd, size: passes.append(size) or real_load(fd, size))
    pages = make_pages(tmp_path / "in", 5)
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("counting open fds needs /proc/self/fd")
    before = open_fd_count()
    with pack_directory(tmp_path / "in", "yearbooks", tmp_path / "out") as collection:
        assert open_fd_count() == before + 2  # the library's fd and the index's, no other handle
        assert len(passes) == 0  # the index was written whole, never read
        for _ in range(3):
            for (name, key), body in pages.items():
                assert collection.fetch(name, key) == body
        assert len(passes) == 1
    assert open_fd_count() == before


def test_pack_appends_in_sorted_order(tmp_path):
    indir = tmp_path / "in"
    indir.mkdir()
    for key in ("0010", "0002", "0001"):
        (indir / f"T_{key}.jpg").write_bytes(key.encode())
    with pack_directory(indir, "t", tmp_path / "out") as collection:
        entries = list(collection.index.entries())
        assert [e.key for e in entries] == ["0001", "0002", "0010"]
        starts = [e.start for e in entries]
        assert starts == sorted(starts)


def test_pack_empty_dir(tmp_path):
    (tmp_path / "in").mkdir()
    with pack_directory(tmp_path / "in", "empty", tmp_path / "out") as collection:
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


def test_unindexable_manifest_row_names_its_line(tmp_path):
    manifest = tmp_path / "members.tsv"
    manifest.write_text("a.jpg\tT\t1\np.jpg\tTally Ho\t0404\n")
    (tmp_path / "a.jpg").write_bytes(b"a")
    with pytest.raises(ValueError, match="^" + re.escape(
        f"{manifest}:2: name must be ASCII without whitespace: 'Tally Ho'"
    )):
        read_manifest(manifest, tmp_path)


@pytest.mark.parametrize("form", ["../outside.jpg", "absolute", "sub/inside.jpg", ".", ".."])
def test_manifest_filename_outside_the_input_directory_names_its_line_and_writes_nothing(tmp_path, form):
    indir = tmp_path / "in"
    (indir / "sub").mkdir(parents=True)
    (indir / "a.jpg").write_bytes(b"a")
    (indir / "sub" / "inside.jpg").write_bytes(b"in a subdirectory")
    (tmp_path / "outside.jpg").write_bytes(b"outside the input directory")
    filename = str(tmp_path / "outside.jpg") if form == "absolute" else form
    manifest = tmp_path / "members.tsv"
    manifest.write_text(f"a.jpg\tT\t1\n{filename}\tT\t2\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{manifest}:2: {filename} is not a plain file name")):
        pack_directory(indir, "c", tmp_path / "out", manifest=manifest)
    assert not (tmp_path / "out").exists()


def test_unindexable_file_name_names_the_file(tmp_path):
    indir = tmp_path / "in"
    indir.mkdir()
    (indir / "Tally Ho_0404.jpg").write_bytes(b"x")
    with pytest.raises(ValueError, match="^" + re.escape(
        f"{indir / 'Tally Ho_0404.jpg'}: name must be ASCII without whitespace: 'Tally Ho'"
    )):
        pack_directory(indir, "c", tmp_path / "out")


def test_pack_with_manifest(tmp_path):
    indir = tmp_path / "in"
    indir.mkdir()
    (indir / "scan-001.dat").write_bytes(b"page one")
    (indir / "ignored.txt").write_bytes(b"not packed")
    manifest = tmp_path / "members.tsv"
    manifest.write_text("scan-001.dat\tTallyHo1965\t0001\n")
    assert read_manifest(manifest, indir) == {"scan-001.dat": ("TallyHo1965", "0001")}
    with pack_directory(indir, "c", tmp_path / "out", manifest=manifest) as collection:
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


def fail_to_read(monkeypatch, name):
    """Make the read of member file ``name`` fail, as a disk error would, once the pack has begun."""
    real_read_bytes = Path.read_bytes

    def read_bytes(path):
        if path.name == name:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return real_read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", read_bytes)


def test_failed_pack_leaves_no_fd(tmp_path, monkeypatch):
    make_pages(tmp_path / "in", 2)
    fail_to_read(monkeypatch, "TallyHo1965_0002.jpg")
    before = open_fd_count()
    with pytest.raises(OSError):
        pack_directory(tmp_path / "in", "c", tmp_path / "out")
    assert open_fd_count() == before


def test_failed_pack_removes_only_the_files_it_created(tmp_path, monkeypatch):
    out = tmp_path / "out"
    make_pages(tmp_path / "other", 2, seed=1)
    pack_directory(tmp_path / "other", "other", out).close()
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    pages = make_pages(tmp_path / "in", 2)
    fail_to_read(monkeypatch, "TallyHo1965_0002.jpg")
    with pytest.raises(OSError) as failure:
        pack_directory(tmp_path / "in", "c", out)
    assert failure.value.errno == errno.EIO
    assert not list(out.glob("c.*"))
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    with CollectionSet.load_dir(out) as group:
        assert group.fetch("TallyHo1965", "0001") == (tmp_path / "other" / "TallyHo1965_0001.jpg").read_bytes()
    monkeypatch.undo()
    with pack_directory(tmp_path / "in", "c", out) as collection:
        assert collection.fetch("TallyHo1965", "0002") == pages["TallyHo1965", "0002"]


def test_collection_open_requires_index(tmp_path):
    make_pages(tmp_path / "in", 1)
    pack_directory(tmp_path / "in", "c", tmp_path / "out").close()
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
    pack_directory(a, "alpha", out).close()
    pack_directory(b, "beta", out).close()
    with CollectionSet.load_dir(out) as group:
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


def write_members(directory, sizes, seed):
    """One file ``T_<key>.bin`` of ``size`` random bytes per ``sizes`` item; returns key -> bytes."""
    rng = random.Random(seed)
    directory.mkdir()
    bodies = {key: rng.randbytes(size) for key, size in sizes.items()}
    for key, body in bodies.items():
        (directory / f"T_{key}.bin").write_bytes(body)
    return bodies


OLD_SIZES = {"0": 40, "a": 3_000, "c": 8_000}
NEW_SIZES = {"0": 5_000, "a": 100, "b": 2_500, "c": 40, "e": 9_000}  # new sizes, and b and e are new


def repack_over(tmp_path, out, sizes):
    """Pack a new ``T`` beside ``out``, then rename its store, sidecar and index over the old ones."""
    bodies = write_members(tmp_path / "new_in", sizes, seed=2)
    pack_directory(tmp_path / "new_in", "T", tmp_path / "new_out").close()
    for name in ("T.raclib", "T.raclib.meta", "T.index"):
        os.replace(tmp_path / "new_out" / name, out / name)
    return bodies


def test_open_collection_set_serves_the_pack_it_opened_after_a_repack(tmp_path):
    old = write_members(tmp_path / "in", OLD_SIZES, seed=1)
    pack_directory(tmp_path / "in", "T", tmp_path / "lib").close()
    with CollectionSet.load_dir(tmp_path / "lib") as collections:
        assert collections.fetch("T", "a") == old["a"]
        new = repack_over(tmp_path, tmp_path / "lib", NEW_SIZES)
        for key, body in old.items():
            assert collections.fetch("T", key) == body
        for key in new.keys() - old.keys():
            with pytest.raises(NotFoundError):
                collections.fetch("T", key)
        assert collections.collections[0].index.entry_count() == len(old)
    with CollectionSet.load_dir(tmp_path / "lib") as collections:
        for key, body in new.items():
            assert collections.fetch("T", key) == body


def test_warm_fetch_makes_no_stat(tmp_path, monkeypatch):
    out = pack_one_member_each(tmp_path, ("a", "b"))
    with CollectionSet.load_dir(out) as collections:
        assert collections.fetch("b", "0001") == b"b" * 100  # builds both tables
        stats = []
        for name in ("stat", "fstat", "lstat"):
            real = getattr(os, name)
            monkeypatch.setattr(os, name, lambda *args, real=real, **kwargs: stats.append(args) or real(*args, **kwargs))
        for _ in range(3):
            assert collections.fetch("b", "0001") == b"b" * 100
            with pytest.raises(NotFoundError):
                collections.fetch("z", "0001")
        monkeypatch.undo()
    assert stats == []


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
    with CollectionSet.load_dir(out) as group:
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
    sidecars = []
    real_write_meta = store._write_meta
    fsyncs = record_fsyncs(monkeypatch)
    monkeypatch.setattr(store, "_write_meta", lambda *args: sidecars.append(args) or real_write_meta(*args))
    with pack_directory(tmp_path / "in", "c", tmp_path / "out", record_size=512) as collection:
        records = sum(-(-len(body) // 512) for body in pages.values())
        assert collection.store.record_count == records
        assert all(collection.fetch(*member) == body for member, body in pages.items())
    # One data fsync, not one per member; the sidecar and the index fsync'd as a temp before
    # its name; the new directory once, so the index's name survives a crash, then its parent.
    assert fsyncs == ["c.raclib", ".c.raclib.meta.tmp", ".c.index.tmp", "out", tmp_path.name]
    assert [count for _, _, count in sidecars] == [records]  # published once, by the commit


def test_manifest_skips_blank_lines_and_names_the_line_of_a_short_one(tmp_path):
    manifest = tmp_path / "members.tsv"
    manifest.write_text("\na.jpg\tT\t1\n\nb.jpg\tT\t2\n")
    (tmp_path / "a.jpg").write_bytes(b"a")
    (tmp_path / "b.jpg").write_bytes(b"b")
    assert read_manifest(manifest, tmp_path) == {"a.jpg": ("T", "1"), "b.jpg": ("T", "2")}
    manifest.write_text("\na.jpg\tT\t1\n\nb.jpg\tT\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{manifest}:4: expected filename<TAB>name<TAB>key")):
        read_manifest(manifest, tmp_path)


def test_manifest_reads_utf8_and_names_the_line_of_other_bytes(tmp_path):
    manifest = tmp_path / "members.tsv"
    manifest.write_bytes("\u00e9.jpg\tT\t1\n".encode() + b"\xe9.jpg\tT\t2\n")
    (tmp_path / "\u00e9.jpg").write_bytes(b"e")
    with pytest.raises(ValueError, match="^" + re.escape(f"{manifest}:2: not UTF-8")):
        read_manifest(manifest, tmp_path)
    manifest.write_bytes("\u00e9.jpg\tT\t1\r\n".encode())
    assert read_manifest(manifest, tmp_path) == {"\u00e9.jpg": ("T", "1")}


def test_manifest_that_lists_a_file_twice_packs_nothing(tmp_path):
    make_pages(tmp_path / "in", 1)
    manifest = tmp_path / "members.tsv"
    manifest.write_text("TallyHo1965_0001.jpg\tT\t1\nTallyHo1965_0001.jpg\tT\t2\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{manifest}:2: TallyHo1965_0001.jpg is listed twice")):
        pack_directory(tmp_path / "in", "c", tmp_path / "out", manifest=manifest)
    assert not (tmp_path / "out").exists()


def test_pack_into_a_new_nested_directory(tmp_path):
    pages = make_pages(tmp_path / "in", 3)
    with pack_directory(tmp_path / "in", "c", tmp_path / "a" / "b" / "out") as collection:
        for (name, key), body in pages.items():
            assert collection.fetch(name, key) == body
