"""The build order every store-and-index library shares."""

import errno
import os
from pathlib import Path

import pytest
from helpers import atlas_tsv, fd_name, open_fd_count, record_fsyncs, records_tsv

from raclib import store
from raclib.computed_index import ComputedIndex
from raclib.errors import NotFoundError
from raclib.neuro import COORD_RECORD_SIZE, RegionLibrary, Voxel, block_of, read_atlas_tsv
from raclib.pack import CollectionSet, pack_directory
from raclib.serial_index import SerialIndex, SerialIndexEntry
from raclib.ssdi import DeathRecord, SearchQuery, SsdiLibrary, read_records_tsv


def pack_one_page(tmp_path):
    (tmp_path / "in").mkdir(exist_ok=True)
    (tmp_path / "in" / "TallyHo1965_0001.jpg").write_bytes(b"page")
    return pack_directory(tmp_path / "in", "c", tmp_path / "out")


def build_ssdi(tmp_path):
    kennedy = DeathRecord("Kennedy", "Robert", "123456789", "19251120", "19680600")
    tsv = records_tsv(tmp_path / "records.tsv", [kennedy])
    return SsdiLibrary.build(read_records_tsv(tsv), tmp_path / "out")


def build_atlas(tmp_path):
    tsv = atlas_tsv(tmp_path / "atlas.tsv", {"r": [Voxel(-41, 12, -35)]})
    return RegionLibrary.build(read_atlas_tsv(tsv), tmp_path / "out")


@pytest.mark.parametrize(
    "build, index_name",
    [(pack_one_page, "c.index"), (build_ssdi, "groups.index"), (build_atlas, "regions.index")],
)
def test_failed_index_fsync_leaves_no_file_and_a_rerun_succeeds(tmp_path, monkeypatch, build, index_name):
    real_fsync = os.fsync

    def fsync_failing_on_the_index(fd):
        if fd_name(fd) == f".{index_name}.tmp":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync_failing_on_the_index)
    before = open_fd_count()
    with pytest.raises(OSError) as failure:
        build(tmp_path)
    assert failure.value.errno == errno.ENOSPC
    assert list((tmp_path / "out").iterdir()) == []
    assert open_fd_count() == before
    monkeypatch.undo()
    with build(tmp_path) as library:
        assert (tmp_path / "out" / index_name).exists()
        assert library.store.record_count == 1


@pytest.mark.parametrize("build", [pack_one_page, build_ssdi, build_atlas])
def test_failed_sidecar_write_leaves_no_fd_or_file_and_a_rerun_succeeds(tmp_path, monkeypatch, build):
    def no_space(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(store, "_write_meta", no_space)
    before = open_fd_count()
    with pytest.raises(OSError) as failure:
        build(tmp_path)
    assert failure.value.errno == errno.ENOSPC
    assert open_fd_count() == before
    assert list((tmp_path / "out").iterdir()) == []
    monkeypatch.undo()
    with build(tmp_path) as library:
        assert library.store.record_count == 1


@pytest.mark.parametrize("build", [pack_one_page, build_ssdi, build_atlas])
def test_a_built_library_refuses_appends_and_leaves_its_files_alone(tmp_path, build):
    with build(tmp_path) as library:
        path = library.store.path
        published = {p.name: p.read_bytes() for p in path.parent.iterdir()}
        for append in (library.store.append_payload, lambda payload: library.store.append_payloads([payload])):
            with pytest.raises(PermissionError):
                append(b"x")
        assert library.store.record_count == 1
    assert {p.name: p.read_bytes() for p in path.parent.iterdir()} == published
    with store.RecordStore.open(path) as reopened:
        assert reopened.record_count == 1


@pytest.mark.parametrize(
    "build, store_name, index_name",
    [(build_ssdi, "records.raclib", "groups.index"), (build_atlas, "voxels.raclib", "regions.index")],
)
def test_a_build_publishes_its_sidecar_once_after_its_data_fsync(tmp_path, monkeypatch, build, store_name, index_name):
    sidecars = []
    real_write_meta = store._write_meta
    fsyncs = record_fsyncs(monkeypatch)
    monkeypatch.setattr(store, "_write_meta", lambda *args: sidecars.append(args) or real_write_meta(*args))
    build(tmp_path).close()
    # The data, the sidecar's and the index's temps, the new directory "out", then its parent.
    assert fsyncs == [store_name, f".{store_name}.meta.tmp", f".{index_name}.tmp", "out", tmp_path.name]
    assert [count for _, _, count in sidecars] == [1]


def test_a_build_fsyncs_each_directory_it_made_once(tmp_path, monkeypatch):
    fsyncs = record_fsyncs(monkeypatch)
    tsv = atlas_tsv(tmp_path / "atlas.tsv", {"r": [Voxel(-41, 12, -35)]})
    RegionLibrary.build(read_atlas_tsv(tsv), tmp_path / "a" / "b" / "lib").close()
    assert fsyncs == ["voxels.raclib", ".voxels.raclib.meta.tmp", ".regions.index.tmp", "lib", "b", "a", tmp_path.name]
    fsyncs.clear()
    RegionLibrary.build(read_atlas_tsv(tsv), tmp_path / "a").close()  # made nothing: only its own
    assert fsyncs == ["voxels.raclib", ".voxels.raclib.meta.tmp", ".regions.index.tmp", "a"]


def test_empty_builds_publish_their_sidecar_and_reopen(tmp_path):
    tsv = atlas_tsv(tmp_path / "atlas.tsv", {})
    RegionLibrary.build(read_atlas_tsv(tsv), tmp_path / "atlas").close()
    (tmp_path / "in").mkdir()
    pack_directory(tmp_path / "in", "c", tmp_path / "pack").close()
    assert (tmp_path / "atlas" / "voxels.raclib.meta").read_text() == f"record_size={COORD_RECORD_SIZE}\nrecord_count=0\n"
    assert (tmp_path / "pack" / "c.raclib.meta").read_text() == f"record_size={store.DEFAULT_RECORD_SIZE}\nrecord_count=0\n"
    with RegionLibrary.open(tmp_path / "atlas") as atlas:
        assert atlas.store.record_count == 0
        with pytest.raises(NotFoundError):
            atlas.region_voxels("r")
    with CollectionSet.load_dir(tmp_path / "pack") as collections:
        assert [collection.store.record_count for collection in collections.collections] == [0]
        with pytest.raises(NotFoundError):
            collections.fetch("TallyHo1965", "0001")


def test_failed_build_deletes_its_index_before_its_store(tmp_path, monkeypatch):
    """A kill midway through the clean-up then leaves a store no loader sees, never an index without its store."""
    real_fsync, real_unlink = os.fsync, Path.unlink
    deleted = []

    def fsync_failing_on_the_index(fd):
        if fd_name(fd) == ".c.index.tmp":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        real_fsync(fd)

    def unlink(path, missing_ok=False):
        deleted.append(path.name)
        real_unlink(path, missing_ok=missing_ok)

    monkeypatch.setattr(os, "fsync", fsync_failing_on_the_index)
    monkeypatch.setattr(Path, "unlink", unlink)
    with pytest.raises(OSError):
        pack_one_page(tmp_path)
    assert deleted == ["c.index", "c.raclib", "c.raclib.meta"]


def test_opened_libraries_give_back_every_fd_on_close(tmp_path):
    for name, build in (("pack", pack_one_page), ("ssdi", build_ssdi), ("atlas", build_atlas)):
        (tmp_path / name).mkdir()
        build(tmp_path / name).close()
    before = open_fd_count()
    for _ in range(3):
        with CollectionSet.load_dir(tmp_path / "pack" / "out") as collections:
            assert collections.fetch("TallyHo1965", "0001") == b"page"
        with SsdiLibrary.open(tmp_path / "ssdi" / "out") as ssdi:
            assert [r.ssn for r in ssdi.search(SearchQuery(surname="Kennedy", given="Robert"))] == ["123456789"]
        with RegionLibrary.open(tmp_path / "atlas" / "out") as atlas:
            assert atlas.region_voxels("r") == [Voxel(-41, 12, -35)]
            assert atlas.block_voxels("r", block_of(Voxel(-41, 12, -35))) == [Voxel(-41, 12, -35)]
    assert open_fd_count() == before


def create_serial_index(out):
    return SerialIndex.create(out / "c.index", [SerialIndexEntry("TallyHo1965", "0001", 0, 1, 4)])


def create_computed_index(out):
    return ComputedIndex.create(out / "groups.index")


def pack_into(out):
    return pack_one_page(out.parent)


@pytest.mark.parametrize(
    "create, index_name",
    [(create_serial_index, "c.index"), (create_computed_index, "groups.index"), (pack_into, "c.index")],
)
def test_index_appears_at_its_name_only_once_whole_and_fsynced(tmp_path, monkeypatch, create, index_name):
    """A reader that finds the index, a loader or a cold fetch, never finds a prefix of it."""
    index = tmp_path / "out" / index_name
    index.parent.mkdir()
    real_fsync = os.fsync
    synced = []

    def fsync(fd):
        real_fsync(fd)
        if fd_name(fd) == f".{index_name}.tmp":
            synced.append((os.fstat(fd).st_size, index.exists()))

    monkeypatch.setattr(os, "fsync", fsync)
    create(index.parent).close()
    assert synced == [(index.stat().st_size, False)]
    assert [path.name for path in index.parent.iterdir() if path.name.startswith(".")] == []  # no temp left


@pytest.mark.parametrize("create, index_name", [(create_serial_index, "c.index"), (create_computed_index, "groups.index")])
def test_index_create_over_an_existing_file_raises_and_leaves_no_temp(tmp_path, create, index_name):
    (tmp_path / index_name).write_bytes(b"kept")
    before = open_fd_count()
    with pytest.raises(FileExistsError):
        create(tmp_path)
    assert open_fd_count() == before
    assert [path.name for path in tmp_path.iterdir()] == [index_name]
    assert (tmp_path / index_name).read_bytes() == b"kept"
