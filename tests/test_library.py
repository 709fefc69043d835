"""The build order every store-and-index library shares."""

import errno
import os
from pathlib import Path

import pytest
from helpers import open_fd_count

from raclib import store
from raclib.neuro import RegionLibrary, Voxel
from raclib.pack import pack_directory
from raclib.ssdi import DeathRecord, SsdiLibrary
from raclib.store import RecordStore


def pack_one_page(tmp_path):
    (tmp_path / "in").mkdir(exist_ok=True)
    (tmp_path / "in" / "TallyHo1965_0001.jpg").write_bytes(b"page")
    return pack_directory(tmp_path / "in", "c", tmp_path / "out")


def build_ssdi(tmp_path):
    kennedy = DeathRecord("Kennedy", "Robert", "123456789", "19251120", "19680600")
    return SsdiLibrary.build([kennedy], tmp_path / "out")


def build_atlas(tmp_path):
    return RegionLibrary.build({"r": [Voxel(-41, 12, -35)]}, tmp_path / "out")


@pytest.mark.parametrize(
    "build, index_name",
    [(pack_one_page, "c.index"), (build_ssdi, "groups.index"), (build_atlas, "regions.index")],
)
def test_failed_index_fsync_leaves_no_file_and_a_rerun_succeeds(tmp_path, monkeypatch, build, index_name):
    real_fsync = os.fsync

    def fsync_failing_on_the_index(fd):
        if os.readlink(f"/proc/self/fd/{fd}").endswith("/" + index_name):
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


def test_failed_build_deletes_its_index_before_its_store(tmp_path, monkeypatch):
    """A kill midway through the clean-up then leaves a store no loader sees, never an index without its store."""
    real_fsync, real_unlink = os.fsync, Path.unlink
    deleted = []

    def fsync_failing_on_the_index(fd):
        if os.readlink(f"/proc/self/fd/{fd}").endswith("/c.index"):
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


@pytest.mark.parametrize("build", [pack_one_page, build_ssdi, build_atlas])
def test_builder_handle_reads_records_another_writer_appends(tmp_path, build):
    with build(tmp_path) as library:
        record = b"x" * library.store.record_size
        with RecordStore.open(library.store.path, mode="a") as writer:
            ref = writer.append_payload(record)
        assert library.store.read_records(ref.start, 1) == record
