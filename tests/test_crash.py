"""A build killed at any file-system call leaves no library, or a whole one.

Each build's calls to ``os.open``, ``pwritev``, ``fsync``, ``link``,
``replace``, ``unlink`` and ``mkdir`` are recorded once. Then, for each k,
a forked child reruns the build into a fresh directory and ends with
``os._exit`` just before call k + 1, as a kill would end it. What the child
leaves must be one of two states: no index, so the library does not open
and a directory load skips it; or a library that opens and reads back every
member, record and region byte-exact. (That a rerun over a killed build
succeeds is not asserted: a store left without its index blocks it.)
"""

import os
import random
import signal
import time

import pytest
from helpers import atlas_tsv, random_death_fields, records_tsv

from raclib.neuro import RegionLibrary, Voxel, read_atlas_tsv
from raclib.pack import Collection, CollectionSet, pack_directory
from raclib.ssdi import DeathRecord, SearchQuery, SsdiLibrary, read_records_tsv

CALLS = ("open", "pwritev", "fsync", "link", "replace", "unlink", "mkdir")

MEMBERS = {f"{i:04d}": random.Random(i).randbytes(300 + 700 * i) for i in range(4)}
RECORDS = [DeathRecord(*fields) for fields in random_death_fields(random.Random(3), 6)]
ATLAS = {"amygdala": [Voxel(-20, -4, -18), Voxel(-21, -4, -18), Voxel(5, 5, 5)], "v1": [Voxel(10, -90, 2)]}


def pack(out):
    """Pack ``MEMBERS``, written beforehand to ``in`` two levels above ``out``."""
    return pack_directory(out.parent.parent / "in", "books", out, record_size=256)


def check_pack(out):
    if not (out / "books.index").exists():
        assert not out.exists() or CollectionSet.load_dir(out).collections == []
        with pytest.raises(FileNotFoundError):
            Collection.open(out / "books.raclib")
        return False
    with CollectionSet.load_dir(out) as collections:
        assert len(collections.collections) == 1
        for key, body in MEMBERS.items():
            assert collections.fetch("Book", key) == body
    return True


def check_ssdi(out):
    if not (out / "groups.index").exists():
        with pytest.raises(FileNotFoundError):
            SsdiLibrary.open(out)
        return False
    with SsdiLibrary.open(out) as library:
        assert library.store.record_count == len(RECORDS)
        for record in RECORDS:
            assert record in library.search(SearchQuery(surname=record.surname, given=record.given))
    return True


def check_atlas(out):
    if not (out / "regions.index").exists():
        with pytest.raises(FileNotFoundError):
            RegionLibrary.open(out)
        return False
    with RegionLibrary.open(out) as library:
        for region, voxels in ATLAS.items():
            assert sorted(library.region_voxels(region)) == sorted(voxels)
    return True


# The SSDI and atlas builds read ``RECORDS`` and ``ATLAS`` from TSV files written beforehand two levels above ``out``.
BUILDS = {
    "pack": (pack, check_pack),
    "ssdi": (lambda out: SsdiLibrary.build(read_records_tsv(out.parent.parent / "records.tsv"), out), check_ssdi),
    "atlas": (lambda out: RegionLibrary.build(read_atlas_tsv(out.parent.parent / "atlas.tsv"), out), check_atlas),
}


def counting_calls(on_call, install=setattr):
    """Install, by ``install(os, name, wrapper)``, a wrapper of each of ``CALLS`` that runs ``on_call(name)`` first."""
    for name in CALLS:
        real = getattr(os, name)

        def wrapper(*args, _real=real, _name=name, **kwargs):
            on_call(_name)
            return _real(*args, **kwargs)

        install(os, name, wrapper)


def recorded_calls(build, out, monkeypatch) -> list[str]:
    calls = []
    with monkeypatch.context() as patch:
        counting_calls(calls.append, patch.setattr)
        build(out).close()
    return calls


def killed_before_call(build, out, k: int) -> None:
    """Run ``build(out)`` in a forked child that ends before its call k + 1; return when it has ended."""
    pid = os.fork()
    if pid == 0:
        try:
            made = [0]

            def die_at_k(name):
                if made[0] == k:
                    os._exit(0)
                made[0] += 1

            counting_calls(die_at_k)
            build(out).close()
        finally:
            os._exit(0)
    deadline = time.monotonic() + 30
    while not (ended := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:  # a child forked while another thread held a lock it needs
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"the build killed before call {k + 1} did not end within 30 s")
        time.sleep(0.001)
    assert os.waitstatus_to_exitcode(ended[1]) == 0


@pytest.mark.parametrize("kind", BUILDS)
def test_a_killed_build_leaves_no_library_or_a_whole_one(tmp_path, monkeypatch, kind):
    build, check = BUILDS[kind]
    (tmp_path / "in").mkdir()
    for key, body in MEMBERS.items():
        (tmp_path / "in" / f"Book_{key}.jpg").write_bytes(body)
    records_tsv(tmp_path / "records.tsv", RECORDS)
    atlas_tsv(tmp_path / "atlas.tsv", ATLAS)
    (tmp_path / "full").mkdir()
    calls = recorded_calls(build, tmp_path / "full" / "lib", monkeypatch)
    assert set(calls) == set(CALLS), calls
    assert check(tmp_path / "full" / "lib")
    outcomes = []
    for k in range(len(calls) + 1):
        (tmp_path / str(k)).mkdir()
        out = tmp_path / str(k) / "lib"
        killed_before_call(build, out, k)
        outcomes.append(check(out))
    # Every kill before the index is linked leaves no library; every later one, a whole library.
    assert outcomes == sorted(outcomes) and outcomes[0] is False and outcomes[-1] is True, outcomes
