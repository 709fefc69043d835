"""Reads from an evicted page cache fetch only their own pages from storage.

The test process drops a library's data file from the page cache with
``posix_fadvise(DONTNEED)`` on its own fd, then counts what one read
fetches from storage in ``/proc/self/io`` ``read_bytes``. A read may fetch
the pages its bytes span, plus the kernel's readahead window (128 KiB by
default). Where an evicted page counts no storage bytes (tmpfs), the tests
skip. Each library's index is opened and its in-memory structures built
first, so only the data file is read cold. The HTTP case serves from a
thread of the test process, so its reads are counted there too.
"""

import http.client
import os
import random
import threading

import pytest
from helpers import random_death_fields
from test_neuro import compact_atlas

from raclib.cache import BucketCache, ImageResolver
from raclib.computed_index import name_ordinal
from raclib.neuro import COORD_RECORD_SIZE, DATA_FILE as VOXELS_FILE, RegionLibrary
from raclib.pack import Collection, pack_directory
from raclib.server import DeliveryServer
from raclib.ssdi import DATA_FILE as RECORDS_FILE, RECORD_SIZE, DeathRecord, SearchQuery, SsdiLibrary
from raclib.store import RecordStore

PAGE = 4096
READAHEAD_ALLOWANCE = 128 * 1024


def storage_read_bytes() -> int:
    with open("/proc/self/io") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("read_bytes:"))


def evict(path) -> None:
    """Drop ``path``'s pages from the page cache, written back first so that none stays dirty."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
        os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
    finally:
        os.close(fd)


def cold_read_bytes(path, read) -> int:
    """Storage bytes that ``read()`` fetches with ``path`` evicted."""
    evict(path)
    before = storage_read_bytes()
    read()
    return storage_read_bytes() - before


def allowed(offset: int, nbytes: int) -> int:
    """The pages that ``nbytes`` at ``offset`` span, plus the readahead allowance."""
    first, end = offset // PAGE * PAGE, -(-(offset + nbytes) // PAGE) * PAGE
    return end - first + READAHEAD_ALLOWANCE


@pytest.fixture(scope="module", autouse=True)
def storage_reads_are_counted(tmp_path_factory):
    probe = tmp_path_factory.mktemp("probe") / "probe"
    probe.write_bytes(os.urandom(16 * PAGE))
    fd = os.open(probe, os.O_RDONLY)
    try:
        counted = cold_read_bytes(probe, lambda: os.pread(fd, PAGE, 8 * PAGE))
    finally:
        os.close(fd)
    if counted == 0:
        pytest.skip("an evicted page read counted 0 storage bytes here (tmpfs, or no per-task I/O accounting)")


def test_evicted_member_reads_fetch_only_their_pages(tmp_path):
    rng = random.Random(5)
    path = tmp_path / "members.raclib"
    payloads = [rng.randbytes(3_000) for _ in range(600)]  # 1.8 MB in 1 KiB records
    with RecordStore.create(path, 1024) as store:
        refs = store.append_payloads(payloads)
    with RecordStore.open(path) as store:
        for i in (0, len(refs) // 2, len(refs) - 1):
            ref = refs[i]
            got = []
            counted = cold_read_bytes(path, lambda: got.append(store.read_payload(ref)))
            assert got == [payloads[i]]
            assert 0 < counted <= allowed(ref.start * 1024, ref.byte_length), (i, counted)


def test_evicted_ssdi_search_fetches_only_its_group(tmp_path):
    records = [DeathRecord(*fields) for fields in random_death_fields(random.Random(6), 20_000)]  # 1.28 MB
    SsdiLibrary.build(records, tmp_path / "lib").close()
    query = SearchQuery(given="ANNA", surname="MULLER")
    with SsdiLibrary.open(tmp_path / "lib") as library:
        entry = library.index.read_group_entry(name_ordinal("MULLER", "ANNA"))
        expected = library.search(query)
        assert expected and entry.start * RECORD_SIZE > READAHEAD_ALLOWANCE  # a group mid-file
        got = []
        counted = cold_read_bytes(tmp_path / "lib" / RECORDS_FILE, lambda: got.append(library.search(query)))
    assert got == [expected]
    assert 0 < counted <= allowed(entry.start * RECORD_SIZE, entry.count * RECORD_SIZE), counted


def test_evicted_region_query_fetches_only_its_records(tmp_path):
    RegionLibrary.build(compact_atlas(7, 9, 8_000), tmp_path / "lib").close()  # 1.15 MB of voxel records
    with RegionLibrary.open(tmp_path / "lib") as library:
        (start, count), = library.index.runs("region_4")  # builds the runs of every region
        expected = library.region_voxels("region_4")
        got = []
        counted = cold_read_bytes(tmp_path / "lib" / VOXELS_FILE, lambda: got.append(library.region_voxels("region_4")))
    assert got == [expected]
    assert 0 < counted <= allowed(start * COORD_RECORD_SIZE, count * COORD_RECORD_SIZE), counted


def test_evicted_member_served_over_http_fetches_only_its_pages(tmp_path):
    rng = random.Random(8)
    (tmp_path / "in").mkdir()
    payloads = {f"{i:04d}": rng.randbytes(3_000) for i in range(600)}  # 1.8 MB in 1 KiB records
    for key, payload in payloads.items():
        (tmp_path / "in" / f"Book_{key}.jpg").write_bytes(payload)
    pack_directory(tmp_path / "in", "books", tmp_path / "lib").close()
    collection = Collection.open(tmp_path / "lib" / "books.raclib")
    resolver = ImageResolver(collection.fetch, BucketCache(tmp_path / "cache"), close=collection.close)
    server = DeliveryServer(("127.0.0.1", 0), resolver)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=10)

    def get(key):
        conn.request("GET", f"/image?title=Book&page={key}")
        with conn.getresponse() as response:
            return response.status, response.getheader("X-RacLib-Source"), response.read()

    try:
        assert get("0001") == (200, "library", payloads["0001"])  # builds the index's slot table
        for key in ("0000", "0300", "0599"):
            ref = collection.index.lookup("Book", key).to_ref(collection.store.record_size)
            got = []
            counted = cold_read_bytes(tmp_path / "lib" / "books.raclib", lambda: got.append(get(key)))
            assert got == [(200, "library", payloads[key])]
            assert 0 < counted <= allowed(ref.start * collection.store.record_size, ref.byte_length), (key, counted)
    finally:
        conn.close()
        server.shutdown()
        server.server_close()
        resolver.close()
