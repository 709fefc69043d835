"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them all) and holding to its runtime
budget. Desk-scale stand-ins replace production-scale datasets; every
behavioural check runs at full strength.
"""

import random
import re
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from contextlib import contextmanager

from helpers import GIVENS, SURNAMES, random_death_fields

from raclib.bench import build_scan_archive, compare_offsets, scan_extract, synth_library
from raclib.cache import BucketCache, BucketOutcome, DeliveryRequest, ImageResolver
from raclib.cli import main
from raclib.computed_index import GROUP_COUNT, TrigramKey, key_ordinal, trigram_of
from raclib.neuro import RegionLibrary, Voxel, block_of, decode_coord, encode_coord
from raclib.pack import Collection
from raclib.serial_index import SerialIndexEntry
from raclib.server import DeliveryServer
from raclib.ssdi import DeathRecord, SearchQuery, SsdiLibrary
from raclib.store import RecordStore


@contextmanager
def criterion(number, title, budget_seconds):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} FAIL — {title}")
        raise
    elapsed = time.monotonic() - started
    on_time = elapsed < budget_seconds
    verdict = "PASS" if on_time else "FAIL (over budget)"
    print(f"[acceptance] criterion {number} {verdict} ({elapsed:.1f}s of {budget_seconds}s) — {title}")
    assert on_time, f"criterion {number} blew its {budget_seconds}s budget"


def test_criterion_1_trigram_arithmetic():
    with criterion(1, "trigram arithmetic and bijection", budget_seconds=1):
        assert key_ordinal(trigram_of("Kennedy", "Robert")) == 6881
        ordinals = {
            key_ordinal(TrigramKey(c1, c2, c3))
            for c1 in range(26)
            for c2 in range(26)
            for c3 in range(26)
        }
        assert ordinals == set(range(GROUP_COUNT))


def test_criterion_2_round_trip_fidelity(tmp_path):
    with criterion(2, "1,000 payload round-trip fidelity", budget_seconds=30):
        rng = random.Random(1965)
        with RecordStore.create(tmp_path / "lib", record_size=1024) as store:
            kept = []
            for _ in range(1000):
                payload = rng.randbytes(rng.randrange(0, 300_001))
                kept.append((store.append_payload(payload), payload))
                assert (tmp_path / "lib").stat().st_size == store.record_count * 1024
            for ref, payload in kept:
                assert store.read_payload(ref) == payload


# -- criterion 3: an oracle that trusts only the bytes on disk -----------------

def _norm(text):
    return re.sub(r"[^A-Za-z]", "", text).upper()


def _oracle_key(surname, given):
    s, g = _norm(surname), _norm(given)
    pick = lambda t, i: ord(t[i]) - 65 if len(t) > i else 0
    return (pick(s, 0), pick(s, 1), pick(g, 0))


def _parse_store_records(raw):
    parsed = []
    for off in range(0, len(raw), 64):
        line = raw[off : off + 64].decode("ascii")
        surname, given = line[:24].rstrip(), line[24:36].rstrip()
        parsed.append(
            (
                _oracle_key(surname, given),
                _norm(surname),
                _norm(given),
                int(line[45:49]),
                int(line[53:57]),
                (surname, given, line[36:45], line[45:53], line[53:61]),
            )
        )
    return parsed


def _oracle_search(parsed, query):
    qkey = _oracle_key(query.surname, query.given)
    qs, qg = _norm(query.surname), _norm(query.given)
    hits = []
    for key, surname, given, birth, death, fields in parsed:
        if key != qkey or not surname.startswith(qs) or not given.startswith(qg):
            continue
        if query.birth_year is not None and birth != query.birth_year:
            continue
        if query.death_year_from is not None and death < query.death_year_from:
            continue
        if query.death_year_to is not None and death > query.death_year_to:
            continue
        hits.append(fields)
    return hits


def test_criterion_3_search_oracle_equivalence(tmp_path):
    with criterion(3, "100k-record search vs linear-scan oracle, 500 queries", budget_seconds=120):
        rng = random.Random(86)
        records = (DeathRecord(*f) for f in random_death_fields(rng, 100_000))
        with SsdiLibrary.build(records, tmp_path / "lib") as library:
            parsed = _parse_store_records((tmp_path / "lib" / "records.raclib").read_bytes())
            assert len(parsed) == 100_000

            ran = 0
            while ran < 500:
                surname = rng.choice(SURNAMES + ["KE", "JO", "Q", "NOSUCH", "J"])
                given = rng.choice(GIVENS + ["RO", "J", "JOS"])
                if not _norm(surname) and not _norm(given):
                    continue
                query = SearchQuery(
                    given=given if rng.random() < 0.8 else "",
                    surname=surname,
                    birth_year=rng.randrange(1870, 1995) if rng.random() < 0.3 else None,
                    death_year_from=rng.randrange(1900, 1990) if rng.random() < 0.3 else None,
                    death_year_to=rng.randrange(1990, 2012) if rng.random() < 0.3 else None,
                )
                library.index.counters.reset()
                library.store.counters.reset()
                got = [
                    (r.surname, r.given, r.ssn, r.birth_date, r.death_date)
                    for r in library.search(query)
                ]
                assert library.index.counters.reads == 1, "search must read the index exactly once"
                assert library.store.counters.reads == 1, "search must read the group exactly once"
                assert got == _oracle_search(parsed, query), f"result mismatch for {query}"
                ran += 1


def test_criterion_4_latency_offset_independence(tmp_path):
    with criterion(4, "1 GiB library: end vs start fetch ratio <= 2.0", budget_seconds=300):
        n_records = 1_048_576
        store = synth_library(tmp_path / "big.raclib", n_records, record_size=1024, seed=7)
        try:
            near_start = 9_398
            near_end = n_records - 230 - 9_398
            start_stats, end_stats = compare_offsets(
                store, near_start, near_end, count=230, trials=35
            )
            for sample in start_stats.samples + end_stats.samples:
                assert sample.bytes_read == 230 * 1024
            ratio = end_stats.median_us / start_stats.median_us
            assert ratio <= 2.0, f"median latency ratio end/start = {ratio:.2f}"
        finally:
            store.close()
            (tmp_path / "big.raclib").unlink()


def test_criterion_4b_http_last_vs_first_member(tmp_path):
    with criterion("4b", "100k-member collection over HTTP: last vs first fetch ratio <= 2.0",
                   budget_seconds=60):
        n_members, record_size = 100_000, 128
        rng = random.Random(404)
        payloads = [b"\xff\xd8\xff" + rng.randbytes(rng.randrange(40, record_size - 2))
                    for _ in range(n_members)]
        # One append and one index write, as a bulk loader would: writing
        # 100k member files first and packing them would only slow the test.
        with RecordStore.create(tmp_path / "big.raclib", record_size) as store:
            store.append_payload(b"".join(p.ljust(record_size, b"\x00") for p in payloads))
        (tmp_path / "big.index").write_text("".join(
            SerialIndexEntry("Book", f"{i:06d}", i, 1, len(p)).line() for i, p in enumerate(payloads)
        ), "ascii")

        collection = Collection.open(tmp_path / "big.raclib")
        resolver = ImageResolver(collection.fetch, BucketCache(tmp_path / "cache"), close=collection.close)
        server = DeliveryServer(("127.0.0.1", 0), resolver)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{server.server_address[1]}/image?title=Book&page="

        def timed_fetch(i):
            collection.index.counters.reset()
            collection.store.counters.reset()
            started = time.perf_counter()
            with urllib.request.urlopen(base + f"{i:06d}") as response:
                body = response.read()
                source = response.headers["X-RacLib-Source"]
            elapsed = time.perf_counter() - started
            assert body == payloads[i]
            assert source == "library", "every member is fetched once, so never from the cache"
            assert collection.index.counters.reads == 1, "one index line read per fetch"
            assert collection.store.counters.reads == 1, "one store read per fetch"
            assert collection.store.counters.bytes_read == len(body), "exactly the member's own bytes"
            return elapsed

        try:
            timed_fetch(n_members // 2)  # builds the index table and the cache bucket
            ratios = []
            for i in range(60):
                first, last = i, n_members - 1 - i
                if i % 2:
                    last_s = timed_fetch(last)
                    first_s = timed_fetch(first)
                else:
                    first_s = timed_fetch(first)
                    last_s = timed_fetch(last)
                ratios.append(last_s / first_s)
            ratio = statistics.median(ratios)
            assert ratio <= 2.0, f"median latency ratio last/first = {ratio:.2f}"
        finally:
            server.shutdown()
            server.server_close()
            resolver.close()


def test_criterion_5_serial_baseline_asymmetry(tmp_path):
    with criterion(5, "scan archive reads ~everything; library reads one member", budget_seconds=120):
        rng = random.Random(10_000)
        members = [rng.randbytes(1024) for _ in range(10_000)]

        archive = tmp_path / "members.arch"
        build_scan_archive(archive, members)
        archive_size = archive.stat().st_size
        payload, bytes_read = scan_extract(archive, 9_999)
        assert payload == members[9_999]
        assert bytes_read >= 0.999 * archive_size

        with RecordStore.create(tmp_path / "members.raclib", record_size=1024) as store:
            refs = [store.append_payload(m) for m in members]
            store.counters.reset()
            assert store.read_payload(refs[9_999]) == members[9_999]
            assert store.counters.bytes_read == 1024  # exactly the member's own records


def test_criterion_6_cache_token_protocol(tmp_path):
    with criterion(6, "50 concurrent resolvers across rollover; stale-token liveness", budget_seconds=60):
        # Phase A: hammer across a forced bucket rollover.
        t0 = 1_650_000_000
        clock = {"now": t0}
        pages = {
            ("Book", f"{i:04d}"): b"\xff\xd8\xff" + bytes([i]) * 4000 for i in range(20)
        }

        def fetch(title, page):
            return pages[title, page]

        cache = BucketCache(tmp_path / "cache", clock=lambda: clock["now"])
        resolver = ImageResolver(fetch, cache)
        failures = []
        sources = set()

        def hammer(seed):
            rng = random.Random(seed)
            for _ in range(40):
                title, page = ("Book", f"{rng.randrange(20):04d}")
                try:
                    result = resolver.resolve(DeliveryRequest(title, page))
                    if result.payload != pages[title, page]:
                        failures.append(f"body mismatch for {page} via {result.source}")
                    sources.add(result.source)
                except Exception as exc:  # every request must succeed
                    failures.append(repr(exc))

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(50)]
        for t in threads[:25]:
            t.start()
        time.sleep(0.2)
        clock["now"] = t0 + 1000  # roll the bucket mid-hammer
        for t in threads[25:]:
            t.start()
        for t in threads:
            t.join()

        assert failures == []
        assert sources == {"cache", "library"}
        buckets = sorted(p.name for p in (tmp_path / "cache").iterdir() if p.is_dir())
        assert buckets == [str(t0 // 1000), str(t0 // 1000 + 1)]  # one dir per bucket_id
        cache.sweep_old_buckets()
        after = sorted(p.name for p in (tmp_path / "cache").iterdir() if p.is_dir())
        assert set(after) <= {str(t0 // 1000), str(t0 // 1000 + 1)}

        # Phase B: a stale token must never block anyone past two 1 s waits.
        stale_root = tmp_path / "stale"
        stale_root.mkdir()
        (stale_root / "token").touch()
        stale_cache = BucketCache(stale_root, clock=lambda: t0)
        walls = []
        outcomes = []

        def proceed():
            begun = time.monotonic()
            outcomes.append(stale_cache.ensure_bucket())
            walls.append(time.monotonic() - begun)

        threads = [threading.Thread(target=proceed) for _ in range(50)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(walls) == 50 and max(walls) < 2.5
        assert BucketOutcome.FORCED in outcomes


def test_criterion_7_neuro_encodings(tmp_path):
    with criterion(7, "coordinate codec, block tiling, atlas rebuild", budget_seconds=60):
        assert encode_coord(Voxel(-41, 12, -35)) == "n41p12n35"
        assert block_of(Voxel(-41, 12, -35)) == "n4_xp1_yn3_z"

        rng = random.Random(800)
        for _ in range(100_000):
            v = Voxel(*(rng.randint(-999, 999) for _ in range(3)))
            assert decode_coord(encode_coord(v)) == v

        # Axis classes partition [-999, 999]; blocks are their products, so
        # every voxel lands in exactly one block of at most 10*10*10 points.
        classes = {}
        for value in range(-999, 1000):
            code = block_of(Voxel(value, 0, 0)).split("_")[0]
            classes[code] = classes.get(code, 0) + 1
        assert sum(classes.values()) == 1999
        assert max(classes.values()) <= 10

        atlas = {}
        for r in range(50):
            cx, cy, cz = (rng.randint(-900, 900) for _ in range(3))
            voxels = set()
            while len(voxels) < 200:
                voxels.add(
                    Voxel(*(max(-999, min(999, c + rng.randint(-12, 12))) for c in (cx, cy, cz)))
                )
            atlas[f"region_{r:02d}"] = sorted(voxels)
        with RegionLibrary.build(atlas, tmp_path / "atlas") as library:
            for region, voxels in atlas.items():
                assert sorted(library.region_voxels(region)) == voxels
            for entry in library.index.entries():
                assert entry.count <= 1000


def test_criterion_8_computed_index_format(tmp_path):
    with criterion(8, "index file geometry and prefix-sum tiling", budget_seconds=10):
        rng = random.Random(64)
        records = (DeathRecord(*f) for f in random_death_fields(rng, 10_000))
        with SsdiLibrary.build(records, tmp_path / "lib") as library:
            assert (tmp_path / "lib" / "groups.index").stat().st_size == 351_520 == GROUP_COUNT * 20
            entries = library.index.read_all()
            assert sum(e.count for e in entries) == library.store.record_count == 10_000
            running = 0
            for entry in entries:
                assert entry.start == running
                running += entry.count


def test_criterion_9_end_to_end_service(tmp_path):
    with criterion(9, "pack, serve, fetch twice: library then cache, byte-identical", budget_seconds=30):
        rng = random.Random(200)
        indir = tmp_path / "pages"
        indir.mkdir()
        for i in range(200):
            body = b"\xff\xd8\xff" + rng.randbytes(rng.randrange(1000, 4000))
            (indir / f"TallyHo1965_{i + 1:04d}.jpg").write_bytes(body)
        assert main(["pack", "--in", str(indir), "--collection", "yearbooks",
                     "--out", str(tmp_path / "lib")]) == 0

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "raclib.cli", "serve",
             "--port", str(port),
             "--library-dir", str(tmp_path / "lib"),
             "--cache-root", str(tmp_path / "cache")],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            base = f"http://127.0.0.1:{port}"
            deadline = time.monotonic() + 10
            while True:
                try:
                    with urllib.request.urlopen(base + "/health", timeout=1) as r:
                        assert r.status == 200
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.1)

            url = base + "/image?title=TallyHo1965&page=0042"
            with urllib.request.urlopen(url) as r:
                first_source = r.headers["X-RacLib-Source"]
                first_body = r.read()
            with urllib.request.urlopen(url) as r:
                second_source = r.headers["X-RacLib-Source"]
                second_body = r.read()
            assert first_source == "library"
            assert second_source == "cache"
            original = (indir / "TallyHo1965_0042.jpg").read_bytes()
            assert first_body == original and second_body == original
        finally:
            proc.terminate()
            proc.wait(timeout=10)
