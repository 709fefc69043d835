import builtins
import inspect
import os
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from raclib.cache import (
    BucketCache,
    BucketOutcome,
    DeliveryRequest,
    ImageResolver,
    bucket_name,
)
from raclib.errors import NotFoundError

T0 = 1_650_000_000


class FakeClock:
    def __init__(self, now=T0):
        self.now = now

    def __call__(self):
        return self.now


def make_cache(tmp_path, clock=None, sleep=time.sleep):
    return BucketCache(tmp_path, clock=clock or FakeClock(), sleep=sleep)


def test_bucket_name_strips_last_three_digits():
    assert bucket_name(1_650_000_000) == "1650000"
    assert bucket_name(1_650_000_999) == "1650000"
    assert bucket_name(1_650_001_000) == "1650001"


def test_bucket_name_rejects_short_epochs():
    with pytest.raises(ValueError):
        bucket_name(999)
    with pytest.raises(ValueError):
        bucket_name(999_999_999)


def test_ensure_bucket_uncontended(tmp_path):
    cache = make_cache(tmp_path)
    assert cache.ensure_bucket() == BucketOutcome.CREATED
    assert (tmp_path / "1650000").is_dir()
    assert not (tmp_path / "token").exists()  # released


def test_ensure_bucket_existing(tmp_path):
    cache = make_cache(tmp_path)
    cache.ensure_bucket()
    assert cache.ensure_bucket() == BucketOutcome.EXISTED


def test_ensure_bucket_waits_for_live_owner(tmp_path):
    (tmp_path / "token").touch()
    sleeps = []

    def sleep(seconds):
        sleeps.append(seconds)
        (tmp_path / "1650000").mkdir()  # the owner finishes during our wait

    cache = make_cache(tmp_path, sleep=sleep)
    assert cache.ensure_bucket() == BucketOutcome.WAITED
    assert sleeps == [1.0]


def test_ensure_bucket_forces_past_stale_token(tmp_path):
    (tmp_path / "token").touch()
    sleeps = []
    cache = make_cache(tmp_path, sleep=sleeps.append)
    assert cache.ensure_bucket() == BucketOutcome.FORCED
    assert sleeps == [1.0, 1.0]  # two failed one-second waits, then the break
    assert (tmp_path / "1650000").is_dir()
    assert not (tmp_path / "token").exists()


def test_forced_acquisition_wall_time(tmp_path):
    (tmp_path / "token").touch()
    cache = make_cache(tmp_path)  # real sleeps
    t0 = time.monotonic()
    assert cache.ensure_bucket() == BucketOutcome.FORCED
    assert 1.9 < time.monotonic() - t0 < 2.5


@pytest.mark.parametrize(
    "existing, expect_deleted",
    [
        (["1649997", "1649999", "1650000"], ["1649997"]),
        (["1650000"], []),
        (["1649998", "1649999"], ["1649998"]),
    ],
)
def test_sweep_keeps_current_and_previous(tmp_path, existing, expect_deleted):
    cache = make_cache(tmp_path)
    for name in existing:
        (tmp_path / name).mkdir()
    assert sorted(cache.sweep_old_buckets()) == expect_deleted
    for name in existing:
        assert (tmp_path / name).is_dir() == (name not in expect_deleted)


def test_sweep_ignores_foreign_entries(tmp_path):
    cache = make_cache(tmp_path)
    (tmp_path / "token").touch()
    (tmp_path / "notes").mkdir()
    (tmp_path / "1000000").mkdir()
    assert cache.sweep_old_buckets() == ["1000000"]
    assert (tmp_path / "token").exists()
    assert (tmp_path / "notes").is_dir()


def test_ensure_bucket_sweeps_expired(tmp_path):
    (tmp_path / "1649997").mkdir()
    cache = make_cache(tmp_path)
    cache.ensure_bucket()
    assert not (tmp_path / "1649997").exists()


def test_request_validation():
    DeliveryRequest("TallyHo1965", "0404")
    for title, page in [("", "1"), ("a b", "1"), ("a", ""), ("a\t", "1"), ("../up", "1")]:
        with pytest.raises(ValueError):
            DeliveryRequest(title, page)


def per_character_request_check(value: str) -> bool:
    """DeliveryRequest's field check as first written: one ``isspace`` call per character."""
    return bool(value) and not any(c.isspace() for c in value) and "/" not in value and "\x00" not in value


def request_accepted(title: str, page: str) -> bool:
    try:
        DeliveryRequest(title, page)
    except ValueError:
        return False
    return True


@given(st.text(st.characters() | st.sampled_from(" \t\n\x0b\x0c\r\x1c\x85\xa0\u1680\u2003\u2028\u3000/\x00"),
               max_size=8))
def test_request_check_equals_a_per_character_check(value):
    assert request_accepted(value, "0001") == per_character_request_check(value)
    assert request_accepted("TallyHo1965", value) == per_character_request_check(value)


def test_request_check_equals_a_per_character_check_on_every_code_point():
    for c in map(chr, range(0x110000)):
        value = "a" + c + "b"
        assert request_accepted(value, "0001") == per_character_request_check(value), repr(value)


# Any non-empty text DeliveryRequest accepts: no whitespace, '/' or NUL.
request_parts = st.text(
    st.characters(blacklist_characters="/\x00", blacklist_categories=("Cs",)), min_size=1
).filter(lambda part: not any(c.isspace() for c in part))


@given(request_parts, request_parts, request_parts, request_parts)
def test_cache_filename_is_injective(title1, page1, title2, page2):
    first = DeliveryRequest(title1, page1)
    second = DeliveryRequest(title2, page2)
    assert (first.cache_filename() == second.cache_filename()) == (first == second)


def test_cache_filename_escapes_underscore_and_percent():
    assert DeliveryRequest("a_b", "c").cache_filename() == "a%5Fb_c.jpg"
    assert DeliveryRequest("a", "b_c").cache_filename() == "a_b%5Fc.jpg"
    assert DeliveryRequest("a%5Fb", "c").cache_filename() == "a%255Fb_c.jpg"


class FakeLibrary:
    def __init__(self, pages):
        self.pages = pages
        self.fetches = 0

    def __call__(self, title, page):
        self.fetches += 1
        try:
            return self.pages[title, page]
        except KeyError:
            raise NotFoundError(f"no page {page} of {title}") from None


@pytest.fixture
def resolver(tmp_path):
    library = FakeLibrary({("TallyHo1965", "0404"): b"\xff\xd8\xff jpeg bytes"})
    clock = FakeClock()
    return ImageResolver(library, BucketCache(tmp_path, clock=clock)), library, clock, tmp_path


def test_resolve_miss_then_hit(resolver):
    res, library, clock, root = resolver
    req = DeliveryRequest("TallyHo1965", "0404")
    first = res.resolve(req)
    assert (first.source, first.payload) == ("library", b"\xff\xd8\xff jpeg bytes")
    assert (root / "1650000" / "TallyHo1965_0404.jpg").read_bytes() == first.payload
    second = res.resolve(req)
    assert (second.source, second.payload) == ("cache", first.payload)
    assert library.fetches == 1


def test_underscore_members_resolve_to_their_own_bytes(tmp_path):
    pages = {("a_b", "c"): b"\xff\xd8\xff first", ("a", "b_c"): b"\xff\xd8\xff second"}
    res = ImageResolver(FakeLibrary(pages), BucketCache(tmp_path, clock=FakeClock()))
    for source in ("library", "cache"):
        for (title, page), payload in pages.items():
            result = res.resolve(DeliveryRequest(title, page))
            assert (result.source, result.payload) == (source, payload)


def test_resolve_takes_only_the_request():
    assert list(inspect.signature(ImageResolver.resolve).parameters) == ["self", "request"]


def test_cache_hit_is_one_stat_and_one_open(resolver, monkeypatch):
    res, _, _, root = resolver
    req = DeliveryRequest("TallyHo1965", "0404")
    res.resolve(req)
    stats, opens = [], []
    real_stat, real_open = os.stat, builtins.open
    monkeypatch.setattr(os, "stat", lambda path, *args, **kw: stats.append(path) or real_stat(path, *args, **kw))
    monkeypatch.setattr(builtins, "open", lambda file, *args, **kw: opens.append(file) or real_open(file, *args, **kw))
    result = res.resolve(req)
    monkeypatch.undo()
    assert (result.source, result.payload) == ("cache", b"\xff\xd8\xff jpeg bytes")
    assert stats == [str(root / "1650000")]  # ensure_bucket's check of the current bucket
    assert opens == [str(root / "1650000" / "TallyHo1965_0404.jpg")]


def test_find_cached_returns_the_newest_live_copy(tmp_path):
    cache = make_cache(tmp_path)
    assert cache.find_cached("img.jpg") is None
    for bucket, body in (("1649998", b"expired"), ("1649999", b"previous"), ("1650000", b"current")):
        (tmp_path / bucket).mkdir()
        (tmp_path / bucket / "img.jpg").write_bytes(body)
        assert cache.find_cached("img.jpg") == (None if body == b"expired" else body)


def test_resolve_refetches_a_file_swept_before_its_open(resolver, monkeypatch):
    res, library, _, root = resolver
    req = DeliveryRequest("TallyHo1965", "0404")
    res.resolve(req)
    cached = root / "1650000" / "TallyHo1965_0404.jpg"
    real_ensure_bucket = res.cache.ensure_bucket

    def ensure_bucket_then_sweep(now=None):
        outcome = real_ensure_bucket(now)
        cached.unlink()  # a peer's sweep, between the bucket check and the open
        return outcome

    monkeypatch.setattr(res.cache, "ensure_bucket", ensure_bucket_then_sweep)
    result = res.resolve(req)
    assert (result.source, result.payload) == ("library", b"\xff\xd8\xff jpeg bytes")
    assert library.fetches == 2
    assert cached.read_bytes() == result.payload  # cached again


def test_unreadable_cache_serves_the_library_uncached(resolver, monkeypatch):
    res, library, _, _ = resolver
    stored = []

    def boom(*args, **kwargs):
        raise PermissionError("permission denied")

    monkeypatch.setattr(res.cache, "find_cached", boom)
    monkeypatch.setattr(res.cache, "store_file", lambda *args: stored.append(args))
    result = res.resolve(DeliveryRequest("TallyHo1965", "0404"))
    assert (result.source, result.payload) == ("library", b"\xff\xd8\xff jpeg bytes")
    assert stored == []


def test_resolve_unknown_page(resolver):
    res, _, _, _ = resolver
    with pytest.raises(NotFoundError):
        res.resolve(DeliveryRequest("NoSuchTitle", "0001"))


def test_resolve_consults_previous_bucket_after_rotation(resolver):
    res, library, clock, _ = resolver
    req = DeliveryRequest("TallyHo1965", "0404")
    res.resolve(req)
    clock.now += 1000  # new bucket; image still lives in the previous one
    result = res.resolve(req)
    assert result.source == "cache"
    assert library.fetches == 1


def test_resolve_refetches_after_ttl(resolver):
    res, library, clock, root = resolver
    req = DeliveryRequest("TallyHo1965", "0404")
    res.resolve(req)
    clock.now += 2000
    result = res.resolve(req)
    assert result.source == "library"
    assert library.fetches == 2
    assert not (root / "1650000").exists()  # swept during rotation


def test_resolve_survives_cache_write_failure(resolver, monkeypatch):
    res, _, _, _ = resolver

    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(res.cache, "store_file", boom)
    result = res.resolve(DeliveryRequest("TallyHo1965", "0404"))
    assert (result.source, result.payload) == ("library", b"\xff\xd8\xff jpeg bytes")


def test_resolve_survives_unusable_cache(resolver, monkeypatch):
    res, _, _, _ = resolver

    def boom(*args, **kwargs):
        raise OSError("read-only file system")

    monkeypatch.setattr(res.cache, "ensure_bucket", boom)
    for _ in range(2):  # never cached, so both resolves hit the library
        result = res.resolve(DeliveryRequest("TallyHo1965", "0404"))
        assert (result.source, result.payload) == ("library", b"\xff\xd8\xff jpeg bytes")


def test_concurrent_readers_never_see_partial_files(tmp_path):
    # Hammer one filename with writers while readers check content integrity.
    cache = BucketCache(tmp_path, clock=FakeClock())
    cache.ensure_bucket()
    bodies = [bytes([i]) * 20_000 for i in range(4)]
    stop = threading.Event()
    bad = []

    def writer():
        i = 0
        while not stop.is_set():
            cache.store_file("img.jpg", bodies[i % 4])
            i += 1

    def reader():
        while not stop.is_set():
            data = cache.find_cached("img.jpg")
            if data is None:
                continue
            if data not in bodies:
                bad.append(len(data))

    threads = [threading.Thread(target=writer) for _ in range(2)]
    threads += [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    time.sleep(0.5)
    stop.set()
    for t in threads:
        t.join()
    assert bad == []
