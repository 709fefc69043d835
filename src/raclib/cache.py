"""Rotating disk cache with a file-token exclusion protocol.

Cache directories are named by epoch seconds with the last three digits
removed, so a new bucket starts every 1000 seconds and an image persists for
2000 seconds (current plus previous bucket); lookups search exactly the
buckets the sweep keeps. A hit is one check that the current bucket exists
and one open of the cached file, newest bucket first: the open is the lookup.
Handlers that find the current bucket missing race for an exclusively
created token file; the winner makes the directory and sweeps expired
buckets, losers sleep one second and re-check. A token that survives two
such waits is presumed stale (its owner died) and is forcibly replaced, so
no handler ever hangs on a crashed peer.

Handlers may live in different processes: the token file is the only
exclusion mechanism, and cached files become visible only via rename, so a
reader never sees a partial write.
"""

from __future__ import annotations

import errno
import logging
import os
import shutil
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .store import publish_file

logger = logging.getLogger(__name__)

BUCKET_SECONDS = 1000  # epoch seconds with the last three digits removed
LIVE_BUCKETS = 2  # the current bucket and the previous one: an image lives 2000 s
# Stripping three digits assumes the epoch string is long enough; anything
# post-2001 is. Earlier clocks are rejected rather than silently mis-bucketed.
EPOCH_FLOOR = 1_000_000_000

TOKEN_WAIT_SECONDS = 1.0
TOKEN_WAIT_ROUNDS = 2


class BucketOutcome(str, Enum):
    CREATED = "created"
    EXISTED = "existed"
    WAITED = "waited"
    FORCED = "forced"


def bucket_name(now: float) -> str:
    """Cache directory name for a moment in time: epoch seconds div 1000."""
    if now < EPOCH_FLOOR:
        raise ValueError(f"epoch seconds {now} below supported floor {EPOCH_FLOOR}")
    return str(int(now) // BUCKET_SECONDS)


def _escape(part: str) -> str:
    return part.replace("%", "%25").replace("_", "%5F").replace("/", "%2F").replace("\x00", "%00")


@dataclass(frozen=True)
class DeliveryRequest:
    title: str
    page: str

    def __post_init__(self):
        for field, value in (("title", self.title), ("page", self.page)):
            if not value:
                raise ValueError(f"{field} must be non-empty")
            if value.split() != [value]:
                raise ValueError(f"{field} contains whitespace: {value!r}")

    def cache_filename(self) -> str:
        """``<title>_<page>.jpg``, with '%', '_', '/' and NUL percent-escaped in
        both parts, so that no two requests share a file and every file lies
        directly in its bucket."""
        return f"{_escape(self.title)}_{_escape(self.page)}.jpg"


class BucketCache:
    """The cache root, its rotation schedule, and the token protocol."""

    def __init__(self, root: str | Path, clock=time.time, sleep=time.sleep):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._sleep = sleep
        self._token = self.root / "token"

    def now(self) -> float:
        return self._clock()

    def live_bucket_ids(self, now: float) -> range:
        """Ids of the buckets the sweep keeps at ``now``, the current and the previous one, newest first."""
        current = int(bucket_name(now))
        return range(current, current - LIVE_BUCKETS, -1)

    # Per-request paths are plain strings: pathlib interns every component,
    # and each interned string that dies leaves a slot in the process-wide
    # intern table, which then grows with the number of requests served.

    # -- token protocol -----------------------------------------------------

    def _grab_token(self) -> bool:
        try:
            os.close(os.open(self._token, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644))
            return True
        except FileExistsError:
            return False

    def _release_token(self) -> None:
        self._token.unlink(missing_ok=True)

    def _make_bucket_and_sweep(self, bucket: str, now: float) -> None:
        try:
            os.makedirs(bucket, exist_ok=True)
            self.sweep_old_buckets(now)
        finally:
            self._release_token()

    def ensure_bucket(self, now: float | None = None) -> BucketOutcome:
        """Make sure the current bucket directory exists, via the token race.

        The winner of the exclusive token create makes the directory, sweeps
        expired buckets, and releases the token. Losers sleep one second and
        re-check for the directory, twice; a token still blocking after both
        waits is stale and is forcibly replaced, which bounds every handler's
        wait at roughly two seconds.
        """
        if now is None:
            now = self.now()
        bucket = os.path.join(self.root, bucket_name(now))
        if os.path.isdir(bucket):
            return BucketOutcome.EXISTED
        for _ in range(TOKEN_WAIT_ROUNDS):
            if self._grab_token():
                self._make_bucket_and_sweep(bucket, now)
                return BucketOutcome.CREATED
            self._sleep(TOKEN_WAIT_SECONDS)
            if os.path.isdir(bucket):
                return BucketOutcome.WAITED
        # Presumed-dead owner. Replace the token; if another forcer beats us
        # to it we still proceed — directory creation and sweep are idempotent.
        self._release_token()
        self._grab_token()
        self._make_bucket_and_sweep(bucket, now)
        return BucketOutcome.FORCED

    def sweep_old_buckets(self, now: float | None = None) -> list[str]:
        """Delete buckets older than every live one, and no other entry; failures are reported, not raised."""
        if now is None:
            now = self.now()
        cutoff = self.live_bucket_ids(now)[-1]
        deleted = []
        for child in self.root.iterdir():
            name = child.name  # a bucket is a name bucket_name gives: ASCII digits, no leading zero, >= the floor's
            if not (name.isascii() and name.isdigit() and name[0] != "0" and child.is_dir()):
                continue
            if EPOCH_FLOOR // BUCKET_SECONDS <= int(name) < cutoff:
                try:
                    shutil.rmtree(child)
                    deleted.append(child.name)
                except OSError as exc:
                    logger.warning("could not delete cache bucket %s: %s", child, exc)
        return deleted

    # -- cached files ---------------------------------------------------------

    def find_cached(self, filename: str, now: float | None = None) -> bytes | None:
        """The bytes of the cached file in the newest live bucket that holds it, or None.

        The open is the lookup: no stat precedes it, and a file swept away
        before the open is a miss in its bucket, not an error.
        """
        if now is None:
            now = self.now()
        for bucket in self.live_bucket_ids(now):
            try:
                with open(os.path.join(self.root, str(bucket), filename), "rb") as f:
                    return f.read()
            except FileNotFoundError:
                continue
        return None

    def store_file(self, filename: str, payload: bytes, now: float | None = None) -> str:
        """Write into the current bucket atomically, by ``publish_file``: a temp name removed whatever
        happens, then a rename. No fsync: a cached copy need not survive a crash."""
        if now is None:
            now = self.now()
        target = os.path.join(self.root, bucket_name(now), filename)
        publish_file(target, payload, replace=True, sync=False)
        return target


@dataclass(frozen=True)
class DeliveryResult:
    payload: bytes
    source: str  # "cache" or "library"


class ImageResolver:
    """Resolve (title, page) requests through the cache, falling back to the library.

    ``library`` is anything with ``fetch(title, page)``, which raises
    NotFoundError for unknown members, and ``close()``: a CollectionSet or
    a Collection. The resolver owns it and closes it in ``close``. Caching
    is best-effort: a cache that cannot be read or written degrades to
    serving the fetched bytes, and a name too long to cache is not cached.
    """

    def __init__(self, library, cache: BucketCache):
        self.library = library
        self.cache = cache

    def close(self) -> None:
        self.library.close()

    def resolve(self, request: DeliveryRequest) -> DeliveryResult:
        now = self.cache.now()
        filename = request.cache_filename()
        try:
            self.cache.ensure_bucket(now)
            cached = self.cache.find_cached(filename, now)
        except OSError as exc:
            if exc.errno != errno.ENAMETOOLONG:  # a name too long for the file system is served uncached, unlogged
                logger.warning("cache unusable, serving without it: %s", exc)
            return DeliveryResult(self.library.fetch(request.title, request.page), "library")
        if cached is not None:
            return DeliveryResult(cached, "cache")
        payload = self.library.fetch(request.title, request.page)
        try:
            self.cache.store_file(filename, payload, now)
        except OSError as exc:
            if exc.errno != errno.ENAMETOOLONG:
                logger.warning("cache write failed for %s: %s", filename, exc)
        return DeliveryResult(payload, "library")
