"""Rotating disk cache with a file-token exclusion protocol.

Cache directories are named by epoch seconds with the last three digits
removed, so a new bucket starts every 1000 seconds and an image persists for
2000 seconds (current plus previous bucket). Handlers that find the current
bucket missing race for an exclusively created token file; the winner makes
the directory and sweeps expired buckets, losers sleep one second and
re-check. A token that survives two such waits is presumed stale (its owner
died) and is forcibly replaced, so no handler ever hangs on a crashed peer.

Handlers may live in different processes: the token file is the only
exclusion mechanism, and cached files become visible only via rename, so a
reader never sees a partial write.
"""

from __future__ import annotations

import logging
import os
import shutil
import threading
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

logger = logging.getLogger(__name__)

DEFAULT_BUCKET_WIDTH = 1000
DEFAULT_BUCKET_TTL = 2000
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


def bucket_name(now: float, bucket_width: int = DEFAULT_BUCKET_WIDTH) -> str:
    """Cache directory name for a moment in time: epoch seconds div 1000."""
    if now < EPOCH_FLOOR:
        raise ValueError(f"epoch seconds {now} below supported floor {EPOCH_FLOOR}")
    return str(int(now) // bucket_width)


def _escape(part: str) -> str:
    return part.replace("%", "%25").replace("_", "%5F")


@dataclass(frozen=True)
class DeliveryRequest:
    title: str
    page: str

    def __post_init__(self):
        for field, value in (("title", self.title), ("page", self.page)):
            if not value:
                raise ValueError(f"{field} must be non-empty")
            # '/' would let a request name escape the cache directory.
            if any(c.isspace() for c in value) or "/" in value or "\x00" in value:
                raise ValueError(f"{field} contains forbidden characters: {value!r}")

    def cache_filename(self) -> str:
        """``<title>_<page>.jpg``, with '%' and '_' percent-escaped in both
        parts so that no two requests share a file."""
        return f"{_escape(self.title)}_{_escape(self.page)}.jpg"


class BucketCache:
    """The cache root, its rotation schedule, and the token protocol."""

    def __init__(
        self,
        root: str | Path,
        bucket_width: int = DEFAULT_BUCKET_WIDTH,
        bucket_ttl: int = DEFAULT_BUCKET_TTL,
        clock=time.time,
        sleep=time.sleep,
    ):
        if bucket_ttl < bucket_width:
            raise ValueError(f"bucket_ttl {bucket_ttl} shorter than bucket_width {bucket_width}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.bucket_width = bucket_width
        self.bucket_ttl = bucket_ttl
        self._clock = clock
        self._sleep = sleep
        self._token = self.root / "token"

    def now(self) -> float:
        return self._clock()

    def bucket_id(self, now: float) -> str:
        return bucket_name(now, self.bucket_width)

    # Per-request paths are plain strings: pathlib interns every component,
    # and each interned string that dies leaves a slot in the process-wide
    # intern table, which then grows with the number of requests served.

    def bucket_dir(self, bucket_id: str) -> str:
        return os.path.join(self.root, bucket_id)

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
        bucket = self.bucket_dir(self.bucket_id(now))
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
        """Delete buckets past their lifetime; keep enough to cover the TTL.

        With the default 1000/2000 geometry that is the current and previous
        buckets. Deletion failures are reported, not raised.
        """
        if now is None:
            now = self.now()
        cutoff = int(self.bucket_id(now)) - self.bucket_ttl // self.bucket_width + 1
        deleted = []
        for child in self.root.iterdir():
            if not child.is_dir() or not child.name.isdigit():
                continue
            if int(child.name) < cutoff:
                try:
                    shutil.rmtree(child)
                    deleted.append(child.name)
                except OSError as exc:
                    logger.warning("could not delete cache bucket %s: %s", child, exc)
        return deleted

    # -- cached files ---------------------------------------------------------

    def find_cached(self, filename: str, now: float | None = None) -> str | None:
        """Look for a cached file in the current, then the previous bucket."""
        if now is None:
            now = self.now()
        current = int(self.bucket_id(now))
        for bucket_id in (current, current - 1):
            path = os.path.join(self.root, str(bucket_id), filename)
            if os.path.isfile(path):
                return path
        return None

    def store_file(self, filename: str, payload: bytes, now: float | None = None) -> str:
        """Write into the current bucket atomically (temp name, then rename)."""
        if now is None:
            now = self.now()
        bucket = self.bucket_dir(self.bucket_id(now))
        target = os.path.join(bucket, filename)
        tmp = os.path.join(bucket, f".{filename}.{os.getpid()}.{threading.get_ident()}.tmp")
        with open(tmp, "wb") as f:
            f.write(payload)
        os.replace(tmp, target)
        return target


@dataclass(frozen=True)
class DeliveryResult:
    payload: bytes
    source: str  # "cache" or "library"
    fetch_millis: float


class ImageResolver:
    """Resolve (title, page) requests through the cache, falling back to fetch.

    ``fetch_payload(title, page)`` supplies the library bytes and raises
    NotFoundError for unknown members. Caching is best-effort: a failed cache
    write degrades to serving the fetched bytes directly. ``close``, if given,
    releases what ``fetch_payload`` reads from.
    """

    def __init__(self, fetch_payload, cache: BucketCache, close=None):
        self._fetch = fetch_payload
        self.cache = cache
        self._close = close

    def close(self) -> None:
        if self._close is not None:
            self._close()

    def resolve(self, request: DeliveryRequest, now: float | None = None) -> DeliveryResult:
        if now is None:
            now = self.cache.now()
        started = time.perf_counter()
        filename = request.cache_filename()
        cache_usable = True
        try:
            self.cache.ensure_bucket(now)
        except OSError as exc:
            logger.warning("cache unusable, serving without it: %s", exc)
            cache_usable = False
        cached = self.cache.find_cached(filename, now) if cache_usable else None
        if cached is not None:
            try:
                with open(cached, "rb") as f:
                    payload = f.read()
                return DeliveryResult(payload, "cache", (time.perf_counter() - started) * 1000)
            except OSError:
                pass  # swept between lookup and read; fall through to the library
        payload = self._fetch(request.title, request.page)
        if cache_usable:
            try:
                self.cache.store_file(filename, payload, now)
            except OSError as exc:
                logger.warning("cache write failed for %s: %s", filename, exc)
        return DeliveryResult(payload, "library", (time.perf_counter() - started) * 1000)
