"""Latency benchmarking: synthetic libraries, per-offset fetch timing, and a
scan-only archive baseline.

Wall-clock numbers are host-dependent, so the harness also reports bytes
touched per operation: a positioned fetch reads exactly its own records
wherever they sit, while extracting member k from the baseline archive reads
everything before it. Histogram output is (bin_low, bin_high, count) rows
suitable for log-log plotting.
"""

from __future__ import annotations

import random
import statistics
import time
from bisect import bisect_right
from dataclasses import dataclass
from math import ceil, floor, log10
from pathlib import Path

from .store import RecordStore, closed_on_error

SYNTH_CHUNK_BYTES = 16 * 1024 * 1024
SCAN_HEADER_SIZE = 16  # 15-digit payload length plus newline


@dataclass(frozen=True)
class LatencySample:
    start: int
    count: int
    elapsed_us: float
    bytes_read: int


@dataclass(frozen=True)
class FetchStats:
    samples: list[LatencySample]

    def _elapsed(self) -> list[float]:
        return [s.elapsed_us for s in self.samples]

    @property
    def min_us(self) -> float:
        return min(self._elapsed())

    @property
    def median_us(self) -> float:
        return statistics.median(self._elapsed())

    @property
    def mean_us(self) -> float:
        return statistics.fmean(self._elapsed())

    @property
    def max_us(self) -> float:
        return max(self._elapsed())


def synth_library(
    path: str | Path, n_records: int, record_size: int = 1024, seed: int = 0
) -> RecordStore:
    """Create a store of n_records pseudorandom records, reproducible per seed.

    The records are generated and written one chunk at a time, under one
    fsync and one sidecar update in total.
    """
    rng = random.Random(seed)
    chunk_records = max(1, SYNTH_CHUNK_BYTES // record_size)

    def chunks():
        remaining = n_records
        while remaining:
            n = min(chunk_records, remaining)
            yield rng.randbytes(n * record_size)
            remaining -= n

    with closed_on_error(RecordStore.create(path, record_size)) as store:
        store.append_payloads(chunks())  # whole records, so no padding
    return store


def _timed_read(store: RecordStore, start: int, count: int) -> LatencySample:
    before = store.counters.bytes_read
    t0 = time.perf_counter_ns()
    store.read_records(start, count)
    elapsed_us = (time.perf_counter_ns() - t0) / 1000
    return LatencySample(start, count, elapsed_us, store.counters.bytes_read - before)


def measure_fetch(store: RecordStore, start: int, count: int, trials: int) -> FetchStats:
    """Time `trials` positioned reads of the same record range."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return FetchStats([_timed_read(store, start, count) for _ in range(trials)])


def compare_offsets(
    store: RecordStore, start_a: int, start_b: int, count: int, trials: int
) -> tuple[FetchStats, FetchStats]:
    """Time fetches at two offsets, interleaved and order-alternated so cache
    warm-up and host load spread evenly over both."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    a_samples, b_samples = [], []
    for i in range(trials):
        pair = [(start_a, a_samples), (start_b, b_samples)]
        for start, sink in pair if i % 2 == 0 else reversed(pair):
            sink.append(_timed_read(store, start, count))
    return FetchStats(a_samples), FetchStats(b_samples)


# -- scan-only baseline archive ------------------------------------------------

def build_scan_archive(path: str | Path, payloads) -> int:
    """Write a header+payload-per-member archive; returns the member count.

    Members carry no index, so extraction has to read through everything in
    front of the target, like streaming a tar.
    """
    n = 0
    with open(path, "wb") as f:
        for payload in payloads:
            f.write(f"{len(payload):015d}\n".encode("ascii"))
            f.write(payload)
            n += 1
    return n


def scan_extract(path: str | Path, member_ordinal: int) -> tuple[bytes, int]:
    """Extract one member by scanning from byte 0; returns (payload, bytes read)."""
    if member_ordinal < 0:
        raise IndexError(f"member ordinal out of range: {member_ordinal}")
    bytes_read = 0
    with open(path, "rb") as f:
        ordinal = 0
        while True:
            header = f.read(SCAN_HEADER_SIZE)
            if not header:
                raise IndexError(f"member ordinal out of range: {member_ordinal}")
            if len(header) != SCAN_HEADER_SIZE:
                raise ValueError(f"truncated archive header in {path}")
            bytes_read += len(header)
            payload = f.read(int(header))
            bytes_read += len(payload)
            if ordinal == member_ordinal:
                return payload, bytes_read
            ordinal += 1


def serial_baseline(archive_path: str | Path, member_ordinal: int) -> LatencySample:
    """Timed scan extraction of one member from a baseline archive."""
    t0 = time.perf_counter_ns()
    _, bytes_read = scan_extract(archive_path, member_ordinal)
    elapsed_us = (time.perf_counter_ns() - t0) / 1000
    return LatencySample(start=member_ordinal, count=1, elapsed_us=elapsed_us, bytes_read=bytes_read)


# -- histogram output ------------------------------------------------------------

def decade_edges(values) -> list[float]:
    """Powers of ten covering all (positive) values; at least one decade wide."""
    lo, hi = min(values), max(values)
    if lo <= 0:
        raise ValueError("decade bins need positive values; pass explicit edges")
    first = floor(log10(lo))
    last = max(ceil(log10(hi)), first + 1)
    return [float(10**k) for k in range(first, last + 1)]


def histogram(values, edges=None) -> list[tuple[float, float, int]]:
    """Bin values into (bin_low, bin_high, count) rows; bins must cover all values.

    Bins are half-open [low, high) except the last, which includes its upper edge.
    """
    values = list(values)
    if not values:
        raise ValueError("histogram needs at least one sample")
    if edges is None:
        edges = decade_edges(values)
    edges = [float(e) for e in edges]
    if len(edges) < 2 or any(a >= b for a, b in zip(edges, edges[1:])):
        raise ValueError(f"bin edges must be strictly increasing: {edges}")
    if min(values) < edges[0] or max(values) > edges[-1]:
        raise ValueError("bin edges do not cover all samples")
    counts = [0] * (len(edges) - 1)
    for v in values:
        counts[min(bisect_right(edges, v), len(edges) - 1) - 1] += 1
    return [(edges[i], edges[i + 1], counts[i]) for i in range(len(counts))]


def histogram_csv(values, edges=None) -> str:
    lines = ["bin_low,bin_high,count"]
    for low, high, count in histogram(values, edges):
        lines.append(f"{low:g},{high:g},{count}")
    return "\n".join(lines) + "\n"
