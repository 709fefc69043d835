"""Spans around the public functions of each raclib layer, added from outside.

``Tracer.start`` replaces the layer functions listed in ``LAYER_FUNCTIONS``
on their classes and modules with timing wrappers; ``Tracer.stop`` puts the
originals back, so an untraced run executes raclib exactly as shipped.
Each span records its name, start, end, parent span and request id (the id
of the root span of its call tree). Spans are kept in memory and written
out as JSON lines when tracing stops.

A layer's self time is its spans' durations minus the time their child
spans cover. Children run on the parent's thread, so they never overlap
and their durations simply add up.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager

from raclib import cache, computed_index, neuro, pack, serial_index, server, ssdi, store

LAYERS = ("store", "serial_index", "computed_index", "pack", "ssdi", "neuro", "cache", "server")
BUCKET_OUTCOMES = ("created", "existed", "waited", "forced")


def _bytes_returned(args, result):
    return {"bytes": len(result)}


def _bytes_appended(args, result):
    return {"bytes": len(args[1])}


def _member_fetched(args, result):
    return {"member": [args[1], args[2]], "payload": len(result)}


def _records_found(args, result):
    return {"hits": len(result), "payload": len(result) * ssdi.RECORD_SIZE}


def _voxels_found(args, result):
    return {"payload": len(result) * neuro.COORD_RECORD_SIZE}


def _source(args, result):
    return {"source": result.source}


def _outcome(args, result):
    return {"outcome": result.value}


# (layer, owner, attribute, note). The note turns a call's arguments and
# result into the span attributes the per-layer counts are derived from.
LAYER_FUNCTIONS = (
    ("store", store.RecordStore, "read_records", _bytes_returned),
    ("store", store.RecordStore, "append_payload", _bytes_appended),
    ("serial_index", serial_index.SerialIndex, "lookup", None),
    ("serial_index", serial_index.SerialIndex, "append", None),
    ("computed_index", computed_index.ComputedIndex, "read_group_entry", None),
    ("computed_index", computed_index.ComputedIndex, "write_all", None),
    ("pack", pack.CollectionSet, "fetch", _member_fetched),
    ("pack", pack.Collection, "fetch", None),
    ("pack", pack, "pack_directory", None),
    ("ssdi", ssdi.SsdiLibrary, "search", _records_found),
    ("ssdi", ssdi.SsdiLibrary, "build", None),
    ("neuro", neuro.RegionLibrary, "block_voxels", _voxels_found),
    ("neuro", neuro.RegionLibrary, "region_voxels", _voxels_found),
    ("neuro", neuro.RegionLibrary, "build", None),
    ("cache", cache.ImageResolver, "resolve", _source),
    ("cache", cache.BucketCache, "ensure_bucket", _outcome),
    ("cache", cache.BucketCache, "find_cached", None),
    ("cache", cache.BucketCache, "store_file", None),
    ("server", server.DeliveryHandler, "do_GET", None),
)


def span_name(layer: str, owner, attr: str) -> str:
    return f"{layer}.{owner.__name__}.{attr}" if isinstance(owner, type) else f"{layer}.{attr}"


class Tracer:
    """Records spans while started; restores every patched function on stop."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []
        self._traced: dict = {}  # original function -> wrapper, for rebind()

    def _record(self, name, note):
        """Open a span; returns the closer that records it."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent, request = stack[-1] if stack else (None, span_id)
        stack.append((span_id, request))
        start = time.perf_counter_ns()

        def close(args, result, error):
            end = time.perf_counter_ns()
            stack.pop()
            attrs = note(args, result) if note is not None and error is None else None
            self.spans.append((span_id, parent, request, name, start, end, error, attrs))

        return close

    def _wrap(self, name, func, note):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            close = self._record(name, note)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                close(args, None, type(exc).__name__)
                raise
            close(args, result, None)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one operation's root."""
        close = self._record(name, None)
        error = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            close((), None, error)

    def start(self) -> None:
        for layer, owner, attr, note in LAYER_FUNCTIONS:
            name = span_name(layer, owner, attr)
            try:
                original = inspect.getattr_static(owner, attr)
            except AttributeError:
                self.missing.append(name)
                continue
            if isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(self._wrap(name, original.__func__, note))
                self._traced[original.__func__] = replacement.__func__
            else:
                replacement = self._wrap(name, original, note)
                self._traced[original] = replacement
            self._saved.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, replacement)

    def stop(self) -> None:
        for owner, attr, original, owned in reversed(self._saved):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def rebind(self, obj) -> None:
        """Swap bound methods that ``obj`` captured before (or while) tracing.

        ``build_resolver`` hands the resolver ``collections.fetch`` as a bound
        method, which class patching alone would never reach.
        """
        back = {wrapper: original for original, wrapper in self._traced.items()}
        table = self._traced if self._saved else back
        for attr, value in list(vars(obj).items()):
            if inspect.ismethod(value) and value.__func__ in table:
                setattr(obj, attr, types.MethodType(table[value.__func__], value.__self__))

    def dump(self, path) -> int:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
        return len(self.spans)


def load(path) -> list[tuple]:
    with open(path, encoding="utf-8") as f:
        return [tuple(json.loads(line)) for line in f]


def summarize(spans, record_sizes=None) -> dict:
    """Per-layer counts, self times and ratios over every operation's tree.

    Roots are the spans without a parent (one per request or operation),
    except the benchmark's own ``check`` spans, whose trees are excluded.
    ``record_sizes`` maps a fetched (name, key) to its records' byte length,
    so the one-read law can be checked exactly.
    """
    by_id = {s[0]: s for s in spans}
    roots = {s[0] for s in spans if s[1] is None and s[3] != "check"}
    spans = [s for s in spans if s[2] in roots]
    child_ns = defaultdict(int)
    for s in spans:
        if s[1] is not None:
            child_ns[s[1]] += s[5] - s[4]
    self_ns = {s[0]: s[5] - s[4] - child_ns[s[0]] for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[3]].append(s)

    def durations_us(spans, own=False):
        return [(self_ns[s[0]] if own else s[5] - s[4]) / 1000 for s in spans]

    def us(name, own=False):
        values = durations_us(by_name[name], own)
        return statistics.median(values) if values else None

    def us_p99(name):
        values = durations_us(by_name[name])
        return statistics.quantiles(values, n=100, method="inclusive")[98] if len(values) > 1 else None

    def attr_sum(name, key):
        return sum(s[7][key] for s in by_name[name] if s[7])

    def ratio(a, b):
        return a / b if b else 0.0

    ops = len(roots)
    root_ns = sum(by_id[r][5] - by_id[r][4] for r in roots)
    layer_self = defaultdict(int)
    layer_calls = defaultdict(int)
    for s in spans:
        layer = s[3].split(".", 1)[0]
        layer_self[layer] += self_ns[s[0]]
        layer_calls[layer] += 1

    reads = by_name["store.RecordStore.read_records"]
    read_bytes = attr_sum("store.RecordStore.read_records", "bytes")
    fetches = [s for s in by_name["pack.CollectionSet.fetch"] if s[7]]
    searches = by_name["ssdi.SsdiLibrary.search"]
    search_ids = {s[0] for s in searches}
    search_read_bytes = sum(s[7]["bytes"] for s in reads if s[1] in search_ids)
    payload = sum(
        attr_sum(name, "payload")
        for name in ("pack.CollectionSet.fetch", "ssdi.SsdiLibrary.search",
                     "neuro.RegionLibrary.block_voxels", "neuro.RegionLibrary.region_voxels")
    )
    resolves = [s for s in by_name["cache.ImageResolver.resolve"] if s[7]]
    hits = [s for s in resolves if s[7]["source"] == "cache"]
    misses = [s for s in resolves if s[7]["source"] != "cache"]
    outcomes = defaultdict(int)
    for s in by_name["cache.BucketCache.ensure_bucket"]:
        if s[7]:
            outcomes[s[7]["outcome"]] += 1
    handles = by_name["server.DeliveryHandler.do_GET"]

    metrics = {
        "store.read_calls_per_op": ratio(len(reads), ops),
        "store.read_bytes_per_payload_byte": ratio(read_bytes, payload),
        "store.append_calls_per_op": ratio(len(by_name["store.RecordStore.append_payload"]), ops),
        "serial_index.lookups_per_fetch": ratio(
            len(by_name["serial_index.SerialIndex.lookup"]), len(by_name["pack.CollectionSet.fetch"])),
        "pack.collections_tried_per_fetch": ratio(
            len(by_name["pack.Collection.fetch"]), len(by_name["pack.CollectionSet.fetch"])),
        "computed_index.reads_per_search": ratio(
            len(by_name["computed_index.ComputedIndex.read_group_entry"]), len(searches)),
        "ssdi.hits_per_record_read": ratio(
            attr_sum("ssdi.SsdiLibrary.search", "hits"), search_read_bytes / ssdi.RECORD_SIZE),
        "cache.hit_ratio": ratio(len(hits), len(resolves)),
    }
    for outcome in BUCKET_OUTCOMES:
        metrics[f"cache.bucket_{outcome}"] = outcomes[outcome]
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_op"] = ratio(layer_calls[layer], ops)
        metrics[f"{layer}.self_share"] = ratio(layer_self[layer], root_ns)

    # Timings of single functions; None where the workload never calls one.
    detail = {
        "ops": ops,
        "store.read_us_p50": us("store.RecordStore.read_records"),
        "store.read_bytes": read_bytes,
        "payload_bytes": payload,
        "store.append_calls": len(by_name["store.RecordStore.append_payload"]),
        "store.append_us_p50": us("store.RecordStore.append_payload"),
        "serial_index.lookup_us_p50": us("serial_index.SerialIndex.lookup"),
        "serial_index.lookup_us_p99": us_p99("serial_index.SerialIndex.lookup"),
        "serial_index.append_us_p50": us("serial_index.SerialIndex.append"),
        "pack.fetch_us_p50": us("pack.CollectionSet.fetch"),
        "pack.pack_directory_s": _seconds(us("pack.pack_directory")),
        "computed_index.read_us_p50": us("computed_index.ComputedIndex.read_group_entry"),
        "ssdi.search_us_p50": us("ssdi.SsdiLibrary.search"),
        "ssdi.search_self_us_p50": us("ssdi.SsdiLibrary.search", own=True),
        "ssdi.build_s": _seconds(us("ssdi.SsdiLibrary.build")),
        "neuro.block_us_p50": us("neuro.RegionLibrary.block_voxels"),
        "neuro.region_us_p50": us("neuro.RegionLibrary.region_voxels"),
        "neuro.build_s": _seconds(us("neuro.RegionLibrary.build")),
        "cache.resolve_hit_us_p50": statistics.median(durations_us(hits)) if hits else None,
        "cache.resolve_miss_us_p50": statistics.median(durations_us(misses)) if misses else None,
        "cache.store_file_us_p50": us("cache.BucketCache.store_file"),
        "cache.ensure_bucket_us_p50": us("cache.BucketCache.ensure_bucket"),
        "server.handle_us_p50": us("server.DeliveryHandler.do_GET"),
        "server.self_us_p50": us("server.DeliveryHandler.do_GET", own=True),
        "server.requests": len(handles),
        "errors": sorted({s[6] for s in spans if s[6]}),
    }
    for layer in LAYERS:
        detail[f"{layer}.self_ms_total"] = layer_self[layer] / 1e6
    if record_sizes is not None:
        expected = sum(record_sizes[tuple(s[7]["member"])] for s in fetches)
        detail["store.read_bytes_expected"] = expected
        detail["store.read_bytes_exact"] = expected == read_bytes
    return {"metrics": metrics, "detail": detail}


def _seconds(value_us):
    return None if value_us is None else value_us / 1e6
