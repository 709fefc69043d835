"""Layered raclib benchmark: one seeded command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; raclib is imported from ``src/``. Work
files go to ``.perfbench_work/`` and are removed at exit; span files of
traced runs are kept in ``.perfbench_out/``.

Workloads (``BENCHMARK.json`` records why each exists):

  fetch_uniform  closed loop over loopback HTTP, 2 connections; keys uniform
                 over 4 x 25,000 members plus 5% planted unknown keys
  fetch_hot      open loop, Poisson arrivals at a fixed offered rate, at most
                 2 connections; Zipf keys over 1,000 members, all cached in
                 set-up
  search         one in-process caller; 80% SSDI searches over 200k records,
                 15% atlas block queries, 5% atlas region queries
  ingest         batches of pack_directory (1,000 files), SsdiLibrary.build
                 (50k records) and RegionLibrary.build (20 x 3,000 voxels),
                 each batch into fresh directories, read back and checked

``--trace 0`` measures with raclib untouched and ends with the end-to-end
metrics:

  setup_s      median time of three starts of the raclib process on the same
               fixture, two before the measurement and one after it (the
               second start is the one measured): process start with its
               libraries open, then the warm-up (40 members spread over load
               order for fetch_uniform, every member once for fetch_hot, the
               first 100 queries for search, one batch for ingest; every
               answer checked). The benchmark's own fixture writing is not
               in it; the details report it as fixture_s
  read_amp     bytes the raclib process read through read-like system
               calls (rchar in /proc/self/io) per byte of payload it
               answered: member bodies, search results or ingested input
  peak_rss_mb  peak RSS of the process running raclib (server or worker)
  space_amp    bytes on disk of the libraries, indexes and sidecars per byte
               of user input. Only on ingest does raclib write them; on the
               read workloads it is the size of the benchmark's fixtures

The details line before it carries the timings: ops_per_s (correct
operations per second: of wall time over HTTP, of time inside raclib calls
in process), lat_p50_ms and lat_p99_ms (in the open loop timed from the
scheduled send time). They are reported, not gated: on the 2-core host the
benchmark was built on, the speed of a fixed CPU loop moves by a quarter from
minute to minute, and their spread over ten seeds reached 0.3-0.4 of the
median. Compare them between two commits in alternating pairs of runs.

``--trace 1`` measures half the time untraced and half with spans around
every layer's public functions, and ends with the per-layer metrics derived
from the spans, plus ``trace.overhead_ms`` (traced minus untraced p50) and
``proc.cpu_ms_per_op`` (from the untraced half).

Every answer is checked: HTTP bodies byte for byte against the generated
payload, searches and atlas queries against a brute-force oracle, ingest
output by reading a sample back. The lines before the last carry the
details: host facts, seed, error rate, the metrics that apply to one
workload only, and the latency histogram. Latencies are page-cache numbers
on the measuring host, not a storage device's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
BUCKET_WIDTH_S = 1000  # raclib's default cache bucket width


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fetch_uniform", "fetch_hot", "search", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: seconds-long inputs for the self-test")
    return parser.parse_args(argv)


def filesystem_of(path: Path) -> str:
    """Type of the mount holding ``path``, from /proc/mounts."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as f:
            for line in f:
                fields = line.split()
                mount = fields[1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def mem_available_mb() -> float | None:
    try:
        with open("/proc/meminfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def host_facts(work: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "filesystem": filesystem_of(work.resolve()),
        "mem_available_mb": mem_available_mb(),
        "latency_note": "page-cache latencies on this host, not a storage device's",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn a termination request into an exit, so the child process is
    # stopped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "raclib" / "__init__.py").is_file():
        print(f"no raclib sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from raclib.bench import histogram

    import spans
    from fixtures import dir_bytes
    from proc import reply
    from workloads import SIZES, WORKLOADS

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out = ROOT / ".perfbench_out"
    work.mkdir(parents=True)
    out.mkdir(exist_ok=True)
    child = None
    try:
        spans_file = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        workload = WORKLOADS[args.workload](SIZES[args.scale][args.workload], args.seed, spans_file)
        t0 = time.perf_counter()
        workload.prepare(work / "fixture")
        fixture_s = time.perf_counter() - t0
        setup_times = []

        def start(rep: int):
            rep_dir = work / f"start{rep}"
            rep_dir.mkdir()
            t0 = time.perf_counter()
            started = workload.start(rep_dir)
            setup_times.append(time.perf_counter() - t0)
            return started

        # Two starts before the measurement and the rest after it, so that
        # setup_s is not set by the host's speed in the run's first seconds
        # alone.
        child = start(0)
        child.close()
        child = start(1)

        wall_start = time.time()
        if args.trace:
            base = workload.measure(child, args.seconds / 2, traced=False)
            traced = workload.measure(child, args.seconds / 2, traced=True)
            outcomes = [base, traced]
        else:
            outcomes = [workload.measure(child, args.seconds, traced=False)]
        wall_end = time.time()
        final = child.close()
        child = None
        if final is None:
            raise RuntimeError("the raclib process exited without reporting its usage")
        for rep in range(2, SETUP_REPEATS):
            child = start(rep)
            child.close()
            child = None

        attempted = sum(o.attempted for o in outcomes)
        failed = sum(o.failed for o in outcomes)
        main_outcome = outcomes[-1]
        lat_ms = [lat * 1000 for lat in main_outcome.latencies]
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "host": host_facts(work),
            "fixture_bytes": dir_bytes(work / "fixture"),
            "fixture_s": fixture_s,
            "setup_s_each": setup_times,
            "samples": len(lat_ms),
            "ops_per_s": len(lat_ms) / main_outcome.busy_s if lat_ms else 0.0,
            "lat_p50_ms": statistics.median(lat_ms) if lat_ms else None,
            "lat_p99_ms": statistics.quantiles(lat_ms, n=100, method="inclusive")[98] if len(lat_ms) > 1 else None,
            "error_rate": failed / attempted,
            "failures": [f for o in outcomes for f in o.failures],
            # The cache starts a bucket every 1000 s of wall-clock time; a run
            # that crosses one may wait on the bucket token (up to 2 s).
            "bucket_boundary_crossed": int(wall_start) // BUCKET_WIDTH_S != int(wall_end) // BUCKET_WIDTH_S,
            **main_outcome.extra,
        }
        if lat_ms and min(lat_ms) > 0:
            details["latency_histogram_ms"] = histogram(lat_ms)

        if args.trace:
            summary = spans.summarize(spans.load(spans_file), workload.record_bytes)
            base_p50 = statistics.median(base.latencies) * 1000
            traced_p50 = statistics.median(lat_ms)
            metrics = dict(summary["metrics"])
            metrics["server.connections_per_req"] = base.extra.get("connections_per_req", 0.0)
            metrics["proc.cpu_ms_per_op"] = base.cpu_s * 1000 / max(base.attempted, 1)
            metrics["trace.overhead_ms"] = traced_p50 - base_p50
            details["per_layer_detail"] = summary["detail"]
            details["untraced_lat_p50_ms"] = base_p50
            details["traced_lat_p50_ms"] = traced_p50
            details["spans_file"] = str(spans_file.relative_to(ROOT))
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "read_amp": main_outcome.read_amp,
                "peak_rss_mb": final["maxrss_mb"],
                "space_amp": workload.space_amp,
            }
        defined = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
        if set(metrics) != {m["name"] for m in defined}:
            raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
        reply({"details": details})
        reply({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in defined},
        })
        return 0
    finally:
        if child is not None:
            child.close()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
