"""Run the in-process workloads (search, ingest) in a process of their own.

    python3 perfbench/worker.py JOB_FILE

The job file (JSON, written by ``run.py``) names the workload, its inputs
and the oracle's expected digests. Keeping raclib's calls in this process
and the generator and oracle in the parent makes ``peak_rss_mb`` the
footprint of raclib, not of the benchmark. The worker opens what it needs,
prints one JSON line, then answers one JSON line per command on stdin:

    warm COUNT          COUNT operations, untimed, before measuring
    run SECONDS TRACE   closed loop for SECONDS, spans on if TRACE is 1
    usage               CPU seconds and peak RSS of this process so far

Every answer is checked against the oracle outside the timed region.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from fixtures import digest, dir_bytes
from raclib import pack
from raclib.neuro import COORD_RECORD_SIZE, RegionLibrary, read_atlas_tsv
from raclib.ssdi import RECORD_SIZE as SSDI_RECORD_SIZE
from raclib.ssdi import SearchQuery, SsdiLibrary, read_records_tsv
from proc import read_bytes, reply, usage
from spans import Tracer

MAX_FAILURE_EXAMPLES = 5


def canonical_records(records) -> list[tuple]:
    return sorted((r.surname, r.given, r.ssn, r.birth_date, r.death_date) for r in records)


def canonical_voxels(voxels) -> list[tuple]:
    return sorted(tuple(v) for v in voxels)


class Search:
    """Cycles through the job's query list: SSDI searches and atlas queries."""

    def __init__(self, job):
        self.ssdi = SsdiLibrary.open(job["ssdi_dir"])
        self.atlas = RegionLibrary.open(job["atlas_dir"])
        self.queries = job["queries"]
        self.expected = job["expected"]
        self.next = 0

    def op(self, tracer):
        i = self.next % len(self.queries)
        self.next += 1
        kind, *args = self.queries[i]
        t0 = time.perf_counter()
        with tracer.span("op." + kind) if tracer else nullcontext():
            if kind == "ssdi":
                result = self.ssdi.search(SearchQuery(surname=args[0], given=args[1], birth_year=args[2]))
            elif kind == "block":
                result = self.atlas.block_voxels(args[0], args[1])
            else:
                result = self.atlas.region_voxels(args[0])
        elapsed = time.perf_counter() - t0
        canonical = canonical_records(result) if kind == "ssdi" else canonical_voxels(result)
        ok = digest(canonical) == self.expected[i]
        payload = len(result) * (SSDI_RECORD_SIZE if kind == "ssdi" else COORD_RECORD_SIZE)
        return elapsed, ok, None if ok else f"{kind} {args}: {len(result)} results differ from the oracle", payload

    def take_counts(self) -> dict:
        return {"check_rchar": 0}


class Ingest:
    """One batch: pack_directory, SsdiLibrary.build and RegionLibrary.build.

    Each batch builds into fresh directories, then reads a sample back and
    checks it against the oracle, untimed, and deletes its output. The bytes
    the check reads are counted apart, so ``read_amp`` covers the builds only.
    """

    def __init__(self, job):
        self.job = job
        self.out = Path(job["out_dir"])
        self.batch = 0
        self.fsyncs = 0
        self.check_rchar = 0
        self.space_amp = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            self.fsyncs += 1
            return real_fsync(fd)

        # Counts the flush policy the build functions follow; one call per fsync.
        os.fsync = counting_fsync

    def op(self, tracer):
        job = self.job
        out = self.out / f"batch{self.batch}"
        self.batch += 1
        t0 = time.perf_counter()
        with tracer.span("op.ingest") if tracer else nullcontext():
            collection = pack.pack_directory(job["members_dir"], "ingest", out / "lib")
            ssdi = SsdiLibrary.build(read_records_tsv(job["records_tsv"]), out / "ssdi")
            atlas = RegionLibrary.build(read_atlas_tsv(job["atlas_tsv"]), out / "atlas")
        elapsed = time.perf_counter() - t0
        rchar = read_bytes()
        try:
            with tracer.span("check") if tracer else nullcontext():
                problem = self.readback(collection, ssdi, atlas)
        finally:
            collection.close()
            ssdi.close()
            atlas.close()
            self.check_rchar += read_bytes() - rchar
        self.space_amp.append(dir_bytes(out) / job["input_bytes"])
        shutil.rmtree(out)
        return elapsed, problem is None, problem, job["input_bytes"]

    def take_counts(self) -> dict:
        """fsync calls, bytes read by the checks and space amplification since the last call."""
        counts = {"fsyncs": self.fsyncs, "check_rchar": self.check_rchar, "space_amp": self.space_amp}
        self.fsyncs, self.check_rchar, self.space_amp = 0, 0, []
        return counts

    def readback(self, collection, ssdi, atlas):
        checks = self.job["checks"]
        for name, key, expected in checks["members"]:
            if digest(collection.fetch(name, key)) != expected:
                return f"member ({name}, {key}) read back wrong bytes"
        for (surname, given, year), expected in checks["ssdi"]:
            result = ssdi.search(SearchQuery(surname=surname, given=given, birth_year=year))
            if digest(canonical_records(result)) != expected:
                return f"ssdi ({surname}, {given}, {year}) read back wrong records"
        for region, block, expected in checks["blocks"]:
            if digest(canonical_voxels(atlas.block_voxels(region, block))) != expected:
                return f"block ({region}, {block}) read back wrong voxels"
        return None


def run(workload, seconds: float, traced: bool, spans_file: str) -> dict:
    tracer = Tracer() if traced else None
    if tracer:
        tracer.start()
    latencies, failures = [], []
    attempted = payload = 0
    before = usage()
    deadline = time.perf_counter() + seconds
    while True:
        attempted += 1
        try:
            elapsed, ok, problem, size = workload.op(tracer)
        except Exception as exc:  # counted as a failed operation, never fatal
            elapsed, ok, problem, size = None, False, f"{type(exc).__name__}: {exc}", 0
        if ok:
            latencies.append(elapsed)
            payload += size
        elif len(failures) < MAX_FAILURE_EXAMPLES:
            failures.append(problem)
        if time.perf_counter() >= deadline:
            break
    after = usage()
    counts = workload.take_counts()
    result = {
        "latencies": latencies,
        "attempted": attempted,
        "failures": failures,
        "cpu_s": after["cpu_s"] - before["cpu_s"],
        "rchar": after["rchar"] - before["rchar"] - counts.pop("check_rchar"),
        "payload": payload,
        **counts,
    }
    if tracer:
        tracer.stop()
        tracer.dump(spans_file)
        result["untraced"] = tracer.missing
    return result


def warm(workload, count: int) -> dict:
    """Run ``count`` operations; their answers are checked, their counts dropped."""
    failures = []
    for _ in range(count):
        _, ok, problem, _ = workload.op(None)
        if not ok:
            failures.append(problem)
    workload.take_counts()
    return {"failures": failures[:MAX_FAILURE_EXAMPLES]}


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text())
    workload = Search(job) if job["workload"] == "search" else Ingest(job)
    reply({"ready": True})
    for line in sys.stdin:
        command = line.split()
        if command and command[0] == "warm":
            reply(warm(workload, int(command[1])))
        elif command and command[0] == "run":
            reply(run(workload, float(command[1]), command[2] == "1", job["spans_file"]))
        elif command == ["usage"]:
            reply(usage())
        else:
            reply({"error": f"unknown command {line.strip()!r}"})
    reply(usage())


if __name__ == "__main__":
    main()
