"""The four workloads: inputs, set-up, the measured loop and its checks.

Each workload runs raclib in a child process: the delivery server for the
two fetch workloads, ``worker.py`` for ``search`` and ``ingest``. This
process generates the inputs, drives the load, checks every answer and
computes the metrics.

A workload object is built once (inputs generated, oracle built) and
``prepare`` writes its fixture files once. Then ``start`` is called
``SETUP_REPEATS`` times, each into a fresh directory: it starts the raclib
process, which opens the libraries, and runs the warm-up. One of these
processes is measured; ``setup_s`` is the median time of ``start``.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import loadgen
from fixtures import Atlas, DeathRecords, MemberSet, RequestStream, digest, dir_bytes

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RECORD_SIZE = 1024  # raclib's default, which ``raclib pack`` uses

# Offered load of fetch_hot: about a sixth of what the unchanged server
# answers in a closed loop with the same two connections on a 2-core host
# (~1,550/s). The host's speed swings by a third from minute to minute; at
# half of capacity that pushed some runs into saturation (p50 varied
# fourfold between runs), and even at a quarter it doubled p99 in slow runs.
FETCH_HOT_RATE = 250.0

SIZES = {
    "full": {
        "fetch_uniform": {"collections": 4, "per_collection": 25_000, "unknown_share": 0.05, "warm_requests": 40},
        "fetch_hot": {"collections": 2, "per_collection": 500, "zipf_s": 1.0, "rate": FETCH_HOT_RATE},
        "search": {"records": 200_000, "regions": 60, "voxels": 3000, "queries": 4000, "warm_queries": 100},
        "ingest": {"members": 1000, "records": 50_000, "regions": 20, "voxels": 3000},
    },
    # Seconds-long inputs for the benchmark's own self-test.
    "toy": {
        "fetch_uniform": {"collections": 2, "per_collection": 300, "unknown_share": 0.05, "warm_requests": 20},
        "fetch_hot": {"collections": 2, "per_collection": 50, "zipf_s": 1.0, "rate": 100.0},
        "search": {"records": 5000, "regions": 4, "voxels": 3000, "queries": 200, "warm_queries": 20},
        "ingest": {"members": 50, "records": 2000, "regions": 2, "voxels": 3000},
    },
}
CLIENTS = 2


class Child:
    """A raclib process driven over stdin/stdout, one JSON line per command."""

    def __init__(self, script: str, *args):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *map(str, args)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        self.hello = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.proc.args[1]} exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> dict | None:
        """End input and reap the process; returns its final usage line, if any."""
        try:
            self.proc.stdin.close()
            line = self.proc.stdout.readline()
        finally:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return json.loads(line) if line else None


@dataclass
class Outcome:
    """One measured phase. Latencies are in seconds, one per correct operation."""

    latencies: list
    attempted: int
    failures: list
    busy_s: float  # the time ops_per_s divides by
    cpu_s: float
    read_amp: float  # bytes raclib's process read per byte of payload answered
    extra: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.attempted - len(self.latencies)


class FetchWorkload:
    """Shared by both HTTP workloads: a packed library behind the server."""

    def __init__(self, size: dict, seed: int, spans_file: Path):
        self.size = size
        self.seed = seed
        self.spans_file = spans_file
        self.members = MemberSet(seed, size["collections"], size["per_collection"])
        self.record_bytes = {
            (m.name, m.key): -(-m.size // RECORD_SIZE) * RECORD_SIZE for m in self.members.members
        }
        self.phase = 0

    def check(self, pos, status, body) -> bool:
        if pos is None:
            return status == 404
        return status == 200 and body == self.members.payload(self.members.members[pos])

    def prepare(self, work: Path) -> None:
        self.library = work / "lib"
        self.members.write_library(self.library, RECORD_SIZE)
        # Fixed by the fixture writer, not by raclib's builders (see fixtures.py).
        self.space_amp = dir_bytes(self.library) / self.members.payload_bytes()

    def start(self, rep_dir: Path) -> Child:
        """Start the server on the library with an empty cache root, then warm it."""
        child = Child("server_proc.py", self.library, rep_dir / "cache", self.spans_file)
        self.port = child.hello["port"]
        loadgen.warm(self.port, self.warm_requests(), self.check)
        return child

    def measure(self, child: Child, seconds: float, traced: bool) -> Outcome:
        self.phase += 1
        untraced = child.ask("trace-on")["untraced"] if traced else []
        before = child.ask("usage")
        load = self.drive(self.seed * 100 + self.phase, seconds)
        after = child.ask("usage")
        if traced:
            child.ask("trace-off")
        outcome = Outcome(
            latencies=[lat for lat, _ in load.samples],
            attempted=load.attempted,
            failures=load.failures,
            busy_s=load.wall_s,
            cpu_s=after["cpu_s"] - before["cpu_s"],
            read_amp=(after["rchar"] - before["rchar"]) / max(load.payload, 1),
            extra={"connections_per_req": len(load.connects) / max(load.attempted, 1)},
        )
        if traced:
            outcome.extra["untraced_functions"] = untraced
        self.describe(load, outcome.extra)
        return outcome

    def describe(self, load, extra: dict) -> None:
        pass


class FetchUniform(FetchWorkload):
    """Closed loop; uniform keys over every member plus planted unknown keys."""

    def warm_requests(self):
        # Members spread evenly over load order; the first request creates the
        # cache bucket. The measured run hardly ever asks for these again.
        step = len(self.members.members) // self.size["warm_requests"]
        return [(m.name, m.key, pos) for pos, m in enumerate(self.members.members) if pos % step == 0]

    def drive(self, seed, seconds):
        stream = RequestStream(self.members, seed, unknown_share=self.size["unknown_share"])
        return loadgen.closed_loop(self.port, stream, self.check, CLIENTS, seconds)

    def describe(self, load, extra: dict) -> None:
        n = len(self.members.members)
        first = [lat for lat, pos in load.samples if pos is not None and pos < n / 10]
        last = [lat for lat, pos in load.samples if pos is not None and pos >= n - n / 10]
        unknown = [lat for lat, pos in load.samples if pos is None]
        if first and last:
            extra["pos_ratio"] = statistics.median(last) / statistics.median(first)
            extra["pos_ratio_base"] = {"first_tenth": len(first), "last_tenth": len(last)}
        if unknown:
            extra["notfound_p50_ms"] = statistics.median(unknown) * 1000
            extra["notfound_requests"] = len(unknown)


class FetchHot(FetchWorkload):
    """Open loop at a fixed Poisson rate; Zipf keys over warmed members."""

    def warm_requests(self):
        return [(m.name, m.key, pos) for pos, m in enumerate(self.members.members)]

    def drive(self, seed, seconds):
        stream = RequestStream(self.members, seed, zipf_s=self.size["zipf_s"])
        schedule = loadgen.poisson_schedule(seed, self.size["rate"], seconds)
        return loadgen.open_loop(self.port, stream, self.check, CLIENTS, schedule)

    def describe(self, load, extra: dict) -> None:
        extra["offered_rate_per_s"] = self.size["rate"]
        if len(load.late) > 1:
            extra["loadgen.late_p99_ms"] = statistics.quantiles(load.late, n=100, method="inclusive")[98] * 1000


class WorkerWorkload:
    """Shared by the in-process workloads, run by ``worker.py``."""

    def __init__(self, size: dict, seed: int, spans_file: Path):
        self.size = size
        self.seed = seed
        self.spans_file = spans_file
        self.record_bytes = None

    def start_worker(self, rep_dir: Path, job: dict, warm_ops: int) -> Child:
        """Hand the job to a fresh worker, which opens what it needs, then warm it."""
        job_file = rep_dir / "job.json"
        job_file.write_text(json.dumps(dict(job, spans_file=str(self.spans_file))))
        child = Child("worker.py", job_file)
        warm = child.ask(f"warm {warm_ops}")
        if warm["failures"]:
            raise RuntimeError(f"warm-up failed: {warm['failures']}")
        return child

    def measure(self, child: Child, seconds: float, traced: bool) -> Outcome:
        result = child.ask(f"run {seconds} {int(traced)}")
        outcome = Outcome(
            latencies=result["latencies"],
            attempted=result["attempted"],
            failures=result["failures"],
            busy_s=sum(result["latencies"]),
            cpu_s=result["cpu_s"],
            read_amp=result["rchar"] / max(result["payload"], 1),
        )
        if traced:
            outcome.extra["untraced_functions"] = result["untraced"]
        self.describe(result, outcome)
        return outcome

    def describe(self, result: dict, outcome: Outcome) -> None:
        pass


class Search(WorkerWorkload):
    """One caller: SSDI searches, atlas block queries and region queries."""

    MIX = (("ssdi", 0.80), ("block", 0.15), ("region", 0.05))

    def __init__(self, size, seed, spans_file):
        super().__init__(size, seed, spans_file)
        self.records = DeathRecords(seed, size["records"])
        self.atlas = Atlas(seed, size["regions"], size["voxels"])
        rng = random.Random(f"queries-{seed}")
        blocks = list(self.atlas.blocks)
        regions = list(self.atlas.regions)
        # The warm-up queries come first, with SSDI names from the fixed
        # population, so that set-up does nearly the same work whatever the
        # seed. In both parts the kinds interleave in the mix's exact shares,
        # so every stretch of the list does the same mix of work.
        warm_rng = random.Random("search-warm-up")
        pairs = []
        for count, ssdi_query in ((size["warm_queries"], lambda: self.records.population_query(warm_rng)),
                                  (size["queries"], lambda: self.records.query(rng))):
            part = []
            for kind, share in self.MIX:
                n = round(count * share)
                for j in range(n):
                    if kind == "ssdi":
                        q = ssdi_query()
                        answer = self.records.expected(*q)
                    elif kind == "block":
                        q = blocks[rng.randrange(len(blocks))]
                        answer = sorted(self.atlas.blocks[q])
                    else:
                        q = (regions[rng.randrange(len(regions))],)
                        answer = sorted(self.atlas.regions[q[0]])
                    part.append(((j + 0.5) / n, (kind, *q), digest(answer)))
            part.sort(key=lambda item: item[0])
            pairs += [(q, answer) for _, q, answer in part]
        self.queries = [q for q, _ in pairs]
        self.expected = [answer for _, answer in pairs]
        self.user_bytes = len(self.records.tsv()) + len(self.atlas.tsv())

    def prepare(self, work: Path) -> None:
        self.records.write_library(work / "ssdi")
        self.atlas.write_library(work / "atlas")
        # Fixed by the fixture writers, not by raclib's builders (see fixtures.py).
        self.space_amp = (dir_bytes(work / "ssdi") + dir_bytes(work / "atlas")) / self.user_bytes
        self.job = {
            "workload": "search",
            "ssdi_dir": str(work / "ssdi"),
            "atlas_dir": str(work / "atlas"),
            "queries": self.queries,
            "expected": self.expected,
        }

    def start(self, rep_dir: Path) -> Child:
        return self.start_worker(rep_dir, self.job, self.size["warm_queries"])


class Ingest(WorkerWorkload):
    """Batches of the three build functions over the same inputs, each into a fresh directory."""

    READBACK = {"members": 20, "ssdi": 10, "blocks": 10}

    def __init__(self, size, seed, spans_file):
        super().__init__(size, seed, spans_file)
        self.members = MemberSet(seed, 1, size["members"])
        self.records = DeathRecords(seed, size["records"])
        self.atlas = Atlas(seed, size["regions"], size["voxels"])
        rng = random.Random(f"readback-{seed}")
        sample = rng.sample(self.members.members, min(self.READBACK["members"], len(self.members.members)))
        queries = [self.records.query(rng) for _ in range(self.READBACK["ssdi"])]
        blocks = rng.sample(list(self.atlas.blocks), self.READBACK["blocks"])
        self.checks = {
            "members": [(m.name, m.key, digest(self.members.payload(m))) for m in sample],
            "ssdi": [(q, digest(self.records.expected(*q))) for q in queries],
            "blocks": [(r, b, digest(sorted(self.atlas.blocks[r, b]))) for r, b in blocks],
        }

    def prepare(self, work: Path) -> None:
        inputs = work / "in"
        self.members.write_files(inputs / "members")
        (inputs / "records.tsv").write_text(self.records.tsv(), "ascii")
        (inputs / "atlas.tsv").write_text(self.atlas.tsv(), "ascii")
        self.input_bytes = dir_bytes(inputs)
        self.job = {
            "workload": "ingest",
            "members_dir": str(inputs / "members"),
            "records_tsv": str(inputs / "records.tsv"),
            "atlas_tsv": str(inputs / "atlas.tsv"),
            "input_bytes": self.input_bytes,
            "checks": self.checks,
        }

    def start(self, rep_dir: Path) -> Child:
        # One untimed batch warms the page cache and the interpreter.
        return self.start_worker(rep_dir, dict(self.job, out_dir=str(rep_dir / "out")), 1)

    def describe(self, result: dict, outcome: Outcome) -> None:
        batches = len(result["latencies"])
        self.space_amp = statistics.median(result["space_amp"]) if result["space_amp"] else None
        outcome.extra.update({
            "batches": batches,
            "ingest_mb_s": self.input_bytes * batches / outcome.busy_s / 1e6 if batches else None,
            "flush_policy": {
                "fsync_calls_per_batch": result["fsyncs"] / max(result["attempted"], 1),
                "members_per_batch": self.size["members"],
            },
        })


WORKLOADS = {
    "fetch_uniform": FetchUniform,
    "fetch_hot": FetchHot,
    "search": Search,
    "ingest": Ingest,
}
