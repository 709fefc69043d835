"""Loopback HTTP load: a closed loop and a Poisson open loop.

Each client thread owns one ``http.client`` connection. http.client reopens
the connection only when the server closed it, so a server that keeps
connections alive is reused without any change here; ``connects`` counts
the connections actually opened.

Every response is checked by the caller's ``check(pos, status, body)``
outside the timed region. A dropped connection or any other exception is a
failed request.
"""

from __future__ import annotations

import http.client
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from urllib.parse import urlencode

MAX_FAILURE_EXAMPLES = 5
CLIENT_SWITCH_INTERVAL_S = 0.0005


class _Connection(http.client.HTTPConnection):
    def __init__(self, port: int, counter: list):
        super().__init__("127.0.0.1", port, timeout=60)
        self._counter = counter

    def connect(self):
        self._counter.append(1)
        super().connect()


@dataclass
class Load:
    """What one loop observed. ``samples`` holds (latency_s, pos) per correct reply."""

    samples: list = field(default_factory=list)
    attempted: int = 0
    payload: int = 0  # body bytes of the correct replies
    failures: list = field(default_factory=list)
    connects: list = field(default_factory=list)
    late: list = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.finished - self.started


def _get(conn: _Connection, name: str, key: str):
    conn.request("GET", "/image?" + urlencode({"title": name, "page": key}))
    response = conn.getresponse()
    return response.status, response.read()


def _request(conn, load, lock, check, name, key, pos, due):
    """Send one request; returns its completion time."""
    try:
        status, body = _get(conn, name, key)
        problem = None
    except (OSError, http.client.HTTPException) as exc:
        conn.close()
        status, body, problem = None, b"", f"{type(exc).__name__}: {exc}"
    done = time.perf_counter()
    ok = problem is None and check(pos, status, body)
    with lock:
        load.attempted += 1
        if ok:
            load.samples.append((done - due, pos))
            load.payload += len(body)
        elif len(load.failures) < MAX_FAILURE_EXAMPLES:
            load.failures.append(problem or f"({name}, {key}) answered {status}, {len(body)} bytes")
    return done


def _run_clients(clients: int, body) -> None:
    # A client thread waking for its next send must not wait out the other's
    # default 5 ms interpreter time slice, or the generator's own lateness
    # would show as server latency.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(CLIENT_SWITCH_INTERVAL_S)
    threads = [threading.Thread(target=body, daemon=True) for _ in range(clients)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)


def closed_loop(port: int, stream, check, clients: int, seconds: float) -> Load:
    """Each client sends its next request as soon as the previous one is answered."""
    load, lock = Load(), threading.Lock()
    load.started = time.perf_counter()
    deadline = load.started + seconds

    def client():
        conn = _Connection(port, load.connects)
        last = load.started
        try:
            while True:
                with lock:
                    if time.perf_counter() >= deadline:
                        break
                    name, key, pos = stream.next()
                last = _request(conn, load, lock, check, name, key, pos, time.perf_counter())
        finally:
            conn.close()
            with lock:
                load.finished = max(load.finished, last)

    _run_clients(clients, client)
    return load


def poisson_schedule(seed: int, rate: float, seconds: float) -> list[float]:
    """Arrival offsets of a Poisson process of ``rate`` per second."""
    rng = random.Random(f"arrivals-{seed}")
    offsets, t = [], rng.expovariate(rate)
    while t < seconds:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def open_loop(port: int, stream, check, clients: int, schedule: list[float]) -> Load:
    """Requests are due on ``schedule`` whether or not earlier ones are answered.

    At most ``clients`` requests are in flight; a due request waits for a
    free connection. Latency runs from the due time, so a stall also counts
    against every request queued behind it; ``late`` records how long after
    its due time each request was actually sent.
    """
    load, lock = Load(), threading.Lock()
    requests = [stream.next() for _ in schedule]
    cursor = iter(range(len(schedule)))
    load.started = time.perf_counter()

    def client():
        conn = _Connection(port, load.connects)
        last = load.started
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    break
                due = load.started + schedule[i]
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                load.late.append(time.perf_counter() - due)
                last = _request(conn, load, lock, check, *requests[i], due)
        finally:
            conn.close()
            with lock:
                load.finished = max(load.finished, last)

    _run_clients(clients, client)
    return load


def warm(port: int, requests, check) -> None:
    """Send ``requests`` one at a time before timing; a wrong answer aborts set-up."""
    conn = _Connection(port, [])
    try:
        for name, key, pos in requests:
            status, body = _get(conn, name, key)
            if not check(pos, status, body):
                raise RuntimeError(f"warm-up request ({name}, {key}) answered {status}")
    finally:
        conn.close()
