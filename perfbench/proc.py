"""Helpers shared by the two child processes that run raclib."""

from __future__ import annotations

import json
import resource


def peak_rss_mb() -> float:
    """Peak resident set of this process's own address space.

    ``ru_maxrss`` would also count the address space this process was
    forked from before it executed Python, which is the benchmark's, so
    VmHWM is read where the system provides it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def read_bytes() -> int:
    """Bytes this process has read through read-like system calls so far.

    ``rchar`` counts what the calls returned, whether from the page cache
    or a device, so it is the same on any host for the same work.
    """
    with open("/proc/self/io", encoding="ascii") as f:
        for line in f:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no rchar line")


def usage() -> dict:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": ru.ru_utime + ru.ru_stime, "maxrss_mb": peak_rss_mb(), "rchar": read_bytes()}


def reply(message: dict) -> None:
    print(json.dumps(message), flush=True)
