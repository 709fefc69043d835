"""Synthetic corpora shared across test modules."""

import os
import random
import tracemalloc

SURNAMES = [
    "JOHNSON", "JONES", "JONAS", "KENNEDY", "KENNER", "KENT", "SMITH", "SMYTHE",
    "O'NEIL", "O'BRIEN", "MC-GEE", "DE LA CRUZ", "LI", "NG", "U", "AARON",
    "WASHINGTON", "RIVERA", "GARCIA", "MULLER", "BAKER", "ZHANG", "QUINT",
]

GIVENS = [
    "JAMES", "JOHN", "JOSEPH", "ROBERT", "ROSE", "RALPH", "MARY", "ANNA",
    "D", "J R", "ELIZABETH", "WILL", "WILLIAM", "", "XAVIER", "YOLANDA",
]


def random_name(rng: random.Random, pool: list[str]) -> str:
    if rng.random() < 0.7:
        return rng.choice(pool)
    return "".join(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ") for _ in range(rng.randrange(1, 9)))


def random_death_fields(rng: random.Random, n: int):
    """Yield n (surname, given, ssn, birth, death) field tuples."""
    for _ in range(n):
        birth_year = rng.randrange(1870, 1995)
        death_year = min(birth_year + rng.randrange(0, 95), 2011)
        month = rng.randrange(0, 13)
        day = 0 if rng.random() < 0.2 else rng.randrange(1, 29)
        yield (
            random_name(rng, SURNAMES),
            random_name(rng, GIVENS),
            f"{rng.randrange(10**9):09d}",
            f"{birth_year:04d}{month:02d}{day:02d}",
            f"{death_year:04d}{rng.randrange(0, 13):02d}{rng.randrange(0, 29):02d}",
        )


def open_fd_count() -> int:
    """File descriptors this process holds (raw fds raise no ResourceWarning)."""
    return len(os.listdir("/proc/self/fd"))


def traced_peak(fn) -> int:
    """Peak bytes Python allocated while ``fn()`` ran, above what was live when it began.

    Starts and stops tracing itself, so what the caller built before the call
    (an input already parsed, say) is not counted.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
