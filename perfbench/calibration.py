"""A fixed pure-Python routine whose duration tracks this machine's speed.

The host this benchmark runs on is shared, and its speed drifts by tens
of percent over minutes.  Timing this routine next to the timed work, in
the same process, lets run.py normalize the gated times (`result_s`,
`setup_s`) to one machine speed.  run.py also times it before and after
a run, to flag a run during which the machine slowed.  It never calls
gchom, so no change to the package can move it.
"""

from __future__ import annotations

import time


def run_once() -> float:
    """Seconds for one pass (about 0.1 s): integer arithmetic, dicts, tuples, sorting."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    counts: dict[tuple[int, int], int] = {}
    for i in range(60_000):
        key = (i % 97, (i * 7) % 13)
        counts[key] = counts.get(key, 0) + 1
    for _ in range(200):
        sorted(((j * 31) % 89, (j * 17) % 83) for j in range(150))
    return time.perf_counter() - t0
