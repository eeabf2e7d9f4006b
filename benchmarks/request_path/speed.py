"""A probe of how fast the sandbox is running right now.

The sandbox is a 2-vCPU microVM on a shared host: the speed of its cores
wanders by a factor of up to two over seconds (a fixed loop measured 142-277
ms within one minute), which no amount of repetition inside a 10-second run
averages out — the best of three consecutive windows spread as widely as one.
So the measured process takes, between sessions, the thread-CPU time of a
fixed piece of work shaped like the service's own (JSON both ways, a keyed
sort, float arithmetic, a dict build, string formatting), and every time it
reports is scaled to what it would have been at ``REFERENCE_MS`` per probe.
In a 150-second experiment that brought the spread of a 1.5-second unit of
such work, best of three, from 21 % down to 3.5 %.

The probe reads thread CPU time, so waiting — for the GIL, a socket, the
other client — does not count; it never touches the system under test.
"""

from __future__ import annotations

import json
import time
from typing import List

#: A round number inside the range a round's mean probe took on the sandbox
#: the benchmark was defined on (1.2-1.9 ms, by the hour), so that a time
#: reads roughly as measured.  Only a scale: every time metric is
#: proportional to it.
REFERENCE_MS = 1.5
#: Least time between two probes of one client, so that probing costs a few
#: per cent of a round however short its sessions are.
PROBE_EVERY_SECONDS = 0.05

_ROWS = [
    {
        "id": f"LD-{index:06d}",
        "price": 300.0 + (index * 7919) % 59700,
        "carat": 0.2 + ((index * 104729) % 480) / 100.0,
        "cut": ("good", "very_good", "ideal")[index % 3],
        "depth": 55.0 + (index * 31) % 150 / 10.0,
    }
    for index in range(64)
]


def probe() -> float:
    """Thread-CPU milliseconds of the fixed work unit."""
    started = time.thread_time()
    for _ in range(4):
        rows: List[dict] = json.loads(json.dumps(_ROWS))
        rows.sort(key=lambda row: (row["price"] / 59700.0 - 0.5 * row["carat"], row["id"]))
        total = 0.0
        for row in rows:
            total += row["depth"] * 0.25 - row["carat"]
        by_key = {row["id"]: row for row in rows}
        " | ".join(f"{row['price']:.2f}" for row in by_key.values())
    return (time.thread_time() - started) * 1000.0
