"""CPU speed sampler: times a fixed pure-Python loop on one CPU.

Started by ``run.py`` as ``python3 perfbench/sampler.py <cpu>``, one per
CPU, for the length of a timed run.  Every ``PERIOD_S`` it runs a small
direct-method jump loop on three sites and records (monotonic start,
thread CPU seconds).  Thread CPU time excludes any wait for the CPU, so
each sample measures how fast that CPU executes interpreter-bound
numeric code at that moment.  The loop shares no code with fvlab; it
mimics an event loop because a plain addition loop slowed less than
event loops do when the host was contended.  On SIGTERM it prints the
samples as one JSON list and exits.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import sys
import time

STEPS = 150
PERIOD_S = 0.03  # about 1% of one CPU
_RNG = random.Random(0)
_UNIFORMS = [_RNG.random() for _ in range(2 * STEPS)]


def _loop() -> float:
    start = time.thread_time()
    counts, lam, log1p, u = [40, 30, 30], [1.0, 2.0, 3.0], math.log1p, _UNIFORMS
    t = 0.0
    for step in range(STEPS):
        total = 0.0
        for i in range(3):
            k = counts[i]
            if k:
                total += k * lam[i] * (100 - k)
        t += -log1p(-u[2 * step]) / total
        x = u[2 * step + 1] * total
        src = 2
        for i in range(3):
            k = counts[i]
            if k:
                x -= k * lam[i] * (100 - k)
                if x < 0.0:
                    src = i
                    break
        if counts[src] > 1:
            counts[src] -= 1
            counts[(src + 1) % 3] += 1
    return time.thread_time() - start


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    while not stop:
        samples.append((time.monotonic(), _loop()))
        time.sleep(PERIOD_S)
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
