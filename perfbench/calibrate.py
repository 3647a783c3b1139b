"""Host-speed calibration: a background sampler of the CPUs' speed.

The benchmark runs on shared machines whose speed moves under it.  On
the 2-core container it was written on, each core flipped between
two speeds about 1.8x apart at sub-second intervals -- the mark of a
hyperthread whose sibling another tenant uses -- and the mix drifted
over minutes, so the same answer took 1.0x to 1.8x its calm time.
No steal time is visible inside the guest, and CPU time inflates with
wall time, so neither helps.

A sampler process runs beside the measurement at the lowest priority.
Every 40 ms it moves to the next core and times a fixed chunk of work
(heap operations and pointer-chasing) in its own CPU time, which
counts only the time it ran.  A measured interval is then reported at
the reference speed::

    at_reference = measured * REFERENCE_S / mean(chunk times in the interval)

The sampler never calls the program, so a change to the program moves
the reported time exactly as much as the measured one; it takes about
4% of one core.

Run as a script, this module is the sampler::

    python3 perfbench/calibrate.py SAMPLES_FILE
"""

from __future__ import annotations

import heapq
import itertools
import os
import random
import statistics
import subprocess
import sys
import time
from typing import List, Optional, Sequence, Tuple

#: Chunk CPU time that defines the reference speed, in seconds: about
#: the chunk's mean time over many runs on the 2-core container this
#: was written on, so reported times read close to measured ones there.
REFERENCE_S = 0.0015
#: Seconds between chunks.
PERIOD_S = 0.04
#: Fewest chunks an interval is scaled by; a shorter interval borrows
#: the chunks nearest to its middle.
MIN_CHUNKS = 8


def _chunk(items: Sequence[int], order: Sequence[int]) -> int:
    heap: List[Tuple[float, int]] = []
    rng = random.Random(1)
    for index in range(600):
        heapq.heappush(heap, (rng.random(), index))
        if len(heap) > 32:
            heapq.heappop(heap)
    return sum(items[index] for index in order)


def sample(path: str) -> None:
    """Append ``<monotonic end> <cpu> <chunk cpu seconds>`` lines to
    *path*, one per chunk, until terminated or orphaned."""
    os.nice(19)
    parent = os.getppid()
    items = list(range(200_000))
    order = random.Random(5).sample(range(len(items)), 3_000)
    cpus = sorted(os.sched_getaffinity(0))
    with open(path, "a", encoding="utf-8", buffering=1) as out:
        for turn in itertools.count():
            if os.getppid() != parent:
                return
            cpu = cpus[turn % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            started = time.thread_time()
            _chunk(items, order)
            spent = time.thread_time() - started
            out.write(f"{time.monotonic():.6f} {cpu} {spent:.9f}\n")
            time.sleep(PERIOD_S)


class Sampler:
    """Starts the sampler process; after :meth:`stop`, gives the
    host's speed over any measured interval."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.chunks: List[Tuple[float, float]] = []
        self._process: Optional[subprocess.Popen] = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), path])

    def stop(self) -> None:
        """Stop the sampler, wait for it, and load its chunks."""
        if self._process is not None:
            self._process.terminate()
            self._process.wait()
            self._process = None
        with open(self.path, encoding="utf-8") as handle:
            rows = [line.split() for line in handle]
        self.chunks = [(float(row[0]), float(row[2])) for row in rows
                       if len(row) == 3]

    def speed(self, start: float, end: float) -> float:
        """The host's speed over ``[start, end]`` (monotonic seconds),
        relative to the reference; below 1 means slower."""
        inside = [spent for at, spent in self.chunks if start <= at <= end]
        if len(inside) < MIN_CHUNKS:
            middle = (start + end) / 2.0
            nearest = sorted(self.chunks, key=lambda c: abs(c[0] - middle))
            inside = [spent for _, spent in nearest[:MIN_CHUNKS]]
        return REFERENCE_S / statistics.mean(inside)


if __name__ == "__main__":
    sample(sys.argv[1])
