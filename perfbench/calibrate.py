"""Host speed, sampled while the program runs, to scale its times by.

The benchmark runs on a shared host whose speed swings by a third, from
one second to the next and for minutes at a time. So while a stretch of
the program runs (one set-up, one CLI call), a timer signal every
``INTERVAL_S`` of its time runs a short fixed piece of work, a probe, and
times it.
The stretch's time, less the probes', is scaled by
``REFERENCE_S / mean probe time``: the program's time at the speed of a
quiet host, on which one probe takes ``REFERENCE_S``.

The probe is integer arithmetic, a small dict and scattered reads from a
256 KiB buffer, a working set that fits the second-level cache. It runs
once untimed to warm the caches, then once timed, so its time follows the
host and barely the cache state the program left. A change to the program
moves its own time, not the probe's: the probe uses nothing of the program.

The correction is partial. When the host is busiest, a call's raw time
can double while the probe's grows by half, so a busy spell still raises
the scaled figures, by far less than it raises the raw ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# Seconds one probe takes on a quiet 2-core host with Python 3.11, as
# ``python3 perfbench/calibrate.py`` prints it. It sets only the scale of
# the figures.
REFERENCE_S = 0.00035
INTERVAL_S = 0.05

_BUFFER = bytes(range(256)) * 1024
_MASK = len(_BUFFER) - 1


def _probe() -> int:
    x = 0
    table = {}
    for i in range(1500):
        table[i & 31] = x
        x = (x * 31 + i) % 1000003
    j = total = 0
    for _ in range(1000):
        j = (j * 1103515245 + 12345) & _MASK
        total += _BUFFER[j]
    return x + total


class Sampler:
    """Probes the host while the ``with`` block runs.

    The block may be entered again and again, as for a set-up made many
    times over in one timing: the timer then runs on from where the last
    block left it, so short blocks are probed at the same rate as long
    ones. ``scale(wall_s)`` gives the blocks' time, less the probes', at
    the reference speed. Blocks shorter than one interval in all are probed
    once at the end.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.spent = 0.0
        self._due = INTERVAL_S

    def _sample(self, *_) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _probe()
        t1 = time.perf_counter()
        _probe()
        t2 = time.perf_counter()
        if enabled:
            gc.enable()
        self.probes.append(t2 - t1)
        self.spent += t2 - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self._due, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self._due = signal.setitimer(signal.ITIMER_REAL, 0, 0)[0] or INTERVAL_S
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, wall_s: float) -> float:
        if not self.probes:
            spent = self.spent
            self._sample()
            self.spent = spent
        return (wall_s - self.spent) * REFERENCE_S / statistics.fmean(self.probes)


if __name__ == "__main__":
    sampler = Sampler()
    for _ in range(400):
        sampler._sample()
    probes = sorted(sampler.probes)
    print(f"probe median {statistics.median(probes) * 1e3:.4f} ms, "
          f"quartiles {probes[len(probes) // 4] * 1e3:.4f} / {probes[3 * len(probes) // 4] * 1e3:.4f} ms "
          f"over {len(probes)}")
