"""Calibration of timings against the speed of a shared machine.

On a virtual machine whose cores are shared with other tenants, the same
Python code runs up to a third slower for seconds or minutes at a time,
and the benchmark's runs are minutes apart.  A fixed calibration loop of
plain Python (string prefix tests, dict and tuple allocation, sorts; no
library code) slows down with it.  The benchmark runs that loop between
operations and scales each operation's time by REFERENCE_S over the
calibration times measured nearest to it, which reports every time as it
would be on a machine where the loop takes REFERENCE_S.  A change to the
library does not touch the loop, so it moves the scaled times exactly as it
moves the raw ones.
"""

import bisect
import statistics
import time

# A typical calibration time on an Intel Xeon (family 6, model 207) KVM
# guest with 2 vCPUs and Python 3.11.7; times are reported relative to it.
REFERENCE_S = 0.0028
# Probe at most this often between operations (seconds), and scale each
# operation by the median of this many probes nearest to it.
EVERY_S = 0.1
WINDOW = 7

_WORDS = [format(i * 2654435761 % 4096, "b") for i in range(200)]


def calibration_loop():
    table = {}
    for word in _WORDS:
        for prefix in _WORDS[:40]:
            if word.startswith(prefix):
                table[word] = prefix
    objs = [(str(i), (i, i + 1), [i]) for i in range(1500)]
    index = {o[0]: o for o in objs}
    return (table, sorted(_WORDS, key=lambda w: (len(w), w)),
            sorted(index.values(), key=lambda o: o[1]))


class Speedometer:
    """Calibration samples over time, and the scale factor they give."""

    def __init__(self):
        self.stamps: list[float] = []
        self.times: list[float] = []
        self._last = float("-inf")

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            calibration_loop()
            end = time.perf_counter()
            self.stamps.append((start + end) / 2)
            self.times.append(end - start)
            self._last = end

    def maybe_probe(self) -> None:
        """Probe if EVERY_S seconds have passed since the last probe."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median of the WINDOW calibration times
        taken nearest to the interval [start, end]."""
        j = bisect.bisect(self.stamps, (start + end) / 2)
        lo = max(0, j - WINDOW // 2)
        hi = min(len(self.times), lo + WINDOW)
        lo = max(0, hi - WINDOW)
        return REFERENCE_S / statistics.median(self.times[lo:hi])

    def timed(self, fn, *args):
        """(result, raw seconds, scaled seconds) of fn(*args), with
        calibration samples on both sides."""
        self.probe(3)
        start = time.perf_counter()
        out = fn(*args)
        end = time.perf_counter()
        self.probe(3)
        return out, end - start, (end - start) * self.scale(start, end)
