"""Host-speed calibration probe for the serving benchmark.

The machines this benchmark runs on are small shared VMs whose speed
drifts by tens of percent over minutes.  A timing taken while the host
runs slowly says nothing about the program, so every timing metric is
reported at a *reference host speed*: the compute-bound part of a raw
time is multiplied by

    REFERENCE_PROBE_MS / median(nearest probe timings)

(``host_scale`` in ``run.py`` splits a time into its compute-bound and
waiting parts; a rate such as frames per second is divided instead).

Why the probe is repo-independent: it never imports ``repro`` and times
only fixed NumPy and Python work -- one BLAS matmul, one Python dict
loop and one elementwise array pass, the three kinds of work a served
request is made of.  A change to the program therefore cannot move the
probe, and a change to the probe (or to ``REFERENCE_PROBE_MS``) is a
change to the benchmark, never to the program.

Why it runs only between requests: the load generator runs it while no
request is in flight, so it neither competes with the daemon for the two
vCPUs nor adds to any measured latency; the time it takes is subtracted
from the timed phase's wall time.
"""

from __future__ import annotations

import time

import numpy as np

#: Median probe time (ms) on the reference host: a 2-vCPU x86-64 VM with
#: single-threaded OpenBLAS.  Normalized metrics read as if every probe
#: had taken exactly this long.  Changing it rescales every timing metric.
REFERENCE_PROBE_MS = 8.7

_MATMUL_SIDE = 128
_MATMUL_REPEATS = 16
_DICT_ITEMS = 32_000
_ARRAY_ELEMENTS = 1 << 17
_ARRAY_REPEATS = 10


class HostProbe:
    """Fixed work whose duration tracks how fast the host runs right now.

    Inputs are built once, from a fixed seed, so every probe does
    identical work.  :meth:`run` returns the probe's wall time in ms and
    keeps every ``(start, ms)`` sample for :meth:`factor_near`.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20240611)
        self._a = rng.standard_normal((_MATMUL_SIDE, _MATMUL_SIDE))
        self._b = rng.standard_normal((_MATMUL_SIDE, _MATMUL_SIDE))
        self._x = rng.random(_ARRAY_ELEMENTS)
        self._out = np.empty_like(self._x)
        self.samples: list[tuple[float, float]] = []

    def _work(self) -> float:
        acc = 0.0
        for _ in range(_MATMUL_REPEATS):
            acc += float((self._a @ self._b)[0, 0])
        table: dict[int, int] = {}
        for i in range(_DICT_ITEMS):
            key = i & 1023
            table[key] = table.get(key, 0) + i
        acc += table[7]
        for _ in range(_ARRAY_REPEATS):
            np.multiply(self._x, 1.000001, out=self._out)
            np.add(self._out, 0.5, out=self._out)
            np.sqrt(self._out, out=self._out)
        return acc + float(self._out[0])

    def run(self) -> float:
        """Time one probe; returns milliseconds and records the sample."""
        start = time.perf_counter()
        self._work()
        elapsed_ms = (time.perf_counter() - start) * 1e3
        self.samples.append((start, elapsed_ms))
        return elapsed_ms

    def median_ms(self) -> float:
        return _median([ms for _, ms in self.samples])

    def factor_near(self, t: float, k: int = 3) -> float:
        """``REFERENCE_PROBE_MS / median`` of the ``k`` probes nearest ``t``.

        Multiply a raw time taken around ``t`` by this factor (divide a
        rate by it) to read it at the reference host speed.
        """
        if not self.samples:
            raise RuntimeError("no probe has run yet")
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - t))[:k]
        return REFERENCE_PROBE_MS / _median([ms for _, ms in nearest])


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


if __name__ == "__main__":
    # Calibration helper: prints probe timings on this host, so a new
    # reference constant can be read off the median.
    probe = HostProbe()
    for _ in range(3):
        probe.run()
    probe.samples.clear()
    for _ in range(50):
        probe.run()
        time.sleep(0.05)
    print(f"median {probe.median_ms():.3f} ms over {len(probe.samples)} probes")
