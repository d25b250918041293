"""Host-speed probe: a fixed kernel shaped like afl-lab's hot path.

On a shared 2-vCPU host the same afl-lab operation was measured at anything
from 0.22 s to 0.78 s within a minute, in step across processes, with CPU
time tracking wall time: a core runs slower while other tenants load it.
A fixed kernel timed on the same core slows down with it (correlation 0.84
over 70 repetitions of one operation), so run.py scales every operation's
time by PROBE_REF_S over the mean probe time sampled around it, and reports
times in reference-host seconds.  A probe on the other core does not track,
hence the pinning in HostSpeed.

The kernel is frozen here, apart from the program: a 6x6 matrix product
over F_9 with validated frozen slotted elements, the shape of afl-lab's
FieldElem / Matrix arithmetic, run with the cyclic collector paused.

A cold start (a fresh interpreter importing modules) does not track the
kernel: scaling cold starts by it widened their spread.  It tracks another
cold start, so each one is measured against cold_ref_s(), a fresh
interpreter that imports a fixed set of standard-library modules, run right
after it.  Children start with -S -I: no site-packages hooks, which on the
reference host import unrelated packages for 60 ms, and no environment.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

# the kernel's typical time inside benchmark runs on the reference host
# (2 vCPUs), so that scaled times read like its wall-clock times
PROBE_REF_S = 0.0018
# the reference child and its typical wall time on the reference host
COLD_REF_CODE = "import argparse, dataclasses, decimal, fractions, json, random, statistics"
COLD_REF_S = 0.08


@dataclass(frozen=True, slots=True)
class _Elem:
    """An element of F_9 = F_3[x]/(x^2 + 1)."""

    p: int
    level: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.level or any(c < 0 or c >= self.p for c in self.coeffs):
            raise ValueError("bad element")

    def __mul__(self, other):
        p = self.p
        prod = [0, 0, 0]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        return _Elem(p, 2, ((prod[0] - prod[2]) % p, prod[1] % p))

    def __add__(self, other):
        p = self.p
        return _Elem(p, 2, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))


_ELEMS = [_Elem(3, 2, (k % 3, k // 3)) for k in range(9)]
_ROWS = [[_ELEMS[(i * j + 1) % 9] for j in range(6)] for i in range(6)]
_COLS = list(zip(*_ROWS))


def _matmul():
    out = []
    for row in _ROWS:
        for col in _COLS:
            acc = row[0] * col[0]
            for a, b in zip(row[1:], col[1:]):
                acc = acc + a * b
            out.append(acc)
    return out


def probe_s() -> float:
    """Wall time of one run of the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _matmul()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def child_s(code: str, *args: str) -> float:
    """Wall time of a fresh interpreter running code, waited for."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-I", "-c", code, *args], check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def cold_ref_s() -> float:
    """Wall time of the reference cold start."""
    return child_s(COLD_REF_CODE)


class HostSpeed:
    """Samples probe_s() from a background thread every PERIOD_S seconds.

    The kernel takes about 1 ms, so the sampler takes under 1 % of the
    operations' time, the same share for every version of the program."""

    PERIOD_S = 0.2
    WINDOW_S = 0.5  # samples this close to an interval count for it

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (taken at, probe seconds)
        self._stop = threading.Event()
        self._lock = threading.Lock()  # held by a probe, or while paused
        self._thread = threading.Thread(target=self._loop, name="hostspeed", daemon=True)

    def __enter__(self) -> "HostSpeed":
        # the sampler must run on the core the operations run on: the host
        # slows cores one at a time, so the whole process keeps to one vCPU
        self._cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self._cpus)})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._cpus)
        if not self.samples:
            self.samples.append((time.perf_counter(), probe_s()))

    def _loop(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            with self._lock:
                t = probe_s()
                self.samples.append((time.perf_counter(), t))

    @contextmanager
    def paused(self):
        """No probe runs inside: cold starts run on the sampler's core, and a
        probe beside one would slow it and read slow itself."""
        with self._lock:
            yield

    def scale(self, t0: float, t1: float) -> float:
        """PROBE_REF_S over the mean probe time sampled around [t0, t1]
        (or, failing that, nearest to t0)."""
        near = [p for at, p in self.samples if t0 - self.WINDOW_S <= at <= t1 + self.WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        return PROBE_REF_S / statistics.fmean(near)
