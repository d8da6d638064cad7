"""Machine-speed calibration for timings taken on a shared machine.

The speed of a shared machine drifts by up to a factor of two over seconds
to minutes, as neighbours come and go; CPU time drifts with it, so neither
wall nor CPU time is steady.  A fixed probe, independent of the package, is
timed next to every measurement, and each measured time is scaled to a
machine on which the probe takes its reference time:
scaled = measured * reference / probe time.

Two probes cover the two kinds of work measured.  LOOP, small LAPACK calls
and interpreter work, tracks in-process requests.  START, a fresh
interpreter that runs nothing, tracks cold starts (the CLI runs and the
workload set-up), which drift differently from in-process work.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))


def loop_time() -> float:
    """Seconds taken by one pass of the in-process calibration loop."""
    start = time.perf_counter()
    for _ in range(40):
        np.linalg.solve(_MATRIX, _MATRIX.T)
        sum(complex(x) for x in np.linalg.eigvals(_MATRIX))
    return time.perf_counter() - start


def start_time() -> float:
    """Seconds taken to start and stop a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


@dataclass(frozen=True)
class Probe:
    run: Callable[[], float]
    reference_s: float  # the probe's time on an idle 2-core Xeon (Sapphire Rapids) VM


LOOP = Probe(loop_time, 1.2e-3)
START = Probe(start_time, 0.05)


class Speed:
    """Running machine speed from the median of the last few probe times."""

    def __init__(self, probe: Probe = LOOP, window: int = 5):
        self.probe = probe
        self.recent: deque[float] = deque(maxlen=window)
        self.history: list[float] = []

    def sample(self) -> None:
        seconds = self.probe.run()
        self.recent.append(seconds)
        self.history.append(seconds)

    def scale(self, seconds: float) -> float:
        """``seconds`` scaled by the recent probe times."""
        return seconds * self.probe.reference_s / statistics.median(self.recent)

    def overall(self) -> float:
        """Scale factor from every probe time taken so far."""
        return self.probe.reference_s / statistics.median(self.history)
