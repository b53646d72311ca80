"""Host-speed reference: a fixed amount of work timed alongside a workload.

The machine this benchmark was tuned on is shared: the same 16k churn run
took between 0.9 and 1.6 s per round of eight events from one minute to the
next, and process CPU time tracks wall time, so no clock hides the drift.
Each workload therefore times a short, fixed reference right after every
timed operation, and every timing is reported twice: raw, and corrected to
the nominal host speed below.  An operation's corrected time is its raw
time x nominal reference time / the mean of the reference samples taken
just before and just after it.

The reference must depend on the host only, not on the program it follows.
A single pass timed straight after an operation does not: on the tuning
host it read up to 40% slower after a pure-Python loop or a large-memory
walk than after a pass of itself, and that history took about three passes
to wear off (see README.md).  So a sample runs ``WARMUP_PASSES`` untimed
passes and times the next one, with the garbage collector paused, and the
work allocates no objects the collector tracks.  The timed pass then starts
from the state the reference leaves itself, whatever ran before.

Two references exist because the drift hits interpreter-bound and
memory-bound code differently: ``python`` looks keys up in a large dict and
sorts user ids, like the tree and session code; ``numpy`` draws and
combines large arrays, like ``detection_experiment``.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

# About the reference times, in seconds, on a quiet stretch of the 2-core
# x86-64 host the figures in README.md were taken on.  Corrected timings are
# expressed at this speed; the constants only scale, they never reorder.
NOMINAL_S = {"python": 0.0015, "numpy": 0.0070}

#: Untimed passes before each timed one.
WARMUP_PASSES = 3


class _PythonWork:
    """Random lookups in a 100k-entry dict plus a sort of user ids."""

    def __init__(self) -> None:
        shuffle = random.Random(20231207)
        ids = [f"u{i}" for i in range(100_000)]
        self.table = {uid: i for i, uid in enumerate(ids)}
        shuffle.shuffle(ids)
        self.probe = ids[:6000]
        self.head = ids[:3000]

    def __call__(self) -> int:
        table = self.table
        total = 0
        for uid in self.probe:
            total += table[uid]
        return total + len(sorted(self.head))


class _NumpyWork:
    """The array draws and selections of a small detection experiment."""

    def __init__(self) -> None:
        self.rng = np.random.default_rng(20231207)

    def __call__(self) -> int:
        rng, size = self.rng, 200_000
        kinds = rng.integers(4, size=size)
        eve_x = rng.integers(2, size=size).astype(bool)
        picked = np.where(eve_x != (kinds >= 2), rng.integers(2, size=size), kinds % 2)
        return int((picked != kinds % 2).sum())


class HostSpeed:
    """Samples one reference around timed operations and converts times."""

    def __init__(self, kind: str):
        if kind not in NOMINAL_S:
            raise ValueError(f"unknown reference {kind!r}")
        self.kind = kind
        self.nominal = NOMINAL_S[kind]
        self._work = _PythonWork() if kind == "python" else _NumpyWork()
        self._work()  # warm up before the first sample counts
        self.samples: list[float] = []

    def sample(self) -> float:
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(WARMUP_PASSES):
                self._work()
            start = time.perf_counter()
            self._work()
            elapsed = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def correct(self, raw_s: float) -> float:
        """Sample now and convert a duration measured since the last sample.

        The duration is scaled by the nominal reference time over the mean of
        the previous sample and this one.
        """
        if not self.samples:
            raise RuntimeError("take a sample before the first timed operation")
        before = self.samples[-1]
        after = self.sample()
        return raw_s * self.nominal * 2 / (before + after)
