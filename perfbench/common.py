"""Shared helpers: locating the checkout's own `syncheck`, speed-scaled
timing, and small statistics.

The benchmark always measures the `syncheck` sources of the checkout it lives
in (`<root>/src/syncheck`), never an installed copy, so a missing source tree
is an error instead of a silent fallback.
"""
from __future__ import annotations

import gc
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # generated inputs, references and trace files


class MissingSources(Exception):
    pass


def load_syncheck():
    """Import `syncheck` from `<root>/src`; raise MissingSources if it is not there."""
    if not (SRC / "syncheck" / "__init__.py").is_file():
        raise MissingSources(f"no syncheck sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import syncheck

    if Path(syncheck.__file__).resolve().parent != (SRC / "syncheck").resolve():
        raise MissingSources(f"imported syncheck from {syncheck.__file__}, not from {SRC}")
    return syncheck


def median(values):
    s = sorted(values)
    if not s:
        raise ValueError("median of no values")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]; 0.0 for no values."""
    s = sorted(values)
    if not s:
        return 0.0
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


# The kernel's time on the reference machine; it sets the scale of every
# speed-scaled time (the figure a call would take where the kernel takes 150 ms).
KERNEL_REF_S = 0.15
# How strongly the checker's time follows the kernel's as the machine's speed
# changes: a run's median call time went as the kernel time to this power
# (least-squares slopes of 0.65-0.89 over six sets of ten runs, 2-CPU VM).
SENSITIVITY = 0.8


def kernel() -> int:
    """Fixed pure-Python work that never touches `syncheck`: string
    formatting, splitting, int parsing and dict inserts, the same kinds of
    operation the checker spends its time on.  Its dict stays at 1024
    entries, so it adds nothing to the measured process's peak RSS."""
    d = {}
    for i in range(120000):
        parts = f"send tag={i} to {i % 7};".split()
        d[(i & 1023, parts[0])] = (int(parts[1][4:]), len(parts))
    return len(d)


def time_kernel() -> float:
    gc.collect()
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class SpeedScale:
    """Scales measured times to the reference machine speed.

    On a shared machine the speed available to one process drifts by ±30%
    over minutes, which no statistic within one run removes.  The kernel is
    timed before and after each measured operation, and the operation's time
    is multiplied by KERNEL_REF_S over the mean of those two kernel times,
    raised to SENSITIVITY.  A change to `syncheck` cannot move the kernel,
    so it moves the scaled time in the same proportion as the raw one.
    """

    def __init__(self) -> None:
        self._before = time_kernel()

    def scale(self, seconds: float) -> float:
        after = time_kernel()
        scaled = seconds * (2 * KERNEL_REF_S / (self._before + after)) ** SENSITIVITY
        self._before = after
        return scaled
