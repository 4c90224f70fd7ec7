"""Summary statistics and the host-speed reference used by the benchmark."""

from __future__ import annotations

import math
import statistics
from time import perf_counter
from typing import Sequence

import numpy as np

#: Percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by nearest rank (a value of the sample).

    With ``n`` sorted samples this is the one at 1-based rank
    ``ceil(q/100 * n)``, so exactly ``n - rank`` samples lie beyond it.
    """
    if not values:
        raise ValueError("no samples")
    if not 0 < q <= 100:
        raise ValueError(f"q must lie in (0, 100], got {q}")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def _rank(n: int, q: float) -> int:
    # The epsilon keeps float noise (99.9 / 100 * 10000 = 9990.000000000002)
    # from moving the rank up by one.
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def beyond_count(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q``-th percentile of ``n``."""
    return n - _rank(n, q)


def tail_percentile(n: int, min_beyond: int) -> float | None:
    """Highest percentile of :data:`TAIL_LADDER` with ``min_beyond`` samples
    beyond it among ``n``, or ``None`` when even the median has fewer."""
    for q in TAIL_LADDER:
        if beyond_count(n, q) >= min_beyond:
            return q
    return None


def tail(values: Sequence[float], min_beyond: int) -> tuple[float, float]:
    """``(q, value)``: the highest reportable percentile and its value."""
    q = tail_percentile(len(values), min_beyond)
    if q is None:
        raise ValueError(
            f"{len(values)} samples cannot put {min_beyond} beyond any "
            "percentile"
        )
    return q, nearest_rank(values, q)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def host_ref_ops_per_s(trials: int = 5, iterations: int = 3000) -> float:
    """Median speed of a fixed NumPy + pure-Python loop, in loop turns/s.

    Recorded next to every run so host-speed drift can be told apart
    from a regression.
    """
    base = np.arange(64, dtype=float).reshape(8, 8) / 1024.0
    rates = []
    for _ in range(trials):
        m = base
        acc = 0
        t0 = perf_counter()
        for i in range(iterations):
            m = (base @ m) * 0.5 + base
            acc += i % 7
        rates.append(iterations / (perf_counter() - t0))
    return statistics.median(rates)


#: Time a reference segment is scaled to: timings are reported as they
#: would read on a host that runs one reference segment in exactly this
#: long (about what a 2-core host takes in its fast moments).
REFERENCE_NOMINAL_S = 1e-3


class _ReferenceDecoder:
    """A fixed depth-first sphere search over three frames of one fixed
    10x10 real 4-PAM channel: small NumPy products inside an interpreted
    search loop, the program's kind of work, in code that shares nothing
    with the program, so a change to the program cannot move it."""

    SYMBOLS = np.array([-3.0, -1.0, 1.0, 3.0])

    def __init__(self) -> None:
        rng = np.random.default_rng(20240601)
        channel = rng.standard_normal((10, 10))
        q, self.r = np.linalg.qr(channel)
        self.frames = [
            q.T @ (channel @ rng.choice(self.SYMBOLS, 10)
                   + 0.35 * rng.standard_normal(10))
            for _ in range(3)
        ]

    def decode(self, y: np.ndarray) -> np.ndarray:
        r, symbols = self.r, self.SYMBOLS
        n = len(y)
        best, best_x = np.inf, None
        stack = [(n - 1, 0.0, np.zeros(n))]
        while stack:
            level, pd, x = stack.pop()
            residual = y[level] - r[level, level + 1:] @ x[level + 1:]
            child_pd = pd + (residual - r[level, level] * symbols) ** 2
            for k in np.argsort(-child_pd):
                if child_pd[k] >= best:
                    continue
                child = x.copy()
                child[level] = symbols[k]
                if level == 0:
                    best, best_x = child_pd[k], child
                else:
                    stack.append((level - 1, child_pd[k], child))
        return best_x

    def segment(self) -> None:
        for y in self.frames:
            self.decode(y)


_REFERENCE = _ReferenceDecoder()


def reference_segments(count: int) -> np.ndarray:
    """Durations of ``count`` reference segments run back to back."""
    durations = np.empty(count)
    for i in range(count):
        t0 = perf_counter()
        _REFERENCE.segment()
        durations[i] = perf_counter() - t0
    return durations
