"""Machine-speed sampling, for timing lefkit on a host whose speed drifts.

On a small shared virtual machine the processor's throughput moves by up to
2x over seconds to minutes (a neighbour busy on the same physical core), so
raw wall times of the same code spread by about 25% between runs.  A fixed
pure-Python kernel slows down with it: timed alternately with a 0.4 s lefkit
task for 330 s, the 40-second medians of the task's time spread by 24% and
those of task time over kernel time by 1-2%.  So the kernel is timed every
``INTERVAL_S`` seconds of each task, from a timer signal, and the task's
time is rescaled to a fixed reference speed:

    ref_s = net_s * REF_KERNEL_S / mean kernel time during the task

``net_s`` is the task's wall time minus the time spent in the sampler.  The
kernel is frozen here and shares no code with lefkit, so a change that makes
lefkit faster lowers ``ref_s`` in proportion.

The kernel does what lefkit's hot paths do, in miniature: sparse products of
polynomials with ``Fraction`` coefficients keyed by exponent tuples, and
fraction-free (Bareiss) elimination on integer rows.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.1
# Reference speed: the kernel's typical time on the 2-vCPU machine the
# baseline was taken on, so that ``ref_s`` reads as seconds there.
REF_KERNEL_S = 0.0055

_LINEAR = {
    tuple(1 if k == i else 0 for k in range(5)): Fraction(3 * i - 7, i + 2)
    for i in range(5)
}
_ROWS = [[(i * 7 + j * j * 3 + i * j + 1) % 29 - 14 for j in range(16)] for i in range(16)]


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def _bareiss_rank(rows: list[list[int]]) -> int:
    m = [list(r) for r in rows]
    rank, prev = 0, 1
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, len(m)):
            a = m[r][col]
            m[r] = [(p * x - a * y) // prev for x, y in zip(m[r], m[rank])]
        prev, rank = p, rank + 1
    return rank


def kernel() -> tuple[int, int]:
    """The fixed reference work: (terms of a 5-variable linear form to the
    5th power, rank of a 16x16 integer matrix)."""
    p = {(0,) * 5: Fraction(1)}
    for _ in range(5):
        p = _poly_mul(p, _LINEAR)
    return len(p), _bareiss_rank(_ROWS)


def kernel_seconds() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


def probe(runs: int = 5) -> float:
    """Median kernel time over a few back-to-back runs."""
    return sorted(kernel_seconds() for _ in range(runs))[runs // 2]


class Sampler:
    """Times ``kernel`` every ``INTERVAL_S`` seconds of wall time while
    started, from a SIGALRM handler, and keeps the time spent doing so.

    The timer is one-shot and re-armed when the handler ends, so a handler
    never runs inside another.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(kernel_seconds())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self.spent += perf_counter() - start

    def start(self) -> None:
        self.samples, self.spent = [kernel_seconds()], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel_seconds())

    def scale(self) -> float:
        """REF_KERNEL_S over the mean kernel time since ``start``."""
        return REF_KERNEL_S * len(self.samples) / sum(self.samples)
