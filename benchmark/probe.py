"""Speed probe: a fixed piece of exact arithmetic whose duration says how
fast the CPU runs Python at that moment, so that a time measured on a
shared machine can be given at one reference speed.

On a shared host the same pass of the same code takes from 1x to 1.7x its
best time, depending on what other tenants run, and the slow spells last
from under a second to minutes; they slow the process's CPU time as much
as its wall time, so neither escapes them.  The probe slows with them.
While a child serves its requests, a SIGALRM timer runs ``work`` every
PERIOD_S seconds, in the child's one thread, and records how long it took.
A pass's time at reference speed is then its time without the probes,
multiplied by the mean of ``REF_S / duration`` over the pass's probes: the
mean of the speed over evenly spaced moments, which is what turns time
spent into work done.

``work`` is the same kind of work as the program's hot path, row reduction
over ``Fraction``, and imports nothing from the program, so a change to
the program never changes it.
"""

from __future__ import annotations

import random
import signal
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.025
# What one ``work`` takes on the reference CPU.  A 2-CPU x86 VM with
# CPython 3.11 takes 0.8 to 1.6 ms, depending on its neighbours.
REF_S = 0.001

_rng = random.Random(20170322)
MATRIX = [[Fraction(_rng.randint(-9, 9)) for _ in range(7)] for _ in range(6)]


def work() -> int:
    """Reduce MATRIX to row echelon form over Q; returns its rank."""
    m = [row[:] for row in MATRIX]
    rank = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def speed(durations: list[float]) -> float:
    """Mean speed over the probes, relative to the reference CPU."""
    return sum(REF_S / d for d in durations) / len(durations)


class Probe:
    """Times ``work`` on a timer while running, or on request."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.spent = 0.0  # total time inside ``work``

    def _run(self, *_) -> None:
        t0 = perf_counter()
        work()
        d = perf_counter() - t0
        self.durations.append(d)
        self.spent += d

    def sample(self, n: int) -> None:
        for _ in range(n):
            self._run()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
