"""Host speed sampling, so that timings from different minutes compare.

The benchmark runs on a few cores of a shared host whose speed for one
process changes by up to 2x within seconds and stays changed for seconds
to minutes, so wall times of the same solve from two runs differ by more
than any useful regression bound.  Every timed stretch is therefore also
sampled: a fixed snippet of Python and small numpy work (the same kinds of
work the solvers do) is timed every ``PERIOD_S`` seconds from a SIGALRM
handler, which runs in the measured thread between two bytecodes and so
sees the speed the measured code sees at that moment.  A wall time w with
snippet times c_1..c_k becomes ``w * mean(REFERENCE_S / c_i)`` reference
seconds: the time the same work takes when the snippet takes
``REFERENCE_S``.  The handler's own time is taken out of w first.

The snippet's code is fixed here and shares nothing with the package, so a
change to the package moves reference seconds exactly as it moves wall
seconds on a host of constant speed.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
REFERENCE_S = 1e-3  # snippet seconds at the reference speed
BLOCK_S = 0.05  # a stand-alone sample block, for spans too short to sample

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal(4) + 1j * _rng.standard_normal(4)
_LARGE = _rng.standard_normal(2048) + 1j * _rng.standard_normal(2048)
_MATRIX = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))


def snippet() -> float:
    """Fixed work in three parts: numpy calls on 4 amplitudes, as in the
    2-qubit variational solves; on 2048, as in the 11-qubit iterative one;
    and Jacobi-style row and column rotations of a 128 x 128 matrix, as in
    the dense 7-qubit solve.  Their shares of the time (about 50, 30 and 20
    percent) made the corrected solve times of all three kinds about equally
    steady over repeated solves.  The rotations are orthogonal, so the
    matrix, rotated in place, stays bounded."""
    acc = 0.0
    v = _SMALL
    for _ in range(120):
        v = v * 0.6 + _SMALL * 0.8
        acc += float(np.vdot(v, _SMALL).real)
    w = _LARGE
    for _ in range(36):
        w = w * 0.999 + _LARGE
        acc += float(np.vdot(w, _LARGE).real)
    m = _MATRIX
    for k in range(8):
        p, q = 3 * k, 3 * k + 64
        col_p, col_q = m[:, p].copy(), m[:, q].copy()
        m[:, p] = 0.8 * col_p - 0.6 * col_q
        m[:, q] = 0.6 * col_p + 0.8 * col_q
        row_p, row_q = m[p, :].copy(), m[q, :].copy()
        m[p, :] = 0.8 * row_p - 0.6 * row_q
        m[q, :] = 0.6 * row_p + 0.8 * row_q
    return acc


def time_snippet() -> float:
    t0 = perf_counter()
    snippet()
    return perf_counter() - t0


def block(seconds: float = BLOCK_S) -> list:
    """Snippet times from back-to-back runs for about ``seconds``."""
    samples = [time_snippet()]
    end = perf_counter() + seconds
    while perf_counter() < end:
        samples.append(time_snippet())
    return samples


def speed(samples) -> float:
    """Mean speed relative to the reference over the sampled instants: the
    factor that turns wall seconds into reference seconds."""
    return statistics.fmean(REFERENCE_S / c for c in samples)


class Sampler:
    """Context manager that times the snippet every PERIOD_S seconds of wall
    time in the thread that entered it.  ``spent`` is the handler's total
    time, which the caller takes out of the wall time it measured."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        snippet()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
