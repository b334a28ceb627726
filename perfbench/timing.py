"""Piece timing, corrected for the speed the machine has at the moment.

On a shared machine another tenant can slow this one by a third for tens
of seconds, longer than a run, so raw wall times spread widely between
runs.  Each piece of work is therefore bracketed by runs of a fixed
reference kernel (small matrix products, element-wise numpy calls and a
Python dict loop, the same mix of work as the program), and its time is
scaled to the speed at which the kernel takes `REF_SECONDS`:

    reference time = wall time * REF_SECONDS / mean(kernel before, kernel after)

Rates computed from reference times are "per second at the reference
speed".  The kernel does not call the program, so a change to the program
moves reference times exactly as it moves wall times.  Raw wall times are
kept alongside in every run record.
"""

from __future__ import annotations

import time

import numpy as np

REF_SECONDS = 0.012  # the kernel's time on an idle 2-core x86_64 machine
_KERNEL_MATRIX = np.random.default_rng(0).standard_normal((32, 32)) / 6


def kernel_seconds(reps: int = 40) -> float:
    """Wall time of one fixed run of the reference kernel."""
    acc: dict[tuple[int, int], float] = {}
    start = time.perf_counter()
    for r in range(reps):
        v = _KERNEL_MATRIX
        for _ in range(20):
            v = np.tanh(v @ _KERNEL_MATRIX)
            s = np.logaddexp(v[0], v[1])
        for i in range(200):
            key = (i, r % 7)
            acc[key] = acc.get(key, 0.0) + float(s[i % 32])
    return time.perf_counter() - start


class PieceClock:
    """Times pieces of work; each is bracketed by runs of the kernel."""

    def __init__(self):
        self._before = kernel_seconds()

    def time(self, fn, *args, **kwargs):
        """Run `fn`; return (result, wall seconds, reference seconds)."""
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        after = kernel_seconds()
        ref = wall * 2 * REF_SECONDS / (self._before + after)
        self._before = after
        return out, wall, ref
