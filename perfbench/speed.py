"""Machine-speed probe: the unit that ``wall_s`` is measured in.

Single-thread speed on a shared host swings by tens of percent within
seconds and within minutes, so raw pass times of one commit spread wider than
any useful bound.  While a pass runs, a SIGALRM timer interrupts it every
REF_INTERVAL_S to run a fixed kernel that never touches ahrenvol.  ``wall_s``
is the operations' time with the probe's own time taken out, rescaled by
REF_NOMINAL_S over the kernel's mean per-call time during the pass.
REF_NOMINAL_S is a fixed unit: about the kernel's per-call time on the host
the benchmark was defined on, so that ``wall_s`` reads close to seconds there.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REF_INTERVAL_S = 0.25
REF_CALLS = 2
REF_NOMINAL_S = 0.009
_REF = np.random.default_rng(0)
_REF_R = _REF.standard_normal((4, 4, 4, 4))
_REF_M = _REF.standard_normal((8, 4, 4)) + 4.0 * np.eye(4)
_REF_F = _REF.standard_normal((512, 4, 4, 4, 4))
_REF_G = _REF.standard_normal((512, 3, 3))


def _reference_call() -> float:
    acc = 0.0
    # small-array calls and scalar indexing, like the radial backend
    for _ in range(80):
        acc += np.einsum("abcd,cdef->abef", _REF_R, _REF_R)[0, 0, 0, 0]
        acc += float(np.sum(np.linalg.inv(_REF_M)))
        for i in range(24):
            acc += _REF_R[i % 4, 1, 2, 3] * _REF_R[1, i % 4, 3, 2]
    # contractions and eigensystems over 512 points, like the torus backend
    acc += np.einsum("nabcd,nbadc->n", _REF_F, _REF_F)[0]
    acc += np.einsum("nabcd,ncdef->nabef", _REF_F, _REF_F)[0, 0, 0, 0, 0]
    acc += np.linalg.eigh(np.einsum("nab,ncb->nac", _REF_G, _REF_G))[0][0, 0]
    return acc


class SpeedProbe:
    """Runs the reference kernel on a SIGALRM timer inside a ``with`` block."""

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0
        self._busy = False
        self._previous = None

    def sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        for _ in range(REF_CALLS):
            _reference_call()
        self.seconds += time.perf_counter() - start
        self.calls += REF_CALLS
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.calls:  # a pass shorter than one interval
            self.sample()


def reference_per_call(budget_s: float) -> float:
    """Mean seconds per kernel call, running the kernel for at least ``budget_s``."""
    calls = 0
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < budget_s:
        _reference_call()
        calls += 1
    return (time.perf_counter() - start) / calls
