"""The host's speed, from a fixed piece of probe work that does not use curdur.

On a shared host the CPU time of the same work drifts: other tenants share
the caches, the memory and the physical cores, and the same loop ran 1.7x
slower at some seconds than at others (see README.md).  The harness
measures the host's speed with a probe: a few milliseconds of fixed work
whose mix follows curdur's own, small-array numpy calls from a Python loop,
a sort, and number formatting and parsing.  A change to curdur cannot move
it.

``speed = PROBE_REFERENCE_S / (mean CPU seconds of one probe)``, so it is
above 1 on a host faster than the reference one.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# CPU seconds of one probe on a 2-core Xeon VM at its faster times; it is
# only the unit that the gated metrics are expressed in
PROBE_REFERENCE_S = 0.0025
# CPU seconds of the process between two probes taken during a pass
PROBE_INTERVAL_S = 0.1

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((87, 14)) * 0.1
_VALUES = _RNG.standard_normal(20_000)


def probe_cpu_s() -> float:
    """CPU seconds this thread takes for one probe.

    The thread's clock, because while a profiling timer is armed the
    process's clock may advance only once per scheduler tick.
    """
    start = time.thread_time()
    x = np.zeros(14)
    for _ in range(100):
        p = np.exp(-np.logaddexp(0.0, _A @ x))
        x = 0.99 * x - 0.001 * (_A.T @ (p - 0.5))
    np.sort(_VALUES)
    text = ",".join(f"{v:.6g}" for v in _VALUES[:200])
    total = sum(float(t) for t in text.split(","))
    elapsed = time.thread_time() - start
    if not np.isfinite(total + x.sum()):
        raise RuntimeError("probe work gave a non-finite result")
    return elapsed


def speed_of(probe_s: list) -> float:
    return PROBE_REFERENCE_S / (sum(probe_s) / len(probe_s))


class HostSpeedSampler:
    """Takes a probe every ``PROBE_INTERVAL_S`` of CPU time while it runs.

    A profiling timer raises SIGPROF in this process; its handler runs one
    probe.  The probes are spread over the timed work, so they see the host
    at the speed the work saw it.  Their own CPU time, ``overhead_s``, is to
    be taken out of the work's.
    """

    def __init__(self):
        self.probe_s: list[float] = []
        self._previous = None

    def _on_timer(self, signum, frame):
        self.probe_s.append(probe_cpu_s())

    def start(self) -> None:
        self.probe_s = []
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    @property
    def overhead_s(self) -> float:
        return sum(self.probe_s)

    def speed(self) -> float:
        """Speed over the probes taken, or, if none, from probes taken now."""
        return speed_of(self.probe_s or [probe_cpu_s() for _ in range(20)])
