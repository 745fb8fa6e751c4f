"""Host-speed sampling: how fast the host runs simulator-like code right now.

On a 2-vCPU x86-64 VM whose physical cores are shared with other machines,
the speed switches between two levels about 1.7x apart and stays at each for
seconds to minutes: the same 15-step dense48 run took 0.50 s to 1.16 s
within one minute, with CPU time equal to wall time and no steal time
reported. Host times of the same work then spread far wider than any useful
regression bound.

``HostSpeed`` times a small fixed kernel every INTERVAL_S of wall time,
from a SIGALRM handler, so the samples fall inside whatever the process is
doing. A phase's time at rest is its host time, less the samples inside it,
scaled by the kernel's time at rest over its mean time around the phase.
The kernel is a frozen copy of the simulator's hottest path, the follower
potential under the nine-point Hessian stencil, so that it slows like the
simulator and a change to ``rendezsim`` never changes it.
"""

import math
import signal
import statistics
import time

import numpy as np

_perf = time.perf_counter

STENCILS = 20            # about 1 ms at rest
REST_S = 0.00115         # STENCILS at rest: 2-vCPU x86-64 VM, CPython 3.11
INTERVAL_S = 0.05        # so sampling costs about 2 % of host time
WINDOW_S = 0.5           # samples this close to a phase describe it

_GAIN = (2.0 / 0.4) * math.log(0.99 / 0.01)
_NEIGHBOURS = [np.array(p) for p in ((-4.6, -2.7), (-5.3, -3.4), (-4.9, -2.2),
                                     (-5.6, -2.8), (-4.4, -3.3))]


def _logistic(z):
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def _potential(p):
    gamma = 0.0
    beta = 1.0
    for q in _NEIGHBOURS:
        dx = p[0] - q[0]
        dy = p[1] - q[1]
        gamma += dx * dx + dy * dy
        d = math.sqrt(dx * dx + dy * dy)
        beta *= _logistic(_GAIN * (1.8 - d)) * _logistic(_GAIN * (d - 0.2))
    return gamma / (gamma ** 1.2 + beta) ** (1.0 / 1.2)


def yardstick(stencils: int = STENCILS) -> float:
    """Evaluate the potential on the Hessian stencil ``stencils`` times."""
    p = np.array([-5.0, -3.0])
    e1 = np.array([1e-5, 0.0])
    e2 = np.array([0.0, 1e-5])
    acc = 0.0
    for _ in range(stencils):
        for q in (p, p + e1 + e2, p + e1 - e2, p - e1 + e2, p - e1 - e2,
                  p + e1, p - e1, p + e2, p - e2):
            acc += _potential(q)
    return acc


class HostSpeed:
    """Samples the yardstick while active; converts phase times to rest."""

    def __init__(self):
        self.samples = []   # (start, duration)

    def _tick(self, signum, frame):
        start = _perf()
        yardstick()
        self.samples.append((start, _perf() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Mean sample time over the time at rest."""
        return statistics.fmean(d for _, d in self.samples) / REST_S

    def at_rest(self, start: float, end: float) -> float:
        """Seconds the interval [start, end) would take on the host at rest."""
        inside = sum(d for s, d in self.samples if start <= s < end)
        near = [d for s, d in self.samples
                if start - WINDOW_S <= s < end + WINDOW_S]
        near = near or [d for _, d in self.samples] or [REST_S]
        return (end - start - inside) * REST_S / statistics.fmean(near)
