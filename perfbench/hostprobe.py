"""Host-speed probe: rescales a pass's measured times to one reference speed.

The shared machine the benchmark runs on changes speed by itself, by up to
a third over minutes, with no time stolen from the process (its CPU time
equals its wall time).  Runs minutes apart therefore differ by more than
any bound a regression check could use, however long each run is.

A ``HostProbe`` interleaves a fixed pure-Python loop with the program: a
SIGPROF timer interrupts the process every ``PERIOD_S`` of its CPU time,
and the handler times one run of the loop (after a warm-up run).  The
loop's working set is a few integers, so its time follows the speed of the
CPU at that moment, not the program's cache state.  ``rescale`` turns a
time measured over the sampled interval into the time it would have taken
at ``REFERENCE_S`` per loop, the loop's median on the baseline machine.
On that machine the rescaled time of a fixed pass spread by 0.06-0.07
((q3 - q1) / median) where the raw time spread by 0.10-0.31.

The probe costs about 1.5 % of the CPU time and runs in every pass, traced
or not, so both commits of a comparison pay it alike.  Python runs the
handler between bytecodes, so a long call into C delays a sample but
does not skew it.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.01         # process CPU time between two samples
LOOPS = 1500            # iterations of the probe loop (about 0.15 ms)
REFERENCE_S = 150e-6    # the loop's median time on the baseline machine


def _spin() -> int:
    s = 0
    for i in range(LOOPS):
        s += i * i % 7
    return s


class HostProbe:
    """Samples the probe loop's time while installed."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        _spin()
        start = time.perf_counter()
        _spin()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def take(self) -> list[float]:
        """The samples since the last take (at least one), and start anew."""
        if not self.samples:
            self._sample()
        samples, self.samples = self.samples, []
        return samples


def rescale(seconds: float, probe_s: float) -> float:
    """A time measured while the probe loop took ``probe_s`` (the median of
    its samples), at the reference speed instead."""
    return seconds * REFERENCE_S / probe_s
