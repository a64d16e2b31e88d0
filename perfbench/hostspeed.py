"""Host-speed sampling, so that job times can be compared across the speed
swings of a shared machine.

On a 2-vCPU VM of a shared host the same pure-Python job can take 1.5-1.9
times as long in one stretch of seconds as in another, and whole minutes can
run 30-65 % slower than others (Python 3.11 on a 2.1 GHz x86-64 VM), with
no steal time to show for it.  Wall times of the same code then spread
further than any useful regression bound.

``HostSpeed`` measures the host's speed where the job runs: a SIGPROF timer
interrupts the running job every ``INTERVAL_S`` seconds of process time and
times a fixed pure-Python kernel.  Code slows unevenly on a busy host:
products of large sparse polynomials (dicts of tuples, working sets beyond
the caches) slow by up to twice as much as arithmetic on a few thousand-bit
Fractions.  So each workload is measured against the kernel that slows like
it does (``KERNELS``):

  poly     a sparse polynomial product over tuple exponents with 40-bit
           coefficients, and a short chain of small Fraction operations
  bigint   Fraction arithmetic on 1500-bit numerators and denominators, and
           a short interpreter loop over small ints

The kernels belong to the benchmark, so a change to the package cannot
change them.  ``normalise`` turns a job's wall time into reference seconds:
the wall time minus the kernel time spent inside it, scaled by the kernel's
reference time over its mean time around the job (the samples taken during
the job plus the ``CONTEXT`` samples before it, which carry jobs too short
to be sampled).  A job that does twice the work still reads twice as long;
a stretch in which the host runs slower slows the kernel alike and cancels
out.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02  # the kernel takes about 7 % of it, which normalise() takes out
CONTEXT = 4

_rng = random.Random(12345)
_PA, _PB = ({tuple(_rng.randrange(-3, 4) for _ in range(6)): _rng.randrange(1, 10**12)
             for _ in range(25)} for _ in range(2))
_BIG = tuple(Fraction(_rng.getrandbits(1500) | 1, _rng.getrandbits(1500) | 1) for _ in range(4))
del _rng


def poly_kernel() -> None:
    out: dict = {}
    for ea, ca in _PA.items():
        for eb, cb in _PB.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    x, y = Fraction(1031, 1049), Fraction(1061, 1063)
    for _ in range(6):
        x, y = y, (y * y + x) / (x + 1)


def bigint_kernel() -> None:
    a, b, c, d = _BIG
    for _ in range(3):
        (a * b + c) / d
    s = 0
    for i in range(8000):
        s += i * i % 7


# name: (kernel, its reference time: about its median time on the machine
# above, so that reference seconds read close to seconds)
KERNELS = {"poly": (poly_kernel, 1.4e-3), "bigint": (bigint_kernel, 1.2e-3)}


class HostSpeed:
    """Kernel times sampled on SIGPROF while started, and on demand."""

    def __init__(self, kernel: str):
        self.kernel, self.ref_s = KERNELS[kernel]
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        # The kernel makes no reference cycles; keeping the collector out of
        # it keeps a collection of the job's heap out of the sample.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            self.kernel()
            self.samples.append(perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def start(self, warm: int = 2 * CONTEXT) -> None:
        for _ in range(warm):
            self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self) -> int:
        """Position to pass to ``normalise`` for a job that starts now."""
        return len(self.samples)

    def normalise(self, wall: float, start: int, end: int) -> float:
        """Reference seconds of a job of ``wall`` seconds, inside which the
        samples ``start`` to ``end`` (from ``mark``) were taken."""
        during = self.samples[start:end]
        around = self.samples[max(0, start - CONTEXT):end]
        return self.scale(wall - sum(during), around)

    def scale(self, wall: float, around: list[float]) -> float:
        """``wall`` seconds in reference seconds, given kernel times taken
        around them."""
        return wall * self.ref_s / statistics.fmean(around)
