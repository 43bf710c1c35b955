"""A fixed reference kernel that measures how fast the host runs right now.

The development machine is a shared host: the same round of jobs takes from
0.8 to 1.3 times its usual CPU time from one minute to the next, because of
what its neighbours run.  The kernel below is exact Fraction polynomial
arithmetic from ``refpoly``, the same kind of work as the program's
polynomial layer, on fixed inputs.  Nothing in it comes from higgspec, so no
change to the program moves it.  Its CPU time per call, measured between the
jobs it is compared with, is the host's speed at that moment; job times are
scaled by ``KERNEL_REF_S / kernel time`` to read as CPU time at reference
speed.

    python3 perfbench/reference.py

prints the kernel's median CPU time over 50 calls.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import refpoly as R

# Median CPU time of one kernel call on the 2-CPU development machine
# (Python 3.11.7).  It only fixes the scale of the reported figures.
KERNEL_REF_S = 0.005

# Share of the jobs' CPU time spent on kernel calls between them.
SHARE = 0.15
# Kernel calls on each side of a job that set its scale.  The host's speed
# changes within a second, so only calls next to a job tell its speed.
NEAR = 1


def _form(coeffs):
    n = len(coeffs) - 1
    p = R.const(n, Fraction(coeffs[n], 7))
    for i, c in enumerate(coeffs[:n]):
        p = R.add(p, R.scale(R.var(n, i), Fraction(c, i + 2)))
    return p


_FORMS = [_form(c) for c in ((3, -2, 1, 5), (-1, 4, 2, -3), (2, 1, -3, 1), (5, -1, -2, 2), (1, 3, 4, -1), (-2, -3, 1, 4))]
_A = R.product(_FORMS[:4], 3)
_B = R.product(_FORMS[3:], 3)


def kernel():
    """The product of a fixed quartic and a fixed cubic in three variables, with Fraction coefficients."""
    return R.mul(_A, _B)


def kernel_cpu_s():
    t0 = time.process_time()
    kernel()
    return time.process_time() - t0


class Pace:
    """Kernel calls run between jobs and kept at SHARE of the jobs' CPU time."""

    def __init__(self):
        self.jobs = 0.0
        self.cpu = 0.0
        self.samples = []
        self.spans = []

    def after_job(self, job_cpu):
        """Call the kernel until it has caught up with the job that just ended, which it notes."""
        before = len(self.samples)
        self.jobs += job_cpu
        while self.cpu < SHARE * self.jobs:
            self.samples.append(kernel_cpu_s())
            self.cpu += self.samples[-1]
        self.spans.append((before, len(self.samples)))

    def scales(self):
        """Per noted job, the factor that turns its CPU time into CPU time at reference speed.

        It is KERNEL_REF_S over the mean time of the kernel calls just before
        and just after the job, NEAR on each side.
        """
        out = []
        for before, after in self.spans:
            near = self.samples[max(0, before - NEAR) : after + NEAR]
            out.append(KERNEL_REF_S * len(near) / sum(near))
        return out


if __name__ == "__main__":
    kernel()
    print(f"kernel: {statistics.median(kernel_cpu_s() for _ in range(50)) * 1e3:.3f} ms CPU (median of 50)")
