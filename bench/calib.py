"""Host-speed calibration: a fixed loop of pure-Python arithmetic.

Single-thread speed on a shared host drifts by up to a factor of two over
seconds to minutes, and the whole-process CPU time drifts with it, so a
plain wall or CPU time of a pass measures the neighbours as much as
k3pairs. The child times this loop right before and right after every op
(and right after its set-up) and scales the op's time by ``REF_S / loop
time``: the result is the op's time at the speed the host had when the
reference was fixed. The loop does the three kinds of arithmetic the
workloads spend their time in (big integer packing, small-integer dict
convolution, Fraction sums) and uses no k3pairs code, so a change to the
package moves the scaled times and a change in host speed mostly does not.

Importing this module runs nothing.
"""

import time
from fractions import Fraction

REPS = 25
# seconds the loop takes at the reference speed: a round figure near its
# median on the 2-vCPU Xeon VM on which the bounds of BENCHMARK.json were
# fixed (0.085 to 0.14 s there, as the host's speed drifted)
REF_S = 0.1

_A = {i: (i * 7919) % 1009 - 500 for i in range(60)}
_B = {i: (i * 104729) % 1013 - 500 for i in range(60)}
_MASK = (1 << 24) - 1


def _kernel():
    acc = 0
    for r in range(4):
        conv = {}
        for i, x in _A.items():
            for j, y in _B.items():
                conv[i + j] = conv.get(i + j, 0) + x * y
        pa = sum((v + 1024) << (24 * i) for i, v in _A.items())
        pb = sum((v + 1024) << (24 * i) for i, v in _B.items())
        p = pa * pb * (r + 1)
        acc += sum((p >> (24 * k)) & _MASK for k in range(119)) + len(conv)
    s = Fraction(0)
    for k in range(1, 300):
        s += Fraction(k, k * k + 1)
    return acc, s


def loop_s():
    """Wall seconds of one calibration loop (REPS kernels)."""
    t0 = time.perf_counter()
    for _ in range(REPS):
        _kernel()
    return time.perf_counter() - t0
