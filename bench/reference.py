"""A fixed reference kernel that measures how fast the machine is right now.

On a shared host the speed of one core drifts by tens of percent within
seconds and between runs, and the drift reaches code of this library's
kind (small bigint polynomial products, cofactor expansions, tuple and
dict churn) almost in proportion.  The benchmark runs this kernel between
items and scales each measured time by (REFERENCE_S / the kernel's time
near it), so its times read as on a machine where one kernel call takes
REFERENCE_S.  The kernel uses no library code, so a change to the library
cannot move it.  Do not edit it: that would rescale every recorded time.
"""

import time

REFERENCE_S = 0.0003  # one call on an unloaded core of the 2-vCPU VM of bench/baseline.json

_MOD = 2**40 - 87
_SEED = (123456789, 987654321, 55555, 31337)
_MATRIX = ((1, 2, 3), (0, 4, 5), (7, 1, 9))


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def kernel():
    """One call: polynomial products modulo a bigint, 3x3 determinants of
    freshly built tuples, and a small dict keyed on tuples."""
    vec = list(_SEED)
    acc = 0
    table = {}
    for k in range(40):
        wide = [0] * 7
        for i, a in enumerate(vec):
            if a:
                for j, b in enumerate(_SEED):
                    wide[i + j] += a * b
        vec = [(wide[i] + 2 * wide[i + 4] if i < 3 else wide[i]) % _MOD for i in range(4)]
        m = tuple(tuple(c + k for c in row) for row in _MATRIX)
        acc += _det3(m)
        table[(k & 7, m[0])] = vec[0] & 0xFFFF
    return acc + len(table)


def timed_kernel(clock=time.perf_counter):
    """Seconds one kernel call takes now."""
    start = clock()
    kernel()
    return clock() - start
