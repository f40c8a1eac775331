"""The machine's current speed, from a fixed reference kernel.

The process CPU clock is immune to other processes in this machine, but not
to load on the host under it: on a 2-core virtual machine whose host is
shared with other tenants, the CPU time of the same operation rose 2.5-fold
for tens of minutes while nothing else ran in the machine, and moved by
10-19% between 4-second windows.  So every CPU time the benchmark reports is scaled to a
reference speed.  Next to the work it times, the benchmark times kernel(),
fixed pure Python of the same kind as the program's, and multiplies the
work's CPU time by REFERENCE_NS over the kernel's CPU time.  A change to
the program changes the work's time and not the kernel's; a change in the
host's load changes both.

The kernel has two halves: elements of a degree-4 extension as tuples of
two-digit coefficient objects of big integers mod 5^64, multiplied and
reduced as tamewild's local-field layers do, and division of polynomials
over F_7 with a multiplication table, as its function-field layer does.
Across twenty 4-second windows whose speed varied by 18%, the work's CPU
time followed the kernel's with a log-log slope of 0.96 (local-field
arithmetic) and 1.04 (F_q[t] arithmetic), and the windows' spread fell
from 18-19% to 1.2-1.5%.
"""

import gc
import time

#: CPU ns of one kernel() at the reference speed (about a quiet machine's)
REFERENCE_NS = 500_000

_MOD = 5 ** 64


class _Digit:
    """An element of Z_5[s]/(s^2 + s + 2), truncated mod 5^64."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __add__(self, other):
        return _Digit(tuple((a + b) % _MOD for a, b in zip(self.c, other.c)))

    def __mul__(self, other):
        conv = [0, 0, 0]
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    conv[i + j] += a * b
        top = conv[2] % _MOD
        return _Digit(((conv[0] - 2 * top) % _MOD, (conv[1] - top) % _MOD))

    def is_zero(self):
        return not any(self.c)


_ZERO = _Digit((0, 0))
_F = [_Digit((5, 0)), _Digit((10, 0)), _Digit((10, 0)), _Digit((5, 0))]


class _Elem:
    """A vector of four _Digit coefficients mod the Eisenstein-shaped
    x^4 + 5x^3 + 10x^2 + 10x + 5."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def _coerce(self, other):
        return other if isinstance(other, _Elem) else \
            _Elem((other,) + (_ZERO,) * 3)

    def __add__(self, other):
        other = self._coerce(other)
        return _Elem(tuple(a + b for a, b in zip(self.c, other.c)))

    def __mul__(self, other):
        other = self._coerce(other)
        conv = [None] * 7
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                t = a * b
                conv[i + j] = t if conv[i + j] is None else conv[i + j] + t
        for i in range(6, 3, -1):
            top = conv[i]
            if not top.is_zero():
                for j in range(4):
                    conv[i - 4 + j] = conv[i - 4 + j] + top * _F[j]
        return _Elem(tuple(conv[:4]))


_TABLE = [[a * b % 7 for b in range(7)] for a in range(7)]


def _divmod7(a, b):
    """Quotient and remainder of a by the monic b over F_7."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    while len(a) >= len(b):
        f = a[-1]
        shift = len(a) - len(b)
        q[shift] = f
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - _TABLE[f][bc]) % 7
        while a and a[-1] == 0:
            a.pop()
    return q, a


def kernel():
    """One run of the reference kernel; returns its CPU time in ns.  The
    cyclic collector is paused, so that no collection of the program's
    objects is charged to the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time_ns()
        x = _Elem((_Digit((123456789, 2)), _Digit((3, 4)), _Digit((5, 6)),
                   _Digit((7, 8))))
        y = _Elem((_Digit((98765, 1)), _Digit((1, 2)), _Digit((0, 3)),
                   _Digit((4, 0))))
        for _ in range(6):
            x = x * y + x
        p = [3, 1, 4, 1, 5, 6, 2, 6, 5, 3, 5, 1, 6, 0, 2, 3, 2, 3, 4, 4]
        for _ in range(30):
            _divmod7(p, [2, 6, 1, 3, 1])
        return time.process_time_ns() - start
    finally:
        if enabled:
            gc.enable()


def sample(budget_ns=0):
    """(total CPU ns, runs) of kernel() runs totalling at least budget_ns
    (one run at least)."""
    runs, total = 0, 0
    while True:
        total += kernel()
        runs += 1
        if total >= budget_ns:
            return total, runs


def scale(cpu_ns, *samples):
    """cpu_ns at the reference speed, given the kernel samples taken around
    the work: the mean kernel run over all of them sets the speed."""
    total = sum(t for t, _ in samples)
    runs = sum(n for _, n in samples)
    return cpu_ns * REFERENCE_NS * runs / total
