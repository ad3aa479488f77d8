"""A fixed pure-Python reference loop that measures the machine's current speed.

On a shared VM the speed at which the same interpreter code runs drifts by
up to 1.5x over tens of seconds, with whole commands and whole runs speeding
up or slowing down together.  The benchmark runs this loop before the first
command and after every command of a sequence, so every command is bracketed
by two measurements of the speed of the machine at that moment.  A command's
time is then rescaled to the reference speed: multiplied by
``REF_NOMINAL_S / ref_s``, with ``ref_s`` the mean of its two brackets.

The loop does a fixed amount of work of the kinds bour4 does, in two halves:
truncated Taylor-jet products on small tuples of floats with ``math`` and
function calls, and building, sorting and indexing lists and dicts of a few
hundred thousand floats.  The first half alone slows down more than the
commands do when the machine is busy, the second alone about as much or
more; their sum tracks the commands best.  It does not import bour4, so no
change to the program under test can change it.
"""

from __future__ import annotations

import math
import random
import time

#: Jet products in one reference measurement (0.2-0.35 s on a shared Xeon VM).
JET_ITERATIONS = 375_000
#: Passes over the float list in one reference measurement (about as long).
LIST_PASSES = 28
_FLOATS = [random.Random(0).random() for _ in range(40_000)]
#: Seconds one reference measurement is scaled to: rescaled times read as
#: seconds on a machine where the loop takes exactly this long.
REF_NOMINAL_S = 0.5


def _mul(a, b):
    return (a[0] * b[0], a[0] * b[1] + a[1] * b[0],
            a[0] * b[2] + 2.0 * a[1] * b[1] + a[2] * b[0])


def _jets(n: int) -> float:
    acc = 0.0
    store = {}
    for i in range(n):
        x = (i % 97) * 0.01
        a = (x, 1.0, 0.0)
        s, c = math.sin(x), math.cos(x)
        p = _mul(a, (s, c, -s))
        acc += p[0] + 0.5 * p[1] - p[2]
        store[i & 255] = p
    return acc


def _lists(passes: int) -> float:
    acc = 0.0
    for k in range(passes):
        values = [x * (1.0 + k * 1e-4) for x in _FLOATS] * 3
        values.sort()
        index = {i: x for i, x in enumerate(values[:50_000])}
        acc += sum(values) + index[k]
    return acc


def measure() -> float:
    """Wall seconds of one fixed reference loop."""
    started = time.perf_counter()
    _jets(JET_ITERATIONS)
    _lists(LIST_PASSES)
    return time.perf_counter() - started


def rescale(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while the reference loop took ``ref_s``,
    expressed at the reference speed."""
    return seconds * REF_NOMINAL_S / ref_s
