"""Bit-for-bit regression pins for tracing, the energy interval and classify.

The digests were recorded before the marching-squares walker was rewritten
for speed; any change to a traced vertex, an arc length, a stop status or a
jitter flag changes them.  Every line is traced three ways: with the plain
budget, with a cell cap that stops it early, and clipped to a small window,
so every stop rule of the walk is covered.

The potential is the README example: V = cos x + cos y, U = 0.3 cos x',
alpha = 0.7.
"""

import hashlib
import math
import struct

import pytest

from moirelines.classifier import Regular, classify, classify_first_open
from moirelines.geometry import Rect
from moirelines.tracer import (
    ChunkedField,
    TraceBudget,
    energy_interval,
    find_seeds,
    trace_level_line,
)

from families import single_harmonic_sum

TWO_PI = 2.0 * math.pi
MAX_SEEDS = 8

# Level name -> SHA-256 over every traced line at that level.
LINE_DIGESTS = {
    "open": "a936fe6cf031a0c91f3436e8ee262d6949c23aeb51d55b57b02a356c803b35db",
    "closed": "5f42efbb0da36784a55266a646b7fd00f56c356451ffe28ec5bf97bad69cbf83",
    "corner": "0a1077fd06c0d9580b9e30bbdadeedaf971b12bf1e1ba8462b4311ddaf1500c7",
}
INTERVAL = (-0.205078125, 0.189453125, True, False)  # lo, hi, found, degenerate
CLASSIFY_WIDTHS = (
    (188.5451292411248, 8.71259395665267),
    (377.40760372719376, 8.876343331668917),
    (754.3783069408164, 9.420186199978012),
)
CLASSIFY_QUADRUPLE = (1, 1, -1, 0)


def _setup():
    s = single_harmonic_sum(delta=0.3, alpha=0.7)
    budget = TraceBudget.for_potential(s, cells_per_period=16, length_periods=30.0)
    window = Rect.centered((0.0, 0.0), 3 * TWO_PI)
    return s, budget, window


def _levels(field):
    # "corner" sits exactly on a grid value, so the residual nudge fires.
    return {"open": 0.05, "closed": 0.9, "corner": float(field.corner(5, 3))}


def _feed(h, line):
    h.update(line.points.astype("<f8").tobytes())
    h.update(struct.pack("<dd", line.arc_length, line.jitter_scale))
    h.update(line.status.value.encode())


def _level_digest(s, budget, window, field, level):
    h = hashlib.sha256()
    capped = TraceBudget(budget.cell_size, budget.max_arc_length, 40)
    clip = Rect.centered((0.0, 0.0), 2.5)
    jittered = 0
    for seed in find_seeds(s, level, window, budget.cell_size, field)[:MAX_SEEDS]:
        for b, w in ((budget, None), (capped, None), (budget, clip)):
            line = trace_level_line(s, seed, level, b, window=w, field=field)
            _feed(h, line)
            jittered += line.jitter_scale > 0
    return h.hexdigest(), jittered


def test_traced_lines_bitwise():
    s, budget, window = _setup()
    field = ChunkedField(s, budget.cell_size)
    digests = {}
    for name, level in _levels(field).items():
        digests[name], jittered = _level_digest(s, budget, window, field, level)
        if name == "corner":
            assert jittered > 0
    assert digests == LINE_DIGESTS


def test_interval_and_classify_bitwise():
    s, budget, window = _setup()
    iv = energy_interval(s, window, budget, -1.0, 1.0, tol_eps=5e-3)
    assert (iv.lo, iv.hi, iv.found, iv.degenerate) == INTERVAL
    level = 0.5 * (iv.lo + iv.hi)
    field = ChunkedField(s, budget.cell_size)
    line, c = classify_first_open(s, level, window, budget, field=field)
    assert isinstance(c, Regular)
    assert c.widths_by_length == CLASSIFY_WIDTHS
    assert c.quadruple.as_tuple() == CLASSIFY_QUADRUPLE
    # classify on the line alone retraces it and must agree exactly.
    again = classify(s, line, budget, field=ChunkedField(s, budget.cell_size))
    assert isinstance(again, Regular)
    assert again.widths_by_length == c.widths_by_length
    assert again.quadruple == c.quadruple
    assert again.direction.tobytes() == c.direction.tobytes()
    assert (again.strip_width, again.residual) == (c.strip_width, c.residual)
