"""The compiled walk kernel and seed scan, and their loader.

Where a C compiler is present the kernel must give every walk exactly what
the Python walk gives, and every seed scan what the NumPy scan gives; where
it cannot be built, tracing falls back to the Python walk and the NumPy
scan with the same outputs.
"""

import math
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moirelines import _walk
from moirelines.geometry import Rect
from moirelines.potential import eval_superposition
from moirelines.tracer import (
    ChunkedField,
    _locate_start,
    _Walker,
    energy_interval,
    find_seeds,
)

from families import hexagonal_pair, saddle_cells, two_layer_sum
import test_bitwise

TWO_PI = 2.0 * math.pi

needs_kernel = pytest.mark.skipif(shutil.which(_walk.CC) is None,
                                  reason="no C compiler to build the walk kernel")


def test_compile_flags_keep_ieee_rounding():
    assert "-ffp-contract=off" in _walk.FLAGS
    assert not any(f.startswith(("-ffast-math", "-Ofast", "-march")) for f in _walk.FLAGS)


def _bits(walk):
    xs, ys, arc, reason, first_jitter = walk
    # Both walks return their vertices as float64 arrays of one shape.
    for a in (xs, ys):
        assert type(a) is np.ndarray and a.dtype == np.float64 and a.shape == (len(xs),)
    return xs.tobytes(), ys.tobytes(), struct.pack("<d", arc), reason, first_jitter


def _both(walker, edge, p0, forward, arc_limit, cell_limit):
    """One walk by the kernel, then by the Python loop."""
    args = (edge, p0, forward, arc_limit, cell_limit)
    compiled = walker.walk(*args)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_walk, "kernel", lambda: None)
        python = walker.walk(*args)
    return compiled, python


def _walk_near(s, field, level, i, j, arc_limit, cell_limit):
    """Both walks from every seed within two cells of cell (i, j), by the
    kernel and by the Python loop; yields each edge, p0, direction and
    (compiled, python) pair."""
    h = field.h
    walker = _Walker(field, level)
    around = Rect((i - 2) * h, (j - 2) * h, (i + 3) * h, (j + 3) * h)
    for seed in find_seeds(s, level, around, h, field):
        edge = _locate_start(walker, seed)
        p0 = walker.crossing(edge)
        for forward in (True, False):
            yield edge, p0, forward, _both(walker, edge, p0, forward, arc_limit, cell_limit)


class TestCompiledWalk:
    pytestmark = needs_kernel

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from([two_layer_sum, hexagonal_pair]),
           alpha=st.floats(0.05, 1.5), sx=st.floats(0.0, TWO_PI), sy=st.floats(0.0, TWO_PI),
           mode=st.sampled_from(["free", "grid value", "saddle"]),
           frac=st.floats(-0.9, 0.9), cells=st.sampled_from([8, 12, 16]),
           cut=st.floats(0.0, 1.0), cell_limit=st.sampled_from([1, 2, 37, 10**6]))
    def test_kernel_walks_as_python(self, family, alpha, sx, sy, mode, frac, cells,
                                    cut, cell_limit):
        s = family(alpha=alpha, shift=(sx, sy))
        h = s.shortest_period() / cells
        field = ChunkedField(s, h)
        i = j = 0
        level = frac * s.value_scale()
        if mode == "grid value":  # the residual nudge fires on that corner
            level = float(field.corner(3, -2))
        elif mode == "saddle":
            saddles = saddle_cells(field, -2 * cells, -2 * cells, 4 * cells)
            if saddles:
                level, i, j = saddles[0]
        for edge, p0, forward, (compiled, python) in _walk_near(
            s, field, level, i, j, 30 * TWO_PI, 4000
        ):
            assert _bits(compiled) == _bits(python)
            # Arc limits at an exact running arc stop on that vertex.
            xs, ys = compiled[:2]
            arcs = _walk.arc_lengths(np.concatenate(([p0[0]], xs)),
                                     np.concatenate(([p0[1]], ys)))
            arc_limit = float(arcs[int(cut * (len(arcs) - 1))])
            walker = _Walker(field, level)
            compiled, python = _both(walker, edge, p0, forward, arc_limit, cell_limit)
            assert _bits(compiled) == _bits(python)

    def test_saddle_cells_resolve_alike(self, monkeypatch):
        s = hexagonal_pair(0.3, (0.4, 1.1))
        field = ChunkedField(s, s.shortest_period() / 16)
        met = {"compiled": [], "python": []}
        resolve = _Walker.saddle_exit

        def counted(walker, index, i, j):
            met["python" if _walk.kernel() is None else "compiled"].append((i, j))
            return resolve(walker, index, i, j)

        monkeypatch.setattr(_Walker, "saddle_exit", counted)
        for level, i, j in saddle_cells(field, -32, -32, 64)[:8]:
            for *_, (compiled, python) in _walk_near(s, field, level, i, j,
                                                     10 * TWO_PI, 10**6):
                assert _bits(compiled) == _bits(python)
        assert met["compiled"] and met["compiled"] == met["python"]

    def test_saddle_centre_nudge_is_recorded_alike(self):
        # At the level of a saddle cell's centre value the centre's residual
        # is zero, so resolving the saddle nudges it.
        s = hexagonal_pair(0.3, (0.4, 1.1))
        h = s.shortest_period() / 16
        field = ChunkedField(s, h)
        cells = nudged = 0
        for _, i, j in saddle_cells(field, -32, -32, 64)[:20]:
            level = float(eval_superposition(s, np.array(((i + 0.5) * h, (j + 0.5) * h))))
            above = [field.corner(i + di, j + dj) > level
                     for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1))]
            if not above[0] == above[2] != above[1] == above[3]:
                continue
            cells += 1
            for *_, (compiled, python) in _walk_near(s, field, level, i, j, 10 * TWO_PI, 10**6):
                assert _bits(compiled) == _bits(python)
                nudged += compiled[4] is not None
        assert cells and nudged


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """Loads the kernel anew, with its cache under tmp_path."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _walk.kernel.cache_clear()
    yield tmp_path / "cache" / "moirelines"
    _walk.kernel.cache_clear()


@needs_kernel
def test_kernel_builds_into_the_cache(fresh_loader):
    assert _walk.kernel() is not None
    built = sorted(p.name for p in fresh_loader.iterdir())
    assert len(built) == 1 and built[0].startswith("walk-") and built[0].endswith(".so")
    _walk.kernel.cache_clear()
    assert _walk.kernel() is not None
    assert sorted(p.name for p in fresh_loader.iterdir()) == built


def test_failing_compiler_falls_back_to_python(fresh_loader, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(_walk, "CC", "false")
    assert _walk.kernel() is None
    assert not any(fresh_loader.iterdir())
    test_bitwise.test_cli_trace_bitwise(tmp_path, capsys)


def test_seed_scan_falls_back_to_numpy(monkeypatch):
    # find_seeds and the interval probes scan in C where the library is
    # built, and with the NumPy scan where it is not, to the same results.
    s, budget, window = test_bitwise._setup()
    numpy_scan = _walk.seed_edges_numpy
    scans = []

    def counted(*args):
        scans.append(args)
        return numpy_scan(*args)

    monkeypatch.setattr(_walk, "seed_edges_numpy", counted)

    def results():
        field = ChunkedField(s, budget.cell_size)
        seeds = [find_seeds(s, level, window, budget.cell_size, field)
                 for level in test_bitwise._levels(field).values()]
        iv = energy_interval(s, window, budget, -1.0, 1.0, tol_eps=5e-3)
        return [np.array(p).tobytes() for level in seeds for p in level], iv

    compiled = results()
    assert scans == [] and compiled[0] and compiled[1].found
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_walk, "kernel", lambda: None)
        assert results() == compiled
    assert len(scans) == 3 + compiled[1].n_probes


def test_unwritable_cache_falls_back_to_python(fresh_loader, monkeypatch, tmp_path, capsys):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    assert _walk.kernel() is None
    test_bitwise.test_cli_trace_bitwise(tmp_path, capsys)
