"""The compiled walk kernel, seed scan and interval probe, and their loader.

Where a C compiler is present the kernel must give every walk exactly what
the Python walk gives, every seed scan what the NumPy scan gives and every
probe level what the Python probe gives; where it cannot be built, tracing
falls back to the Python walk and the NumPy scan with the same outputs.
"""

import itertools
import math
import shutil
import struct
import subprocess
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moirelines import _walk, tracer
from moirelines.geometry import Rect
from moirelines.potential import SuperpositionPotential, TableLookup, eval_superposition
from moirelines.tracer import (
    ChunkedField,
    TraceBudget,
    _IntervalProbe,
    _locate_start,
    _Walker,
    energy_interval,
    find_seeds,
    trace_level_line,
)

from families import (
    hexagonal_pair,
    random_superposition,
    saddle_cells,
    single_harmonic_sum,
    two_layer_sum,
)
import test_bitwise

TWO_PI = 2.0 * math.pi

needs_kernel = pytest.mark.skipif(shutil.which(_walk.CC) is None,
                                  reason="no C compiler to build the walk kernel")


def test_compile_flags_keep_ieee_rounding():
    assert "-ffp-contract=off" in _walk.FLAGS
    assert not any(f.startswith(("-ffast-math", "-Ofast", "-march")) for f in _walk.FLAGS)


@needs_kernel
def test_library_compiles_without_warnings(tmp_path):
    built = subprocess.run(
        [_walk.CC, *_walk.FLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "walk.so"),
         str(_walk.SOURCE), "-lm"],
        capture_output=True, text=True, timeout=120,
    )
    assert built.returncode == 0, built.stderr


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

    def test_lookups_probe_past_other_chunks(self):
        # Before any chunk is filled, each chunk the walks will cross gets a
        # decoy in the table: a key far off with the same ci and the same
        # home slot, whose corner values are all zero.  Each real chunk
        # then sits past its decoy, and a lookup that returned the decoy
        # would walk the zeros.
        s = single_harmonic_sum(delta=0.3, alpha=0.7)
        h = s.shortest_period() / 16
        levels = (0.05, -0.05, 0.9)

        def walks(field):
            pairs = []
            for level in levels:
                walker = _Walker(field, level)
                for seed in find_seeds(s, level, Rect.centered((0.0, 0.0), 3 * TWO_PI), h, field):
                    edge = _locate_start(walker, seed)
                    p0 = walker.crossing(edge)
                    pairs += [_both(walker, edge, p0, forward, 40 * TWO_PI, 10**6)
                              for forward in (True, False)]
            return pairs

        crossed = ChunkedField(s, h)
        walks(crossed)
        keys = [(ci, cj) for ci, cj, at in crossed._fill.chunks.slots.tolist() if at]
        field = ChunkedField(s, h)
        table = field._fill.chunks
        while len(table.slots) < 4096:
            table.count = len(table.slots) // 2
            table.make_room()
        zeros = np.zeros((_walk.CHUNK + 1, _walk.CHUNK + 1))

        def home(ci, cj):
            return ((ci * _walk._HASH_I + cj * _walk._HASH_J) & _walk._U64) >> table.shift

        for ci, cj in keys:
            decoy = next(c for c in itertools.count(2**40) if home(ci, c) == home(ci, cj))
            table.insert(ci, decoy, _walk._address(zeros))
        assert len(keys) > 50
        for compiled, python in walks(field):
            assert _bits(compiled) == _bits(python)
        assert len(table.slots) == 4096 and table.count == 2 * len(keys)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), frac=st.floats(-0.9, 0.9),
           grid_value=st.booleans(), cx=st.floats(-4.0, 4.0), cy=st.floats(-4.0, 4.0),
           size=st.floats(0.05, 3.0), cells=st.sampled_from([8, 16]),
           cap=st.sampled_from([1, 3, 12, 10**6]), periods=st.sampled_from([0.5, 4.0, 16.0]),
           cell_limit=st.sampled_from([3, 200, 10**6]))
    def test_kernel_probes_as_python(self, seed, frac, grid_value, cx, cy, size, cells, cap,
                                     periods, cell_limit):
        s = random_superposition(np.random.default_rng(seed))
        period = s.longest_period()
        field = ChunkedField(s, s.shortest_period() / cells)
        i0, j0, block = field.window_block(Rect.centered((cx * period, cy * period),
                                                         size * period))
        level = frac * s.value_scale()
        if grid_value:  # the residual nudge fires on that corner
            level = float(block[len(block) // 2, 0])
        compiled, python = _probe_both(_Walker(field, level), i0, j0, block, cap,
                                       periods * period, cell_limit)
        assert compiled == python

    def test_probe_saddle_cells_resolve_alike(self, monkeypatch):
        s = hexagonal_pair(0.3, (0.4, 1.1))
        h = s.shortest_period() / 16
        field = ChunkedField(s, h)
        met = {"compiled": [], "python": []}
        resolve = _Walker.saddle_exit
        side = "compiled"

        def counted(walker, index, i, j):
            met[side].append((i, j))
            return resolve(walker, index, i, j)

        monkeypatch.setattr(_Walker, "saddle_exit", counted)
        for level, i, j in saddle_cells(field, -32, -32, 64)[:8]:
            i0, j0, block = field.window_block(Rect((i - 2) * h, (j - 2) * h,
                                                    (i + 3) * h, (j + 3) * h))
            walker = _Walker(field, level)
            args = (walker, i0, j0, block, 12, 10 * TWO_PI, 10**6)
            side = "compiled"
            compiled = _walk.probe_compiled(_library().probe_level, *args)
            side = "python"
            assert _walk.probe_python(*args) == compiled
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


def _library():
    lib = _walk.kernel()
    if lib is None:
        pytest.skip("the compiled library does not load here")
    return lib


def _probe_both(walker, i0, j0, block, cap, arc_limit, cell_limit):
    """One probe level by the library, then by the Python twin."""
    args = (walker, i0, j0, block, cap, arc_limit, cell_limit)
    return _walk.probe_compiled(_library().probe_level, *args), _walk.probe_python(*args)


@pytest.fixture
def library_calls(monkeypatch):
    """Counts the calls into each routine of the compiled library."""
    lib = _library()
    calls = Counter()

    class Counted:
        def __getattr__(self, name):
            fn = getattr(lib, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)

            return counted

    counted_lib = Counted()
    monkeypatch.setattr(_walk, "kernel", lambda: counted_lib)
    return calls


class TestRoundTrips:
    """The compiled walks and probes stay in the library: they return to
    Python only for room for a chunk, a fill without a compiled rule or a
    saddle cell.  A fill asked for from Python is one library call."""

    S = single_harmonic_sum(delta=0.3, alpha=0.7)
    BUDGET = TraceBudget.for_potential(S, length_periods=10.0)
    WINDOW = Rect.centered((0.0, 0.0), 1.5 * TWO_PI)

    @pytest.mark.parametrize("level, state, calls", [
        (0.05, "open", {"probe_level": 1}),  # nothing to walk again
        (0.9, "above", {"probe_level": 1, "walk_cells": 1}),  # the longest loop again
        (-0.9, "below", {"probe_level": 1, "walk_cells": 1}),
    ], ids=["open", "above", "below"])
    def test_a_probe_over_filled_chunks_calls_once(self, library_calls, level, state, calls):
        probe = _IntervalProbe(ChunkedField(self.S, self.BUDGET.cell_size), self.WINDOW,
                               self.BUDGET)
        assert probe.state(level) == state  # fills every chunk the level's walks cross
        library_calls.clear()
        assert probe.state(level) == state
        assert dict(library_calls) == calls

    @pytest.mark.parametrize("shared", [False, True], ids=["fresh", "stored"])
    def test_a_fill_is_one_library_call(self, library_calls, monkeypatch, shared):
        store = {}
        monkeypatch.setattr(tracer, "_FIRST_LAYER_STORE", store)
        token = tracer._SHARE_FIRST_LAYER.set(shared)
        try:
            want = ChunkedField(self.S, self.BUDGET.cell_size)._chunk(0, 0).copy()
            library_calls.clear()
            if shared:  # the next fill must read V from the store, not evaluate it
                (held,) = store.values()
                held._values[0] = np.nan
            got = ChunkedField(self.S, self.BUDGET.cell_size)._chunk(0, 0)
        finally:
            tracer._SHARE_FIRST_LAYER.reset(token)
        assert dict(library_calls) == {"fill_chunk": 1}
        assert np.isnan(got).all() if shared else np.array_equal(got, want)

    @staticmethod
    def counted_trace(field, seed, level, budget, monkeypatch):
        """trace_level_line on field, recording for each return of a walk
        for a chunk (_walk._enter) whether the fill it asked for had to make
        room in the field's slab or table first, and counting the fills by
        the NumPy twin."""
        enters, numpy_fills = [], []
        enter, fill_numpy = _walk._enter, _walk.ChunkFill.fill_numpy

        def counted_enter(st, f):
            room = len(f._fill.slabs), len(f._fill.chunks.slots)
            enter(st, f)
            enters.append(room != (len(f._fill.slabs), len(f._fill.chunks.slots)))

        def counted_fill(fill, ci, cj):
            numpy_fills.append((ci, cj))
            return fill_numpy(fill, ci, cj)

        monkeypatch.setattr(_walk, "_enter", counted_enter)
        monkeypatch.setattr(_walk.ChunkFill, "fill_numpy", counted_fill)
        before = field._fill.chunks.count
        line = trace_level_line(field.s, seed, level, budget, field)
        monkeypatch.undo()
        return line, enters, numpy_fills, field._fill.chunks.count - before

    @pytest.mark.parametrize("combiner", [None, "table"], ids=["Sum", "TableLookup"])
    def test_walks_fill_the_chunks_they_enter_in_the_library(self, monkeypatch, combiner):
        s = self.S
        if combiner == "table":
            vg, ug = (np.linspace(-b, b, 7) for b in (s.v.amplitude_bound(),
                                                     s.u.amplitude_bound()))
            s = SuperpositionPotential(s.v, s.u, s.transform,
                                       TableLookup(vg, ug, np.add.outer(vg, ug)))
        budget = TraceBudget.for_potential(s, length_periods=200.0)
        seed = find_seeds(s, 0.05, self.WINDOW, budget.cell_size)[0]
        field = ChunkedField(s, budget.cell_size)
        line, enters, numpy_fills, filled = self.counted_trace(field, seed, 0.05, budget,
                                                               monkeypatch)
        assert not line.is_closed and filled > 40
        if combiner is None:
            # Only the chunk of the seed is filled outside the walks.
            assert enters and all(enters) and len(enters) < filled / 4
            assert numpy_fills == []
        else:
            assert not all(enters) and len(numpy_fills) == filled

    @pytest.mark.parametrize("level, walks", [(0.05, 2), (0.9, 1)], ids=["open", "closed"])
    def test_a_trace_over_filled_chunks_calls_once_per_walk(self, library_calls, level, walks):
        field = ChunkedField(self.S, self.BUDGET.cell_size)
        seed = find_seeds(self.S, level, self.WINDOW, self.BUDGET.cell_size, field)[0]
        line = trace_level_line(self.S, seed, level, self.BUDGET, field)
        assert line.is_closed == (walks == 1)
        library_calls.clear()
        assert trace_level_line(self.S, seed, level, self.BUDGET, field) == line
        assert dict(library_calls) == {"walk_cells": walks}


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
