import math
import re
import shutil
import struct
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moirelines import _walk, tracer
from moirelines.classifier import (
    classify_family,
    classify_first_open,
    classify_potential,
)
from moirelines.geometry import EuclideanTransform, Rect
from moirelines.potential import (
    FourierTerm,
    PeriodicPotential,
    Product,
    Sum,
    SuperpositionPotential,
    TableLookup,
    WeightedSum,
    eval_superposition,
)
from moirelines.tracer import (
    CLASSIFY_DEPTH,
    JITTER_REL,
    MAX_SCALED_CELLS,
    MIN_CELLS_PER_PERIOD,
    BudgetError,
    ChunkedField,
    EnergyInterval,
    LevelLine,
    LineStatus,
    SeedNotOnLevelError,
    TraceBudget,
    _IntervalProbe,
    _locate_start,
    _Walker,
    bisect,
    energy_interval,
    find_seeds,
    signed_area,
    trace_level_line,
)

import oracles
from families import (
    hexagonal_pair,
    random_lattice,
    random_superposition,
    random_terms,
    saddle_cells,
    single_harmonic_sum,
    three_frequency_layers,
    two_layer_sum,
)

TWO_PI = 2.0 * math.pi


class TestBudget:
    def test_for_potential_defaults(self, two_cos):
        b = TraceBudget.for_potential(two_cos, length_periods=20.0)
        assert b.cell_size == pytest.approx(TWO_PI / 16)
        assert b.max_arc_length == pytest.approx(20.0 * TWO_PI)
        assert b.max_cells >= 8 * b.max_arc_length / b.cell_size

    def test_scaled(self, small_budget):
        s4 = small_budget.scaled(4.0)
        assert s4.cell_size == small_budget.cell_size
        assert s4.max_arc_length == pytest.approx(4 * small_budget.max_arc_length)
        assert s4.max_cells > small_budget.max_cells

    def test_validation(self):
        with pytest.raises(BudgetError):
            TraceBudget(0.0, 1.0, 10)
        with pytest.raises(BudgetError):
            TraceBudget(0.1, -1.0, 10)
        with pytest.raises(BudgetError):
            TraceBudget(0.1, 1.0, 0)

    def test_too_coarse_grid_refused(self, two_cos, small_window):
        coarse = TraceBudget(two_cos.shortest_period() / 4, 10.0, 1000)
        seed = np.array([math.pi / 2, 0.0])
        with pytest.raises(ValueError):
            trace_level_line(two_cos, seed, 1.0, coarse)
        with pytest.raises(ValueError):
            find_seeds(two_cos, 1.0, small_window, coarse.cell_size)

    def test_for_potential_refuses_too_coarse_cell(self, two_cos):
        limit = two_cos.shortest_period() / MIN_CELLS_PER_PERIOD
        assert TraceBudget.for_potential(two_cos, cell_size=limit).cell_size == limit
        with pytest.raises(BudgetError, match="too coarse"):
            TraceBudget.for_potential(two_cos, cell_size=1.01 * limit)

    @pytest.mark.parametrize("walker", ["kernel", "python_walker"])
    @pytest.mark.parametrize("max_cells", [2**64 + 5, 2**63 + 5, 2**63, 2.5, 10.0, 0])
    def test_cell_cap_must_be_an_int64(self, request, walker, max_cells):
        # Both walks read the cap as a signed 64-bit count of cells, and only
        # such a count stops them alike: beyond it the compiled walk would
        # wrap the cap and the Python walk would not, and a fractional cap
        # would stop them one cell apart.
        if walker == "python_walker":
            request.getfixturevalue(walker)
        s = single_harmonic_sum(delta=0.3, alpha=0.7)
        base = TraceBudget.for_potential(s, length_periods=10.0)
        h, arc = base.cell_size, base.max_arc_length
        with pytest.raises(BudgetError, match="is not an integer in"):
            TraceBudget(h, arc, max_cells)
        with pytest.raises(BudgetError, match="is not an integer in"):
            TraceBudget(h, arc, 2**61).scaled(4.0)
        # The largest cap is no cap on this line: it stops on the arc budget.
        seed = find_seeds(s, 0.05, Rect.centered((0.0, 0.0), 4.0 * TWO_PI), h)[0]
        widest = TraceBudget(h, arc, 2**63 - 1)
        assert forward_walk(ChunkedField(s, h), seed, 0.05, widest)[3] == "budget"
        assert_same_trace(trace_level_line(s, seed, 0.05, widest),
                          trace_level_line(s, seed, 0.05, base))

    def test_for_potential_refuses_a_cell_cap_over_the_ceiling(self, two_cos):
        # h = 0.5 and L = 2**21 give CLASSIFY_DEPTH * 8 * L / h = 2**27 exactly.
        assert MAX_SCALED_CELLS == 2**27 and CLASSIFY_DEPTH == 4.0
        b = TraceBudget.for_potential(two_cos, cell_size=0.5, max_arc_length=2.0**21)
        assert b.max_cells == 2**25 + 64
        with pytest.raises(BudgetError, match="over the ceiling of 134217728"):
            TraceBudget.for_potential(two_cos, cell_size=0.5,
                                      max_arc_length=2.0**21 * (1 + 2.0**-20))


@pytest.mark.parametrize("inside, outside", [(0.0, 1.0), (1.0, 0.0)])
def test_bisect_either_order(inside, outside):
    calls = []

    def is_inside(x):
        calls.append(x)
        return (x < 0.3) == (inside < outside)

    assert bisect(inside, outside, is_inside, 1e-6) == pytest.approx(0.3, abs=1e-6)
    assert len(calls) == 20  # 2**-20 < 1e-6 < 2**-19
    assert bisect(0.5, 0.5, is_inside, 1e-6) == 0.5 and len(calls) == 20


class TestSignedArea:
    def test_orientation_sign(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert signed_area(square) == pytest.approx(1.0)
        assert signed_area(square[::-1]) == pytest.approx(-1.0)


class TestChunkedField:
    def test_corner_and_block_match_potential(self, two_cos):
        h = TWO_PI / 16
        field = ChunkedField(two_cos, h)
        for gi, gj in ((0, 0), (5, -3), (40, 17), (-33, -33)):
            want = eval_superposition(two_cos, (gi * h, gj * h))
            assert field.corner(gi, gj) == pytest.approx(want, abs=1e-12)
        block = field.block(-4, 2, 7, 5)
        assert block.shape == (7, 5)
        assert block[3, 1] == pytest.approx(field.corner(-1, 3), abs=1e-15)
        assert field.cells_evaluated > 0

    @pytest.mark.parametrize("window", [
        Rect(-1e308, 0.0, 1e308, 1.0),  # x1 / h overflows
        Rect(0.0, 0.0, 1e200, 1.0),
        Rect(0.0, 0.0, 2**11 * TWO_PI, 2**11 * TWO_PI),  # (2**15 + 1)**2 corners
        Rect(2.0**70, 0.0, 2.0**70 + 2**20, 1.0),  # grid indices beyond 2**62
    ])
    def test_window_too_wide_for_the_cell_size_is_refused(self, monkeypatch, window):
        s = single_harmonic_sum(delta=0.3, alpha=0.7)
        budget = TraceBudget.for_potential(s, length_periods=10.0)
        h = budget.cell_size
        assert h == TWO_PI / 16

        def block(*args):
            raise AssertionError(f"block {args[1:]} was allocated")

        monkeypatch.setattr(ChunkedField, "block", block)
        message = rf"window {re.escape(repr(window))} is too wide for cell size {h}"
        with pytest.raises(ValueError, match=message):
            find_seeds(s, 0.1, window, h)
        with pytest.raises(ValueError, match=message):
            energy_interval(s, window, budget, -1.0, 1.0, 1e-3)

    def test_window_of_the_most_corners_is_taken(self, monkeypatch, two_cos):
        h = TWO_PI / 16
        asked = []
        monkeypatch.setattr(ChunkedField, "block", lambda self, *args: asked.append(args))
        side = (2**15 - 1) * h  # 2**15 corners a side
        ChunkedField(two_cos, h).window_block(Rect(0.0, 0.0, side, side))
        assert asked == [(0, 0, 2**15, 2**15)]
        with pytest.raises(ValueError, match="too wide for cell size"):
            ChunkedField(two_cos, h).window_block(Rect(0.0, 0.0, side + h, side))
        assert len(asked) == 1


_FILL_CASES = given(seed=st.integers(0, 2**32 - 1),
                    combiner=st.sampled_from(["Sum", "WeightedSum", "Product", "TableLookup"]),
                    cells=st.floats(MIN_CELLS_PER_PERIOD, 40.0),
                    ci=st.integers(-2**12, 2**12), cj=st.integers(-2**12, 2**12),
                    shared=st.booleans())


def _evaluated(s, h, ci, cj) -> bytes:
    """eval_superposition of chunk (ci, cj)'s corners, as one flat array."""
    gi = (ci * _walk.CHUNK + np.arange(_walk.CHUNK + 1)) * h
    gj = (cj * _walk.CHUNK + np.arange(_walk.CHUNK + 1)) * h
    corners = np.stack(np.meshgrid(gi, gj, indexing="ij"), axis=-1)
    assert corners.shape == (_walk.CHUNK + 1, _walk.CHUNK + 1, 2)
    return eval_superposition(s, corners.reshape(-1, 2)).tobytes()


class TestChunkFill:
    """A chunk fill evaluates its corners one layer at a time, in C where
    the library loads (_walk.c's fill_chunk) and with NumPy where it does
    not (_walk.ChunkFill.fill_numpy).  Its values must equal the evaluation
    of the same corners as one flat ((CHUNK + 1)**2, 2) array bit for bit,
    with the first-layer store on or off.  Up to seven terms a layer, the
    corners stacked as a (CHUNK + 1, CHUNK + 1, 2) array evaluate the same;
    from eight on, gemv rounds the last of every 33 of them otherwise."""

    @staticmethod
    def family(rng, pick):
        v = PeriodicPotential(random_lattice(rng), random_terms(rng, 9))
        u = PeriodicPotential(random_lattice(rng), random_terms(rng, 9))
        transform = EuclideanTransform(float(rng.uniform(0, TWO_PI)), rng.uniform(-50, 50, 2))
        if pick == "Sum":
            combiner = Sum()
        elif pick == "WeightedSum":
            combiner = WeightedSum(*rng.uniform(-2.0, 2.0, 2))
        elif pick == "Product":
            combiner = Product()
        else:
            # A table that covers both layers' bounds, with some margin.
            bv = 1.01 * v.amplitude_bound()
            bu = 1.01 * u.amplitude_bound()
            combiner = TableLookup(np.linspace(-bv, bv, 9), np.linspace(-bu, bu, 7),
                                   rng.uniform(-2.0, 2.0, (9, 7)))
        return SuperpositionPotential(v, u, transform, combiner)

    @settings(max_examples=40, deadline=None)
    @_FILL_CASES
    def test_fill_equals_the_stacked_evaluation_bit_for_bit(self, seed, combiner, cells,
                                                            ci, cj, shared):
        self.check_fill(seed, combiner, cells, ci, cj, shared)

    @settings(max_examples=20, deadline=None)
    @_FILL_CASES
    @pytest.mark.usefixtures("python_walker")
    def test_fill_equals_the_stacked_evaluation_bit_for_bit_python_walker(
        self, seed, combiner, cells, ci, cj, shared
    ):
        self.check_fill(seed, combiner, cells, ci, cj, shared)

    def check_fill(self, seed, combiner, cells, ci, cj, shared):
        s = self.family(np.random.default_rng(seed), combiner)
        h = s.shortest_period() / cells
        want = _evaluated(s, h, ci, cj)
        token = tracer._SHARE_FIRST_LAYER.set(shared)
        try:
            with mock.patch.object(tracer, "_FIRST_LAYER_STORE", {}):
                # Under the store the second field reads V from the first.
                for _ in range(1 + shared):
                    assert ChunkedField(s, h)._chunk(ci, cj).tobytes() == want
        finally:
            tracer._SHARE_FIRST_LAYER.reset(token)

    def test_chunks_in_later_slabs_leave_earlier_ones_alone(self):
        s = self.family(np.random.default_rng(7), "Sum")
        h = s.shortest_period() / 16
        field = ChunkedField(s, h)
        keys = [(ci, cj) for ci in range(-3, 3) for cj in range(-3, 3)]
        assert len(keys) > 2 * _walk._SLAB
        for key in keys:
            field._chunk(*key)
        for key in keys:
            assert field._chunk(*key).tobytes() == ChunkedField(s, h)._chunk(*key).tobytes()

    @staticmethod
    def layer(rng, zero):
        """A random layer of up to 9 terms, about a third of them with
        amplitude +0.0 or -0.0; or, if zero, one term 4 to 7 times over with
        amplitude -0.0, whose products are all -0.0 wherever its cosine is
        positive."""
        terms = random_terms(rng, 9)
        if zero:
            terms = (FourierTerm(terms[0].n1, terms[0].n2, -0.0, terms[0].phase),) * int(
                rng.integers(4, 8))
        else:
            terms = [FourierTerm(t.n1, t.n2, float(rng.choice([0.0, -0.0])), t.phase)
                     if rng.random() < 0.3 else t for t in terms]
        return PeriodicPotential(random_lattice(rng), terms)

    @staticmethod
    def walk_fills(s, h):
        """The chunks a fresh field fills for interval probes and traces
        around the origin, (ci, cj) -> values; in C, the walks fill all but
        the probe window's."""
        field = ChunkedField(s, h)
        period, scale = s.longest_period(), s.value_scale()
        window = Rect.centered((0.0, 0.0), period)
        budget = TraceBudget(h, 10 * period, 10**5)
        probe = _IntervalProbe(field, window, budget)
        for level in (-0.3 * scale, 0.0, 0.3 * scale):
            probe.state(level)
            for seed in find_seeds(s, level, window, h, field)[:2]:
                trace_level_line(s, seed, level, budget, field)
        return {(ci, cj): field._chunk(ci, cj)
                for ci, cj, at in field._fill.chunks.slots.tolist() if at}

    @pytest.mark.parametrize("walker", ["compiled", "python"])
    @pytest.mark.parametrize("combiner", [Sum(), WeightedSum(-0.5, -2.0), Product()],
                             ids=["Sum", "WeightedSum", "Product"])
    def test_zero_amplitudes_keep_their_sign_bits(self, monkeypatch, combiner, walker):
        # gemv sums into +0.0, so a layer of four or more terms, all of them
        # +-0.0, is +0.0 at every corner, even where every product is -0.0;
        # the combiners then carry the zeros' signs into the values.
        if walker == "python":
            monkeypatch.setattr(_walk, "kernel", lambda: None)
        rng = np.random.default_rng(5)
        for zeros in ((True, False), (False, True), (True, True), (False, False)):
            v, u = (self.layer(rng, zero) for zero in zeros)
            transform = EuclideanTransform(float(rng.uniform(0, TWO_PI)), rng.uniform(-5, 5, 2))
            s = SuperpositionPotential(v, u, transform, combiner)
            h = s.shortest_period() / 16
            chunks = ({key: ChunkedField(s, h)._chunk(*key) for key in ((0, 0), (-3, 5))}
                      if any(zeros) else self.walk_fills(s, h))
            assert len(chunks) > 1
            for (ci, cj), values in chunks.items():
                assert values.tobytes() == _evaluated(s, h, ci, cj)

    @pytest.mark.parametrize("seed", range(10))  # 1 to 9 terms a layer
    def test_chunks_filled_by_walks_equal_twin_fills(self, seed):
        s = self.family(np.random.default_rng(seed), "Sum")
        h = s.shortest_period() / 12
        filled = self.walk_fills(s, h)
        assert len(filled) > 4
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_walk, "kernel", lambda: None)
            twin = ChunkedField(s, h)
            for key, values in filled.items():
                assert values.tobytes() == twin._chunk(*key).tobytes()


class TestFindSeeds:
    def test_no_seeds_above_range(self, two_cos, small_window, small_budget):
        assert find_seeds(two_cos, 2.5, small_window, small_budget.cell_size) == []

    def test_one_seed_per_component(self, two_cos, small_window, small_budget):
        # At level 0.5 the set is one loop around each maximum; nine maxima
        # touch the 2-period window (center, four edges, four corners).
        seeds = find_seeds(two_cos, 0.5, small_window, small_budget.cell_size)
        assert len(seeds) == 9
        for p in seeds:
            assert small_window.contains(p)
            assert abs(eval_superposition(two_cos, p) - 0.5) < 0.05

    def test_count_matches_dense_flood_fill(self, two_cos, small_window,
                                            small_budget):
        f = lambda x, y: math.cos(x) + math.cos(y)
        for level in (0.5, -0.8, 1.4):
            seeds = find_seeds(two_cos, level, small_window,
                               small_budget.cell_size)
            want = oracles.dense_seed_count(f, level, small_window,
                                            small_budget.cell_size / 2)
            assert len(seeds) == want

    def test_matches_loop_reference(self, two_cos):
        window = Rect(-7.3, -5.1, 9.2, 6.4)
        cases = [
            (two_cos, 0.0),
            (two_cos, 0.5),
            (single_harmonic_sum(delta=0.3, alpha=0.7), 0.05),
            (two_layer_sum(0.2, 0.4, (1.0, 2.0)), -0.3),
            (hexagonal_pair(0.4, (0.5, 0.1)), 0.3),
        ]
        for s, level in cases:
            h = s.shortest_period() / 16
            i0, j0 = math.floor(window.x0 / h), math.floor(window.y0 / h)
            i1, j1 = math.ceil(window.x1 / h), math.ceil(window.y1 / h)
            field = ChunkedField(s, h)
            values = field.block(i0, j0, i1 - i0 + 1, j1 - j0 + 1).tolist()
            # Also a level on a grid value, where the residual nudge fires.
            for lv in (level, values[10][7]):
                want = oracles.loop_seeds(values, lv, JITTER_REL * s.value_scale(),
                                          i0, j0, h)
                got = find_seeds(s, lv, window, h, field)
                assert len(want) > 0
                assert [tuple(p.tolist()) for p in got] == want

    def test_count_stable_under_refinement(self, two_cos, small_window):
        h = TWO_PI / 16
        a = find_seeds(two_cos, 0.5, small_window, h)
        b = find_seeds(two_cos, 0.5, small_window, h / 2)
        assert len(a) == len(b)

    def test_critical_level_seeds_on_diagonal_net(self, two_cos, small_window,
                                                  small_budget):
        # The zero set of cos x + cos y is the diagonal net x +- y = pi
        # (mod 2*pi); the nudge resolves it into one loop per minimum, and
        # the 2-period window holds four minima.
        seeds = find_seeds(two_cos, 0.0, small_window, small_budget.cell_size)
        assert len(seeds) == 4
        for p in seeds:
            d = oracles.distance_to_diagonal_net(p[0], p[1])
            assert d < small_budget.cell_size


class TestTraceLevelLine:
    def test_closed_loop_around_maximum(self, two_cos, small_window):
        budget = TraceBudget.for_potential(two_cos, length_periods=20.0,
                                           cell_size=two_cos.shortest_period() / 32)
        seeds = find_seeds(two_cos, 0.5, Rect.centered((0.0, 0.0), 5.0),
                           budget.cell_size)
        assert len(seeds) == 1
        line = trace_level_line(two_cos, seeds[0], 0.5, budget)
        assert line.status is LineStatus.CLOSED
        assert line.is_closed
        # Encloses the maximum, so f > level lies inside: counterclockwise.
        assert signed_area(line.points) > 0
        assert 8.0 < line.arc_length < 14.0
        vals = eval_superposition(two_cos, line.points)
        assert np.abs(vals - 0.5).max() < 0.02
        assert line.jitter_scale == 0.0

    def test_closed_loop_around_minimum_is_clockwise(self, two_cos):
        budget = TraceBudget.for_potential(two_cos, length_periods=20.0,
                                           cell_size=two_cos.shortest_period() / 32)
        window = Rect.centered((math.pi, math.pi), 5.0)
        seeds = find_seeds(two_cos, -0.5, window, budget.cell_size)
        assert len(seeds) == 1
        line = trace_level_line(two_cos, seeds[0], -0.5, budget)
        assert line.status is LineStatus.CLOSED
        assert signed_area(line.points) < 0

    def test_critical_level_closes_into_diamond(self, two_cos):
        # With the positive nudge the separatrix resolves into the diamond
        # around each minimum: arc length 4*sqrt(2)*pi, clockwise.
        budget = TraceBudget.for_potential(two_cos, length_periods=20.0,
                                           cell_size=two_cos.shortest_period() / 32)
        window = Rect.centered((0.0, 0.0), 2 * TWO_PI)
        seeds = find_seeds(two_cos, 0.0, window, budget.cell_size)
        assert len(seeds) == 4
        for seed in seeds:
            line = trace_level_line(two_cos, seed, 0.0, budget)
            assert line.status is LineStatus.CLOSED
            assert line.arc_length == pytest.approx(oracles.DIAMOND_ARC,
                                                    rel=0.01)
            assert signed_area(line.points) < 0
            assert line.jitter_scale > 0.0

    def test_budget_exhaustion_reported(self, two_cos):
        h = TWO_PI / 16
        starved = TraceBudget(h, 4.0, 100000)
        seeds = find_seeds(two_cos, 0.5, Rect.centered((0.0, 0.0), 5.0), h)
        line = trace_level_line(two_cos, seeds[0], 0.5, starved)
        assert line.status is LineStatus.OPEN_BUDGET_EXHAUSTED
        assert line.arc_length <= 4.0 + 2 * h

    def test_cell_cap_stops_trace(self, two_cos):
        h = TWO_PI / 16
        capped = TraceBudget(h, 1e9, 10)
        seeds = find_seeds(two_cos, 0.5, Rect.centered((0.0, 0.0), 5.0), h)
        line = trace_level_line(two_cos, seeds[0], 0.5, capped)
        assert line.status is LineStatus.OPEN_BUDGET_EXHAUSTED

    def test_deterministic(self, two_cos, small_budget):
        seeds = find_seeds(two_cos, 0.5, Rect.centered((0.0, 0.0), 5.0),
                           small_budget.cell_size)
        a = trace_level_line(two_cos, seeds[0], 0.5, small_budget)
        b = trace_level_line(two_cos, seeds[0], 0.5, small_budget)
        assert np.array_equal(a.points, b.points)
        assert a.arc_length == b.arc_length

    def test_seed_off_level_rejected(self, two_cos, small_budget):
        with pytest.raises(SeedNotOnLevelError):
            trace_level_line(two_cos, np.array([0.0, 0.0]), 0.5, small_budget)

    @pytest.mark.parametrize("seed", [[math.nan, 0.0], [math.inf, 0.0],
                                      [math.pi / 2, 0.0, 1.0]])
    def test_seed_must_be_a_finite_2_vector(self, two_cos, small_budget, seed):
        with pytest.raises(ValueError, match="2-vector"):
            trace_level_line(two_cos, seed, 0.5, small_budget)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_level_must_be_finite(self, two_cos, small_window, small_budget, level):
        with pytest.raises(ValueError, match=f"level must be finite, got {level}"):
            find_seeds(two_cos, level, small_window, small_budget.cell_size)
        with pytest.raises(ValueError, match=f"level must be finite, got {level}"):
            trace_level_line(two_cos, [math.pi / 2, 0.0], level, small_budget)

    def test_polyline_shape_guard(self):
        with pytest.raises(ValueError):
            LevelLine(0.0, np.zeros((1, 2)), LineStatus.CLOSED, 0.0, np.zeros(2))


def assert_same_trace(a, b):
    assert a.points.shape == b.points.shape
    assert a.points.tobytes() == b.points.tobytes()
    assert (a.arc_length, a.status, a.jitter_scale) == (b.arc_length, b.status, b.jitter_scale)


def forward_walk(field, seed, level, budget):
    """The forward walk trace_level_line starts with, from the same start:
    (p0, xs, ys, reason, first_jitter, start_jitter), where start_jitter
    says whether locating the start nudged a residual."""
    walker = _Walker(field, level)
    edge = _locate_start(walker, np.asarray(seed, dtype=float))
    p0 = walker.crossing(edge)
    start_jitter = walker.jitter_hits > 0
    xs, ys, _, reason, first_jitter = tracer._walk_forward(walker, edge, p0, budget)
    return p0, xs, ys, reason, first_jitter, start_jitter


class TestTraceInvariants:
    """Properties of every trace on random two_layer_sum families."""

    @settings(max_examples=40, deadline=None)
    @given(delta=st.floats(0.01, 0.6), alpha=st.floats(0.05, 1.5),
           sx=st.floats(0.0, TWO_PI), sy=st.floats(0.0, TWO_PI),
           frac=st.floats(-0.95, 0.95), cells=st.sampled_from([8, 12, 16, 24]))
    def test_vertices_on_edges_with_f_above_level_on_the_left(
        self, delta, alpha, sx, sy, frac, cells
    ):
        s = two_layer_sum(delta, alpha, (sx, sy))
        level = frac * (2.0 + 2.0 * delta)
        budget = TraceBudget.for_potential(s, length_periods=8.0,
                                           cell_size=s.shortest_period() / cells)
        h = budget.cell_size
        field = ChunkedField(s, h)
        nudge = JITTER_REL * s.value_scale()
        # Each of the four cosines bends by at most its amplitude along any
        # edge, so linear interpolation there misses f by at most
        # h**2/8 * (2 + 2*delta); a nudged corner shifts it by 2*nudge at most.
        f_tol = h * h / 8.0 * (2.0 + 2.0 * delta) + 2.0 * nudge + 1e-12

        def residual(gi, gj):
            g = field.corner(gi, gj) - level
            return nudge if abs(g) < nudge else g

        seeds = find_seeds(s, level, Rect.centered((0.0, 0.0), 2 * TWO_PI), h, field)
        for seed in seeds[:3]:
            # Tracing raises RuntimeError on an inconsistent sign pattern.
            line = trace_level_line(s, seed, level, budget, field=field)
            # A walk stops only on closing, the arc budget or the cell cap,
            # and the forward walk's stop sets the status.
            _, xs, _, reason, _, _ = forward_walk(field, seed, level, budget)
            assert reason in ("closed", "budget", "cells")
            assert (line.status is LineStatus.CLOSED) == (reason == "closed")
            pts = line.points
            assert np.abs(eval_superposition(s, pts) - level).max() <= f_tol
            u, w = pts[:, 0] / h, pts[:, 1] / h
            du, dw = np.abs(u - np.round(u)), np.abs(w - np.round(w))
            assert np.minimum(du, dw).max() < 1e-9
            horizontal = dw < du
            i = np.where(horizontal, np.floor(u), np.round(u)).astype(int)
            j = np.where(horizontal, np.round(w), np.floor(w)).astype(int)
            ends = [(i, j), (i + horizontal, j + ~horizontal)]
            r0, r1 = (np.array([residual(a, b) for a, b in zip(*e)]) for e in ends)
            assert np.all(r0 * r1 < 0)
            up = np.where((r0 > 0)[:, None], np.column_stack(ends[0]),
                          np.column_stack(ends[1])) * h
            down = np.where((r0 > 0)[:, None], np.column_stack(ends[1]),
                            np.column_stack(ends[0])) * h
            # Each segment has the positive end of both its edges on its left.
            a, d = pts[:-1], pts[1:] - pts[:-1]
            for corners, sign in ((up, 1.0), (down, -1.0)):
                for c in (corners[:-1], corners[1:]):
                    cross = d[:, 0] * (c[:, 1] - a[:, 1]) - d[:, 1] * (c[:, 0] - a[:, 0])
                    assert np.all(sign * cross > 0)
            if line.is_closed:
                # A loop is its forward walk alone, from the start crossing.
                assert len(pts) == len(xs) + 1
                assert pts[-1].tobytes() == pts[0].tobytes()


_SEED_CASES = given(seed=st.integers(0, 2**32 - 1),
                    mode=st.sampled_from(["random", "grid value", "saddle"]),
                    frac=st.floats(-0.9, 0.9), cells=st.sampled_from([8, 12, 16]))


def _seed_bits(seeds):
    return [(struct.pack("<dd", x, y), edge) for x, y, edge in seeds]


class TestSeedEdges:
    """Interval probes start their walks from the edges _walk.seed_edges returns
    with the seeds, where trace_level_line locates each seed's edge anew.
    The compiled scan gives the NumPy scan's seeds bit for bit."""

    @settings(max_examples=40, deadline=None)
    @_SEED_CASES
    def test_each_seed_is_the_crossing_of_the_edge_its_trace_starts_on(
        self, seed, mode, frac, cells
    ):
        self.check_seeds(seed, mode, frac, cells)

    @settings(max_examples=20, deadline=None)
    @_SEED_CASES
    def test_each_seed_is_the_crossing_of_the_edge_its_trace_starts_on_python_walker(
        self, seed, mode, frac, cells
    ):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_walk, "kernel", lambda: None)
            self.check_seeds(seed, mode, frac, cells)

    @staticmethod
    def check_seeds(seed, mode, frac, cells):
        s = random_superposition(np.random.default_rng(seed))
        h = s.shortest_period() / cells
        field = ChunkedField(s, h)
        window = Rect.centered((0.0, 0.0), 3.0 * s.longest_period())
        level = frac * s.value_scale()
        if mode == "grid value":  # the residual nudge fires on that corner
            level = float(field.corner(3, -2))
        elif mode == "saddle":
            saddles = saddle_cells(field, -2 * cells, -2 * cells, 4 * cells)
            if saddles:
                level = saddles[0][0]
        i0, j0, g = field.window_block(window)
        seeds = _walk.seed_edges(field, i0, j0, g - level)
        found = find_seeds(s, level, window, h, field)
        assert [np.array((x, y)).tobytes() for x, y, _ in seeds] == [p.tobytes() for p in found]
        walker = _Walker(field, level)
        for x, y, edge in seeds:
            located = _locate_start(walker, np.array((x, y)))
            assert located == edge
            assert np.array(walker.crossing(edge)).tobytes() == np.array((x, y)).tobytes()

    @pytest.mark.skipif(shutil.which(_walk.CC) is None, reason="no C compiler to build the library")
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(),
           shape=st.one_of(st.tuples(st.just(2), st.integers(1, 24)),
                           st.tuples(st.integers(1, 24), st.just(2)),
                           st.tuples(st.integers(1, 24), st.integers(1, 24))),
           origin=st.tuples(*[st.sampled_from([0, 10**6, -10**6]).flatmap(
               lambda c: st.integers(c - 40, c + 40))] * 2),
           sign=st.sampled_from(["mixed", "above", "below"]))
    def test_compiled_scan_gives_the_numpy_seeds(self, data, shape, origin, sign):
        field = ChunkedField(single_harmonic_sum(delta=0.3, alpha=0.7), TWO_PI / 16)
        delta = field.delta
        ties = [0.0, -0.0, delta, -delta, delta / 2, -delta / 2]
        values = data.draw(st.lists(st.one_of(st.sampled_from(ties), st.floats(-1.0, 1.0)),
                                    min_size=shape[0] * shape[1],
                                    max_size=shape[0] * shape[1]))
        g = np.array(values).reshape(shape)
        if sign == "above":  # every residual reads positive: nothing crosses
            g = np.abs(g)
        elif sign == "below":
            g = -np.abs(g) - delta
        before = g.tobytes()
        i0, j0 = origin
        compiled = _walk.seed_edges(field, i0, j0, g)
        assert _seed_bits(compiled) == _seed_bits(_walk.seed_edges_numpy(field, i0, j0, g))
        assert all(type(v) is float for x, y, _ in compiled for v in (x, y))
        assert all(type(v) is int for _, _, edge in compiled for v in edge)
        if sign != "mixed":
            assert compiled == []
        assert g.tobytes() == before

    @pytest.mark.skipif(shutil.which(_walk.CC) is None, reason="no C compiler to build the library")
    def test_a_block_with_more_seeds_than_the_room_is_scanned_whole(self):
        # Every other corner of every other row lies above the level: each
        # is a loop of its own.
        field = ChunkedField(single_harmonic_sum(delta=0.3, alpha=0.7), TWO_PI / 16)
        g = -np.ones((101, 101))
        g[1::2, 1::2] = 1.0
        seeds = _walk.seed_edges(field, 0, 0, g)
        assert len(seeds) == 50 * 50 > _walk.SEED_ROOM
        assert _seed_bits(seeds) == _seed_bits(_walk.seed_edges_numpy(field, 0, 0, g))


class TestTraceWalks:
    """Where the walks of a trace stop and which nudges mark it, read from
    the walks themselves: _walk_forward returns the forward walk's
    vertices, stop reason and first nudged cell."""

    def setup_method(self):
        self.s = single_harmonic_sum(delta=0.3, alpha=0.7)
        self.base = TraceBudget.for_potential(self.s, length_periods=10.0)
        self.field = ChunkedField(self.s, self.base.cell_size)
        self.window = Rect.centered((0.0, 0.0), 3 * TWO_PI)

    def seeds(self, level, count=5):
        return find_seeds(self.s, level, self.window, self.base.cell_size,
                          self.field)[:count]

    def test_arc_limit_on_a_vertex_stops_there(self):
        # The walk must compare the exact running arc with the limit: set
        # the forward limit to the running arc at vertex k, stop at k.
        # Cheaper sums that differ from it in the last bit get this wrong.
        for seed in self.seeds(0.05, count=2):
            p0, xs, ys, reason, _, _ = forward_walk(self.field, seed, 0.05,
                                                    self.base.scaled(4.0))
            assert reason == "budget"
            arcs = _walk.arc_lengths(np.concatenate(([p0[0]], xs)),
                                     np.concatenate(([p0[1]], ys)))
            for k in range(1, min(len(arcs), 200)):
                b = TraceBudget(self.base.cell_size, 2 * float(arcs[k - 1]), 10**6)
                _, fx, fy, reason, _, _ = forward_walk(self.field, seed, 0.05, b)
                assert reason == "budget" and len(fx) == k
                assert fx.tobytes() == xs[:k].tobytes() and fy.tobytes() == ys[:k].tobytes()
                # The trace ends on that forward walk.
                direct = trace_level_line(self.s, seed, 0.05, b, field=self.field)
                assert direct.points[-k:].tobytes() == np.column_stack((fx, fy)).tobytes()

    def test_closing_or_leaving_beats_the_arc_limit_on_the_last_vertex(self):
        # Closing is tested before the arc: a loop whose forward arc limit
        # equals its full perimeter still closes.
        closed = 0
        for seed in self.seeds(0.9, count=3):
            loop = trace_level_line(self.s, seed, 0.9, self.base.scaled(4.0),
                                    field=self.field)
            if not loop.is_closed:
                continue
            b = TraceBudget(self.base.cell_size, 2 * loop.arc_length, 10**6)
            assert forward_walk(self.field, seed, 0.9, b)[3] == "closed"
            assert_same_trace(trace_level_line(self.s, seed, 0.9, b, field=self.field), loop)
            closed += 1
        assert closed > 0

    def test_only_a_trace_that_reaches_a_nudge_reports_it(self):
        # Restart 30 vertices before and after a nudged grid value on the
        # line: a short trace stops before it, a longer one reaches it,
        # forward or backward.
        level = float(self.field.corner(5, 3))
        short = TraceBudget(self.base.cell_size, 3.0, 10**6)
        nudged = {"forward": 0, "backward": 0}
        for seed in self.seeds(level):
            near = trace_level_line(self.s, seed, level, self.base, field=self.field)
            _, xs, _, _, first_jitter, _ = forward_walk(self.field, seed, level, self.base)
            if near.is_closed or first_jitter is None:
                continue
            at = len(near.points) - len(xs) - 1 + first_jitter
            for k in (at - 30, at + 30):
                vertex = near.points[k]
                assert trace_level_line(self.s, vertex, level, short,
                                        field=self.field).jitter_scale == 0
                long = trace_level_line(self.s, vertex, level, self.base, field=self.field)
                assert long.jitter_scale > 0
                forward = forward_walk(self.field, vertex, level, self.base)[4] is not None
                nudged["forward" if forward else "backward"] += 1
        assert min(nudged.values()) > 0, nudged

    def test_a_nudge_met_locating_the_start_marks_the_trace(self):
        # One-cell traces from seeds next to a nudged grid value: for some,
        # only locating the start read it, and that alone marks the line.
        # The forward walk takes the one cell, leaving the backward walk none.
        h = self.base.cell_size
        one_cell = TraceBudget(h, self.base.max_arc_length, 1)
        start_only = 0
        for ci, cj in ((-7, -14), (7, -15), (8, 1)):
            level = float(self.field.corner(ci, cj))
            around = Rect((ci - 1.5) * h, (cj - 1.5) * h, (ci + 1.5) * h, (cj + 1.5) * h)
            for seed in find_seeds(self.s, level, around, h, self.field):
                walk = forward_walk(self.field, seed, level, one_cell)
                _, xs, _, reason, first_jitter, start_jitter = walk
                assert reason == "cells" and len(xs) == 1
                line = trace_level_line(self.s, seed, level, one_cell, field=self.field)
                assert (line.jitter_scale > 0) == (start_jitter or first_jitter is not None)
                start_only += start_jitter and first_jitter is None
        assert start_only > 0

    def test_locating_a_loop_vertex_gives_it_back(self):
        # A trace restarted from a vertex of another starts on that vertex.
        walker = _Walker(self.field, 0.9)
        for seed in self.seeds(0.9, count=3):
            loop = trace_level_line(self.s, seed, 0.9, self.base, field=self.field)
            assert loop.is_closed
            for vertex in loop.points[1:]:
                p0 = walker.crossing(_locate_start(walker, vertex))
                assert np.array(p0).tobytes() == vertex.tobytes()


class TestIntervalProbe:
    """Probe states equal the states full two-way traces of every seed
    give (oracles.full_trace_probe), although probes walk forward only."""

    # Large loops leave this window and come back, so several seeds may lie
    # on one loop.
    WINDOW = Rect.centered((0.0, 0.0), 1.5 * TWO_PI)

    def assert_states_match(self, s, budget, levels):
        field = ChunkedField(s, budget.cell_size)
        probe = _IntervalProbe(field, self.WINDOW, budget)
        lines = []
        states = Counter()
        for level in levels:
            state, traced = oracles.full_trace_probe(s, level, self.WINDOW, budget, field)
            assert probe.state(level) == state, level
            states[state] += 1
            lines += traced
        return states, lines

    @pytest.mark.parametrize("family, opens", [
        (single_harmonic_sum(delta=0.3, alpha=0.7), True),
        (two_layer_sum(delta=0.3, alpha=0.7), False),
        (hexagonal_pair(0.3), False),
    ], ids=["single_harmonic_sum", "two_layer_sum", "hexagonal_pair"])
    def test_states_match_full_traces(self, family, opens):
        budget = TraceBudget.for_potential(family, length_periods=10.0)
        scale = 1.01 * family.value_scale()
        rng = np.random.default_rng(8)
        field = ChunkedField(family, budget.cell_size)
        nudged = float(field.corner(5, 3))  # a grid value: the residual nudge fires
        levels = [
            *np.linspace(-scale, scale, 9).tolist(),  # energy_interval's coarse scan
            *rng.uniform(-0.5 * scale, 0.5 * scale, 12).tolist(),
            nudged,
        ]
        states, lines = self.assert_states_match(family, budget, levels)
        assert states["below"] and states["above"], states
        assert bool(states["open"]) == opens, states
        assert any(line.is_closed for line in lines)
        assert any(line.jitter_scale > 0 for line in lines if line.level == nudged)

    def test_states_match_full_traces_under_a_cell_cap(self):
        s = single_harmonic_sum(delta=0.3, alpha=0.7)
        base = TraceBudget.for_potential(s, length_periods=10.0)
        # Probes scale the cap to 41 cells: small loops close, longer lines
        # stop on the cap.
        capped = TraceBudget(base.cell_size, base.max_arc_length, 10)
        levels = np.linspace(-1.5, 1.5, 13).tolist()
        states, lines = self.assert_states_match(s, capped, levels)
        field = ChunkedField(s, capped.cell_size)
        deep = capped.scaled(CLASSIFY_DEPTH)
        assert {forward_walk(field, line.seed, line.level, deep)[3]
                for line in lines} == {"closed", "cells"}
        assert states["open"] and states["below"] and states["above"], states

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           fracs=st.lists(st.floats(-0.6, 0.6), min_size=1, max_size=4))
    def test_states_match_full_traces_on_random_families(self, seed, fracs):
        s = random_superposition(np.random.default_rng(seed))
        budget = TraceBudget.for_potential(s, length_periods=6.0)
        window = Rect.centered((0.0, 0.0), 1.5 * s.longest_period())
        field = ChunkedField(s, budget.cell_size)
        probe = _IntervalProbe(field, window, budget)
        # The last level is a grid value: the residual nudge fires.
        levels = [f * s.value_scale() for f in fracs] + [float(field.corner(3, -2))]
        for level in levels:
            assert probe.state(level) == oracles.full_trace_probe(
                s, level, window, budget, field)[0], level

    def test_every_seed_a_probe_starts_is_walked_once(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(_Walker, "walk", counted("walks", _Walker.walk))
        monkeypatch.setattr(tracer, "_walk_forward", counted("seeds", tracer._walk_forward))
        s = single_harmonic_sum(delta=0.3, alpha=0.7)
        budget = TraceBudget.for_potential(s, length_periods=10.0)
        res = energy_interval(s, self.WINDOW, budget, -1.0, 1.0, tol_eps=5e-3)
        # Open levels were probed, so some probe traces were open.
        assert res.found and not res.degenerate
        assert calls["seeds"] > 0
        assert calls["walks"] == calls["seeds"]

    def test_states_match_full_traces_far_from_the_origin(self):
        # Past 2**19 cells a crossing may round onto a grid corner.
        s = single_harmonic_sum(delta=0.3, alpha=0.7)
        budget = TraceBudget.for_potential(s, length_periods=10.0)
        far = 1.5 * 2**19 * budget.cell_size
        levels = np.linspace(-1.0, 1.0, 9).tolist()
        for centre in ((0.0, 0.0), (-far, 0.0), (0.0, far)):
            window = Rect.centered(centre, 1.5 * TWO_PI)
            field = ChunkedField(s, budget.cell_size)
            probe = _IntervalProbe(field, window, budget)
            states = [probe.state(level) for level in levels]
            assert states == [oracles.full_trace_probe(s, level, window, budget, field)[0]
                              for level in levels]


class TestSharedField:
    """Every entry point that takes a field reads its grid from it, so the
    field must be one built for the same potential object and cell size.
    Read in place of the README potential's own field at 10 periods, one of
    the potential at alpha = 0.9 would move the open-line interval over
    +-1.01 * value_scale() from [-0.2203, 0.1982] to [-0.1988, 0.1823],
    turn the first open line at its midpoint from Regular (1, 1, -1, 0)
    into Regular (0, 1, 1, -1), and put trace vertices up to 0.6 off the
    level."""

    S = single_harmonic_sum(delta=0.3, alpha=0.7)
    BUDGET = TraceBudget.for_potential(S, length_periods=10.0)
    WINDOW = Rect.centered((0.0, 0.0), 4.0 * TWO_PI)
    LEVEL = 0.05

    def call(self, entry, field):
        s, budget, window, level = self.S, self.BUDGET, self.WINDOW, self.LEVEL
        if entry == "find_seeds":
            return find_seeds(s, level, window, budget.cell_size, field)
        if entry == "energy_interval":
            scale = 1.01 * s.value_scale()
            return energy_interval(s, window, budget, -scale, scale, 1e-3, field)
        if entry == "classify_first_open":
            return classify_first_open(s, level, window, budget, field=field)
        seed = find_seeds(s, level, window, budget.cell_size)[0]
        return trace_level_line(s, seed, level, budget, field=field)

    ENTRIES = ["find_seeds", "trace_level_line", "energy_interval",
               "classify_first_open"]

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_field_of_another_potential_refused(self, entry):
        other = single_harmonic_sum(delta=0.3, alpha=0.9)
        with pytest.raises(ValueError, match="another potential"):
            self.call(entry, ChunkedField(other, self.BUDGET.cell_size))

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_field_of_another_cell_size_refused(self, entry):
        with pytest.raises(ValueError, match="cell size"):
            self.call(entry, ChunkedField(self.S, self.BUDGET.cell_size / 2))

    @pytest.mark.parametrize("h, error", [(S.shortest_period() / 4, "too coarse"),
                                          (0.0, "must be positive"),
                                          (math.nan, "must be positive")])
    def test_field_cell_size_checked(self, h, error):
        with pytest.raises(BudgetError, match=error):
            ChunkedField(self.S, h)
        with pytest.raises(BudgetError, match=error):
            find_seeds(self.S, self.LEVEL, self.WINDOW, h)


class TestEnergyInterval:
    def test_unperturbed_interval_degenerates_to_critical_level(self, two_cos):
        budget = TraceBudget.for_potential(two_cos, length_periods=12.0)
        window = Rect.centered((0.0, 0.0), 2 * TWO_PI)
        res = energy_interval(two_cos, window, budget, -0.6, 0.6,
                              tol_eps=1e-3)
        assert res.found
        assert res.degenerate
        assert res.hi - res.lo <= 2e-3
        assert abs(res.lo) <= 2e-3

    def test_perturbed_interval_has_width(self):
        s = single_harmonic_sum(delta=0.3, alpha=0.7)
        budget = TraceBudget.for_potential(s, length_periods=15.0)
        window = Rect.centered((0.0, 0.0), 3 * TWO_PI)
        res = energy_interval(s, window, budget, -1.0, 1.0, tol_eps=5e-3)
        assert res.found
        assert not res.degenerate
        assert res.hi - res.lo > 0.05
        assert res.lo < 0.0 < res.hi
        assert res.n_probes > 0

    def test_shared_field_gives_the_same_interval(self):
        s = single_harmonic_sum(delta=0.3, alpha=0.7)
        budget = TraceBudget.for_potential(s, length_periods=15.0)
        window = Rect.centered((0.0, 0.0), 3 * TWO_PI)
        field = ChunkedField(s, budget.cell_size)
        own = energy_interval(s, window, budget, -1.0, 1.0, tol_eps=5e-3)
        shared = energy_interval(s, window, budget, -1.0, 1.0, 5e-3, field)
        assert shared == own
        filled = field.cells_evaluated
        assert filled > 0
        # Chunk values do not depend on the level: a second search reuses them.
        assert energy_interval(s, window, budget, -1.0, 1.0, 5e-3, field) == own
        assert field.cells_evaluated == filled

    def test_bracket_below_every_level_finds_nothing(self, two_cos, small_window,
                                                     small_budget):
        # Every coarse level lies below the window's minimum: no level is
        # open and no below/above transition brackets one.
        scale = two_cos.value_scale()
        res = energy_interval(two_cos, small_window, small_budget, -3 * scale, -2 * scale,
                              tol_eps=1e-3)
        assert res == EnergyInterval(0.0, 0.0, False, False, 9)

    def test_bad_arguments(self, two_cos, small_window, small_budget):
        with pytest.raises(ValueError):
            energy_interval(two_cos, small_window, small_budget, 1.0, -1.0,
                            tol_eps=1e-3)
        with pytest.raises(ValueError):
            energy_interval(two_cos, small_window, small_budget, -1.0, 1.0,
                            tol_eps=0.0)

    @pytest.mark.parametrize("eps_min, eps_max, error", [
        (-1.0, math.inf, "eps_max must be finite, got inf"),
        (math.nan, 1.0, "eps_min must be finite, got nan"),
        (-math.inf, 1.0, "eps_min must be finite, got -inf"),
        (-1e308, 1e308, "eps_max - eps_min must be finite, got inf"),
    ])
    def test_bracket_must_be_finite(self, two_cos, small_window, small_budget,
                                    eps_min, eps_max, error):
        with pytest.raises(ValueError, match=error):
            energy_interval(two_cos, small_window, small_budget, eps_min, eps_max, 1e-3)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_tolerance_must_be_positive_and_finite(self, two_cos, small_window,
                                                   small_budget, tol):
        with pytest.raises(ValueError, match="tol_eps must be positive and finite"):
            energy_interval(two_cos, small_window, small_budget, -1.0, 1.0, tol_eps=tol)


def _ladder_interval(s, length_periods):
    """classify_potential's interval search at h = period/16, a window of
    four periods and tol_eps 1e-3, with the arc budget L in periods."""
    budget = TraceBudget.for_potential(s, length_periods)
    window = Rect.centered((0.0, 0.0), 4.0 * s.longest_period())
    scale = 1.01 * s.value_scale()
    return energy_interval(s, window, budget, -scale, scale, 1e-3)


class TestBudgetLadder:
    """The interval depends on the arc budget L: a level open at a longer
    budget is open at a shorter one, so the intervals nest as L grows."""

    def test_longer_budget_interval_nests_inside_shorter(self):
        s = single_harmonic_sum(0.3, 0.7)
        short, long = _ladder_interval(s, 60.0), _ladder_interval(s, 240.0)
        assert short.found and long.found and not long.degenerate
        assert short.lo - 1e-3 <= long.lo < long.hi <= short.hi + 1e-3

    def test_equal_layer_family_collapses_at_960_periods(self):
        iv = _ladder_interval(two_layer_sum(0.05, 0.7, (0.1, -0.2)), 960.0)
        assert iv.found and iv.degenerate


class TestFirstLayerStore:
    """Fields built inside classify_family take V's chunk values from one
    store per process; every other field evaluates both layers."""

    V, U = three_frequency_layers(0.3)
    H = TWO_PI / 16
    CHUNKS = [(0, 0), (-1, 0), (2, -3), (-2, -1)]

    @pytest.fixture(autouse=True)
    def store(self, monkeypatch):
        if _walk.kernel() is None:
            pytest.skip("only compiled fills use the store")
        store = {}
        monkeypatch.setattr(tracer, "_FIRST_LAYER_STORE", store)
        return store

    @staticmethod
    def chunk_bytes(s, h, chunks, shared):
        token = tracer._SHARE_FIRST_LAYER.set(shared)
        try:
            field = ChunkedField(s, h)
        finally:
            tracer._SHARE_FIRST_LAYER.reset(token)
        return [field._chunk(ci, cj).tobytes() for ci, cj in chunks]

    @pytest.mark.parametrize("combiner", [None, WeightedSum(0.5, 2.0), Product()],
                             ids=["Sum", "WeightedSum", "Product"])
    def test_stored_chunks_equal_evaluated_ones_bit_for_bit(self, store, combiner):
        extra = () if combiner is None else (combiner,)
        for alpha in (0.3, 0.7):
            for shift in ((0.0, 0.0), (1.3, -0.4)):
                s = SuperpositionPotential(self.V, self.U, EuclideanTransform(alpha, shift),
                                           *extra)
                stored = self.chunk_bytes(s, self.H, self.CHUNKS, True)
                assert stored == self.chunk_bytes(s, self.H, self.CHUNKS, False)
        # Every angle and shift read the first one's V chunks.
        assert [held.count for held in store.values()] == [len(self.CHUNKS)]

    def test_a_layer_that_differs_in_one_amplitude_misses(self, store):
        terms = list(self.V.terms)
        terms[1] = FourierTerm(terms[1].n1, terms[1].n2, np.nextafter(terms[1].amplitude, 2.0))
        other = PeriodicPotential(self.V.lattice, terms)
        chunks = self.CHUNKS[:1]
        s = SuperpositionPotential(self.V, self.U, EuclideanTransform(0.7))
        near = SuperpositionPotential(other, self.U, EuclideanTransform(0.7))
        first = self.chunk_bytes(s, self.H, chunks, True)
        (held,) = store.values()
        assert first != self.chunk_bytes(near, self.H, chunks, True)
        assert self.chunk_bytes(near, self.H, chunks, True) == self.chunk_bytes(
            near, self.H, chunks, False)
        # The store holds one first layer: near's replaced s's.
        (near_held,) = store.values()
        assert near_held is not held and near_held.count == 1
        # So does one at another cell size.
        assert self.chunk_bytes(s, self.H / 2, chunks, True) == self.chunk_bytes(
            s, self.H / 2, chunks, False)
        assert near_held not in store.values()

    def test_the_store_never_holds_more_than_its_cap(self, store, monkeypatch):
        monkeypatch.setattr(tracer, "_FIRST_LAYER_CAP", 3)
        s = SuperpositionPotential(self.V, self.U, EuclideanTransform(0.7))
        chunks = [(ci, 0) for ci in range(-3, 3)]
        token = tracer._SHARE_FIRST_LAYER.set(True)
        try:
            field = ChunkedField(s, self.H)
            (held,) = store.values()
            for ci, cj in chunks:
                field._chunk(ci, cj)
                assert held.count <= 3
        finally:
            tracer._SHARE_FIRST_LAYER.reset(token)
        assert held.count == 3
        assert self.chunk_bytes(s, self.H, chunks, True) == self.chunk_bytes(
            s, self.H, chunks, False)
        assert held.count == 3 and list(store.values()) == [held]

    def test_only_classify_family_fills_the_store(self, store):
        s = single_harmonic_sum(delta=0.3, alpha=0.7)
        budget = TraceBudget.for_potential(s, length_periods=10.0)
        window = Rect.centered((0.0, 0.0), 2.0 * TWO_PI)
        seed = find_seeds(s, 0.05, window, budget.cell_size)[0]
        trace_level_line(s, seed, 0.05, budget)
        classify_potential(s, window, budget, tol_eps=1e-2)
        assert store == {}
        family = classify_family(self.V, self.U, 0.7, [(0.0, 0.0)], window, budget,
                                 tol_eps=1e-2)
        assert family.verdict == "regular"
        assert store and not tracer._SHARE_FIRST_LAYER.get()
