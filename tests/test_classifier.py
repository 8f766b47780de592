import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moirelines import classifier
from moirelines.classifier import (
    Chaotic,
    Closed,
    LineFitError,
    MAX_SEEDS,
    Quadruple,
    Regular,
    Undetermined,
    ZeroAnnihilatorError,
    _shell,
    _classify_seed,
    _diameter,
    classification_to_dict,
    classify,
    classify_family,
    classify_first_open,
    direction_from_quadruple,
    fit_direction,
    quadruple_basis,
    recover_quadruple,
    strip_width,
)
from moirelines.geometry import EuclideanTransform, Rect
from moirelines.output import stable_json
from moirelines.potential import (
    FourierTerm,
    PeriodicPotential,
    SuperpositionPotential,
    square_lattice,
    two_cosine_potential,
)
from moirelines.tracer import (
    CLASSIFY_DEPTH,
    ChunkedField,
    LineStatus,
    TraceBudget,
    find_seeds,
    trace_level_line,
)

import oracles
from families import (
    random_lattice,
    random_quadruple,
    random_superposition,
    single_harmonic_sum,
    two_layer_sum,
)

TWO_PI = 2.0 * math.pi


class TestQuadruple:
    def test_valid(self):
        q = Quadruple(1, -1, 0, 0)
        assert q.as_tuple() == (1, -1, 0, 0)
        assert q.max_norm() == 1

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            Quadruple(2, -2, 0, 0)
        with pytest.raises(ValueError):
            Quadruple(0, 0, 0, 0)

    def test_rejects_wrong_leading_sign(self):
        with pytest.raises(ValueError):
            Quadruple(-1, 0, 0, 1)
        with pytest.raises(ValueError):
            Quadruple(0, -2, 1, 0)

    def test_normalized(self):
        assert Quadruple.normalized(-2, 0, 0, 2).as_tuple() == (1, 0, 0, -1)
        assert Quadruple.normalized(0, 3, -6, 0).as_tuple() == (0, 1, -2, 0)
        with pytest.raises(ValueError):
            Quadruple.normalized(0, 0, 0, 0)

    def test_random_normalized_is_constructible(self):
        rng = np.random.default_rng(401)
        for _ in range(50):
            q = random_quadruple(rng)
            assert Quadruple(*q.as_tuple()) == q


class TestQuadrupleBasis:
    def test_rows_are_both_reciprocals(self):
        rng = np.random.default_rng(402)
        for _ in range(20):
            lat_v, lat_u = random_lattice(rng), random_lattice(rng)
            rows = quadruple_basis(lat_v, lat_u)
            assert rows.shape == (4, 2)
            ov = oracles.cramer_reciprocal(tuple(lat_v.e1), tuple(lat_v.e2))
            ou = oracles.cramer_reciprocal(tuple(lat_u.e1), tuple(lat_u.e2))
            assert np.allclose(rows[:2], ov, atol=1e-12)
            assert np.allclose(rows[2:], ou, atol=1e-12)


def straight_noisy_line(make_polyline, angle=0.3, wiggle=0.1, n=400):
    t = np.linspace(0.0, 80.0, n)
    d = np.array([math.cos(angle), math.sin(angle)])
    normal = np.array([-d[1], d[0]])
    pts = t[:, None] * d + (wiggle * np.sin(t))[:, None] * normal
    return d, make_polyline(pts)


class TestDirectionFit:
    def test_recovers_axis_and_sign(self, make_polyline):
        d, line = straight_noisy_line(make_polyline)
        fit = fit_direction(line)
        assert float(fit.direction @ d) > 0.9999
        assert np.linalg.norm(fit.direction) == pytest.approx(1.0)

    def test_sign_follows_endpoint_displacement(self, make_polyline):
        d, line = straight_noisy_line(make_polyline)
        rev = make_polyline(line.points[::-1])
        fit = fit_direction(rev)
        assert float(fit.direction @ d) < -0.9999

    def test_residual_is_transverse_rms(self, make_polyline):
        # Transverse offset wiggle*sin(t) has RMS wiggle/sqrt(2).
        d, line = straight_noisy_line(make_polyline, wiggle=0.2)
        fit = fit_direction(line)
        assert fit.residual == pytest.approx(0.2 / math.sqrt(2), rel=0.05)

    def test_rejects_closed_and_short(self, make_polyline):
        from moirelines.tracer import LineStatus as LS
        _, line = straight_noisy_line(make_polyline)
        closed = make_polyline(line.points, status=LS.CLOSED)
        with pytest.raises(LineFitError):
            fit_direction(closed)
        short = make_polyline(line.points[:50])
        with pytest.raises(LineFitError):
            fit_direction(short)

    def test_strip_width_peak_to_peak(self, make_polyline):
        d, line = straight_noisy_line(make_polyline, wiggle=0.15)
        assert strip_width(line, d) == pytest.approx(0.3, rel=0.01)


class TestQuadrupleRecovery:
    def test_tiebreak_on_shared_annihilator_direction(self):
        # Identical unrotated square layers, diagonal direction: the
        # candidates (1,-1,0,0) and (0,0,1,-1) annihilate it equally well
        # and the norm cascade must settle on the first.
        lat = square_lattice(TWO_PI)
        diag = np.array([1.0, 1.0]) / math.sqrt(2.0)
        q = recover_quadruple(diag, lat, lat)
        assert q is not None
        assert q.as_tuple() == oracles.TIEBREAK_DIAGONAL_QUADRUPLE

    def test_round_trip_random(self):
        rng = np.random.default_rng(403)
        found = 0
        for _ in range(30):
            lat_v, lat_u = random_lattice(rng), random_lattice(rng)
            q = random_quadruple(rng, max_norm=4)
            try:
                d = direction_from_quadruple(q, lat_v, lat_u)
            except ZeroAnnihilatorError:
                continue
            got = recover_quadruple(d, lat_v, lat_u, bound=6)
            assert got is not None
            # Another quadruple may share the annihilator direction with a
            # smaller norm, but never a larger one.
            assert got.max_norm() <= q.max_norm()
            gq = got.as_tuple()
            basis = quadruple_basis(lat_v, lat_u)
            g = np.asarray(gq, dtype=float) @ basis
            assert abs(float(g @ d)) < 1e-9 * np.linalg.norm(g)
            if gq == q.as_tuple():
                found += 1
        assert found >= 25

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(404)
        for _ in range(15):
            lat_v, lat_u = random_lattice(rng), random_lattice(rng)
            q = random_quadruple(rng, max_norm=3)
            try:
                d = direction_from_quadruple(q, lat_v, lat_u)
            except ZeroAnnihilatorError:
                continue
            got = recover_quadruple(d, lat_v, lat_u, bound=5)
            basis = quadruple_basis(lat_v, lat_u)
            want = oracles.brute_quadruple(tuple(d), [tuple(r) for r in basis],
                                           bound=5, tol=1e-9)
            assert got is not None and want is not None
            assert got.as_tuple() == want

    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 6, 12])
    def test_matches_full_table_search(self, bound):
        # Random directions, with tol set to the exact |G . l| of some
        # candidate (which must then fall out), and quadruple directions at
        # the default tol.
        rng = np.random.default_rng(410 + bound)
        for _ in range(4 if bound == 12 else 8):
            lat_v, lat_u = random_lattice(rng), random_lattice(rng)
            theta = rng.uniform(0.0, TWO_PI)
            d = np.array([math.cos(theta), math.sin(theta)])
            dots = np.unique(oracles.full_table_dots(d, lat_v, lat_u, bound))
            cases = [(d, float(dots[k])) for k in (1, 2, 5, 40) if k < len(dots)]
            try:
                q = direction_from_quadruple(random_quadruple(rng, bound), lat_v, lat_u)
                cases.append((q, 1e-9))
            except ZeroAnnihilatorError:
                pass
            for direction, tol in cases:
                got = recover_quadruple(direction, lat_v, lat_u, bound=bound, tol=tol)
                want = oracles.full_table_quadruple(direction, lat_v, lat_u, bound, tol)
                assert (got and got.as_tuple()) == want

    def test_shell_is_built_once_per_max_norm(self):
        for k in (1, 2, 3):
            shell = _shell(k)
            assert shell.dtype == np.float64
            r = np.arange(-k, k + 1)
            grid = np.stack(np.meshgrid(r, r, r, r, indexing="ij"), axis=-1).reshape(-1, 4)
            want = grid[(np.abs(grid).max(axis=1) == k) & (grid[:, 0] >= 0)]
            assert sorted(map(tuple, shell.astype(int).tolist())) == sorted(
                map(tuple, want.tolist()))
            # No shell is one row, whose product could round differently.
            assert len(shell) == len(want) > 1

    def test_search_at_default_bound_peaks_under_4_mb(self):
        # The full 25**4-row table peaked at 23.8 MB.
        lat, other = square_lattice(TWO_PI), square_lattice(3.0)
        d = direction_from_quadruple(Quadruple(1, 1, -1, 0), lat, other)
        tracemalloc.start()
        try:
            q = recover_quadruple(d, lat, other)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q is not None
        assert peak < 4 * 2**20

    def test_a_miss_at_the_default_bound_holds_no_shells(self):
        # In a fresh interpreter, so that no earlier search built a shell.
        # Searching every shell up to the bound builds 6.2 MB of them.
        code = (
            "import math, tracemalloc\n"
            "from moirelines.classifier import recover_quadruple\n"
            "from moirelines.geometry import Lattice2\n"
            "lat_v = Lattice2((1.0, 0.3), (-0.2, 1.7))\n"
            "lat_u = Lattice2((1.3, -0.4), (0.5, 1.1))\n"
            "tracemalloc.start()\n"
            "q = recover_quadruple((math.cos(0.7), math.sin(0.7)), lat_v, lat_u)\n"
            "print(q, tracemalloc.get_traced_memory()[0])\n"
        )
        src = str(Path(classifier.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src}).stdout.split()
        assert out[0] == "None"
        assert int(out[1]) < 2**19

    @pytest.mark.parametrize("kwargs, message", [
        ({"tol": math.nan}, "tol must be positive and finite, got nan"),
        ({"tol": math.inf}, "tol must be positive and finite, got inf"),
        ({"tol": 0.0}, "tol must be positive and finite, got 0.0"),
        ({"tol": -1.0}, "tol must be positive and finite, got -1.0"),
        ({"bound": 0}, "bound must be a positive integer, got 0"),
        ({"bound": -3}, "bound must be a positive integer, got -3"),
        ({"bound": 2.5}, "bound must be a positive integer, got 2.5"),
        ({"direction": (0.0, 0.0)}, "direction must be nonzero with a finite norm, got (0.0, 0.0)"),
        ({"direction": (math.nan, 1.0)}, "direction must be nonzero with a finite norm, got (nan, 1.0)"),
        ({"direction": (1.0, -math.inf)}, "direction must be nonzero with a finite norm, got (1.0, -inf)"),
    ], ids=["tol-nan", "tol-inf", "tol-0", "tol-neg", "bound-0", "bound-neg", "bound-frac",
            "direction-0", "direction-nan", "direction-inf"])
    def test_invalid_input_raises(self, kwargs, message):
        lat = square_lattice(TWO_PI)
        args = {"direction": (1.0, 1.0)} | kwargs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                recover_quadruple(args.pop("direction"), lat, lat, **args)

    def test_generic_direction_yields_nothing(self):
        rng = np.random.default_rng(405)
        lat_v, lat_u = random_lattice(rng), random_lattice(rng)
        theta = 0.8234517
        d = np.array([math.cos(theta), math.sin(theta)])
        assert recover_quadruple(d, lat_v, lat_u, bound=3) is None

    def test_zero_annihilator_rejected(self):
        lat = square_lattice(TWO_PI)
        with pytest.raises(ZeroAnnihilatorError):
            direction_from_quadruple(Quadruple(1, 0, -1, 0), lat, lat)

    def test_direction_is_unit_and_orthogonal(self):
        lat = square_lattice(TWO_PI)
        other = square_lattice(3.0)
        q = Quadruple(1, -1, 0, 0)
        d = direction_from_quadruple(q, lat, other)
        assert np.linalg.norm(d) == pytest.approx(1.0)
        basis = quadruple_basis(lat, other)
        g = np.array([1.0, -1.0, 0.0, 0.0]) @ basis
        assert abs(float(g @ d)) < 1e-12


def _collinear(rng, n):
    o = rng.uniform(-5, 5, 2)
    d = rng.uniform(-1, 1, 2)
    return o + np.sort(rng.uniform(0, 3, n))[:, None] * d


def _assert_diameter(points):
    # The hull diameter agrees with the max pairwise distance to a few ulp.
    want = oracles.brute_diameter(points)
    assert abs(_diameter(points) - want) <= 4 * np.spacing(want)


class TestDiameter:

    @pytest.mark.parametrize("points", [
        [[1.5, -2.0]],
        [[1.5, -2.0], [1.5, -2.0], [1.5, -2.0]],
        [[0.0, 0.0], [3.0, 4.0]],
        [[0.0, 0.0], [3.0, 4.0], [0.0, 0.0], [3.0, 4.0]],
        [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
        [[2.0, 1.0], [0.0, 1.0], [1.0, 1.0], [-4.0, 1.0]],
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5], [1.0, 0.0]],
    ], ids=["one", "repeated", "two", "two-repeated", "diagonal", "horizontal",
            "square"])
    def test_small_and_degenerate_sets(self, points):
        _assert_diameter(np.array(points))

    def test_random_and_near_collinear_sets(self):
        rng = np.random.default_rng(17)
        for k in range(200):
            n = int(rng.integers(3, 40))
            if k % 2:
                pts = _collinear(rng, n)
            else:
                pts = rng.normal(size=(n, 2)) * rng.uniform(0.1, 10, 2)
            _assert_diameter(pts)

    def test_traced_loops(self, two_cos):
        budget = TraceBudget.for_potential(two_cos, length_periods=20.0)
        window = Rect.centered((0.0, 0.0), 9.0)
        loops = 0
        for level in (0.5, -0.5, 1.5):
            for seed in find_seeds(two_cos, level, window, budget.cell_size):
                line = trace_level_line(two_cos, seed, level, budget)
                assert line.is_closed
                _assert_diameter(line.points)
                loops += 1
        assert loops >= 3


class TestClassify:
    def test_closed_loop(self, two_cos):
        budget = TraceBudget.for_potential(two_cos, length_periods=20.0)
        seeds = find_seeds(two_cos, 0.5, Rect.centered((0.0, 0.0), 5.0),
                           budget.cell_size)
        line = trace_level_line(two_cos, seeds[0], 0.5, budget)
        c = classify(two_cos, line, budget)
        assert isinstance(c, Closed)
        assert 2.5 < c.diameter < 4.5

    def test_masquerading_loop_closes_on_retrace(self, two_cos):
        # Arc budget below the loop perimeter leaves the trace open; the
        # doubled retrace inside classify must close it.
        h = TWO_PI / 16
        starved = TraceBudget(h, 8.0, 100000)
        seeds = find_seeds(two_cos, 0.5, Rect.centered((0.0, 0.0), 5.0), h)
        line = trace_level_line(two_cos, seeds[0], 0.5, starved)
        assert line.status is LineStatus.OPEN_BUDGET_EXHAUSTED
        c = classify(two_cos, line, starved)
        assert isinstance(c, Closed)

    def test_regular_line_in_three_frequency_field(self):
        s = single_harmonic_sum(delta=0.3, alpha=0.7)
        budget = TraceBudget.for_potential(s, length_periods=40.0)
        window = Rect.centered((0.0, 0.0), 4 * TWO_PI)
        hit = classify_first_open(s, 0.0, window, budget)
        assert hit is not None
        line, c = hit
        assert isinstance(c, Regular)
        assert c.quadruple.as_tuple() == oracles.THREEQ_QUADRUPLE
        assert len(c.widths_by_length) == 3
        arcs = [a for a, _ in c.widths_by_length]
        assert arcs[0] < arcs[1] < arcs[2]
        widths = [w for _, w in c.widths_by_length]
        assert widths[2] <= widths[0] * 1.15
        # The fitted direction must be annihilated by the recovered sum.
        basis = quadruple_basis(s.v.lattice, s.rotated_u_lattice())
        g = np.asarray(c.quadruple.as_tuple(), dtype=float) @ basis
        assert abs(float(g @ c.direction)) < 1e-3 * np.linalg.norm(g)

    def test_chaotic_line_in_four_frequency_field(self):
        s = two_layer_sum(delta=0.05, alpha=0.7)
        budget = TraceBudget.for_potential(s, length_periods=60.0)
        window = Rect.centered((0.0, 0.0), 4 * TWO_PI)
        hit = classify_first_open(s, 0.0, window, budget)
        assert hit is not None
        _, c = hit
        assert isinstance(c, Chaotic)
        widths = [w for _, w in c.widths_by_length]
        assert widths[2] >= 1.8 * widths[0]

    def test_first_open_line(self):
        s = single_harmonic_sum(delta=0.3, alpha=0.7)
        budget = TraceBudget.for_potential(s, length_periods=20.0)
        window = Rect.centered((0.0, 0.0), 3 * TWO_PI)
        line, c = classify_first_open(s, 0.0, window, budget)
        assert line.status is LineStatus.OPEN_BUDGET_EXHAUSTED
        assert not isinstance(c, Closed)
        # The line is its seed's trace at the budget, cut from the 4x walk.
        direct = trace_level_line(s, line.seed, 0.0, budget)
        assert line.points.tobytes() == direct.points.tobytes()

    def test_first_open_all_loops_returns_first_loop(self, two_cos):
        budget = TraceBudget.for_potential(two_cos, length_periods=20.0)
        window = Rect.centered((0.0, 0.0), 3 * TWO_PI)
        line, c = classify_first_open(two_cos, 0.5, window, budget)
        assert isinstance(c, Closed)
        # The loop is the first seed's trace at four times the budget.
        seed = find_seeds(two_cos, 0.5, window, budget.cell_size)[0]
        loop = trace_level_line(two_cos, seed, 0.5, budget.scaled(4.0))
        assert loop.is_closed
        assert line.points.tobytes() == loop.points.tobytes()
        assert c == classify(two_cos, loop, budget)
        assert c.diameter > 0

    def test_first_open_no_seed_returns_none(self, two_cos, small_window,
                                             small_budget):
        # |cos x + cos y| <= 2: no line exists at level 2.5.
        assert classify_first_open(two_cos, 2.5, small_window, small_budget) is None


def _trace_key(line):
    return (line.points.tobytes(), line.arc_length, line.status, line.jitter_scale)


class TestClassifySeed:
    """Each seed is traced at CLASSIFY_DEPTH times the budget, and at one
    and two budgets when that trace is open; the line and classification
    it yields equal what classify gives the seed's trace at the budget."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), frac=st.floats(-0.6, 0.6))
    def test_one_walk_matches_direct_traces_on_random_families(self, seed, frac):
        s = random_superposition(np.random.default_rng(seed))
        budget = TraceBudget.for_potential(s, length_periods=6.0)
        window = Rect.centered((0.0, 0.0), 1.5 * s.longest_period())
        level = frac * s.value_scale()
        field = ChunkedField(s, budget.cell_size)
        first_loop = first_open = None
        for p in find_seeds(s, level, window, budget.cell_size, field)[:MAX_SEEDS]:
            line, c = _classify_seed(s, field, p, level, budget)
            if c is None:
                loop = trace_level_line(s, p, level, budget.scaled(CLASSIFY_DEPTH),
                                        field=field)
                assert _trace_key(line) == _trace_key(loop)
                direct = trace_level_line(s, p, level, budget, field=field)
                assert classify(s, direct, budget) == Closed(_diameter(loop.points))
                if first_loop is None:
                    first_loop = line
                continue
            direct = trace_level_line(s, p, level, budget, field=field)
            assert _trace_key(line) == _trace_key(direct)
            assert classification_to_dict(classify(s, direct, budget)) == (
                classification_to_dict(c))
            first_open = line, c
            break
        hit = classify_first_open(s, level, window, budget, field=field)
        if first_open is not None:
            line, c = first_open
        elif first_loop is not None:
            line, c = first_loop, Closed(_diameter(first_loop.points))
        else:
            assert hit is None
            return
        assert _trace_key(hit[0]) == _trace_key(line)
        assert classification_to_dict(hit[1]) == classification_to_dict(c)

    @staticmethod
    def _first_open(length_periods):
        s = single_harmonic_sum(delta=0.3, alpha=0.7)
        budget = TraceBudget.for_potential(s, length_periods=length_periods)
        window = Rect.centered((0.0, 0.0), 1.5 * s.longest_period())
        return classify_first_open(s, 0.0, window, budget)

    @pytest.mark.parametrize("length_periods, vertices", [(1.0, 23), (2.0, 43), (3.0, 64)])
    def test_short_line_fails_the_direction_fit(self, length_periods, vertices):
        _, c = self._first_open(length_periods)
        assert c == Undetermined(
            reason=f"direction fit failed: need at least 100 vertices, got {vertices}")

    def test_saturated_width_without_a_quadruple_is_undetermined(self, monkeypatch):
        monkeypatch.setattr(classifier, "recover_quadruple", lambda *a, **k: None)
        _, c = self._first_open(10.0)
        assert isinstance(c, Undetermined)
        assert c.reason == "strip width saturated but no quadruple within |m|<=12"
        assert len(c.widths_by_length) == 3


class TestSerialization:
    def test_closed_dict(self):
        d = classification_to_dict(Closed(diameter=3.25), {"level": 0.5})
        assert d["status"] == "closed"
        assert d["diameter"] == 3.25
        assert d["quadruple"] is None
        assert d["parameters"] == {"level": 0.5}

    def test_regular_dict(self):
        c = Regular(
            quadruple=Quadruple(1, 1, -1, 0),
            direction=np.array([0.6, 0.8]),
            strip_width=2.5,
            residual=0.01,
            widths_by_length=((10.0, 2.0), (20.0, 2.2), (40.0, 2.3)),
        )
        d = classification_to_dict(c)
        assert d["status"] == "regular"
        assert d["quadruple"] == [1, 1, -1, 0]
        assert d["direction"] == [0.6, 0.8]
        assert d["widths_by_length"] == [[10.0, 2.0], [20.0, 2.2], [40.0, 2.3]]

    def test_chaotic_and_undetermined_dict(self):
        c = classification_to_dict(Chaotic(widths_by_length=((1.0, 2.0),)))
        assert c["status"] == "chaotic"
        u = classification_to_dict(Undetermined(reason="widths between bands"))
        assert u["status"] == "undetermined"
        assert u["reason"] == "widths between bands"

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            classification_to_dict("closed")


def _three_frequency_family():
    """The README layers with the shift-family pin's budget and window."""
    v = two_cosine_potential(TWO_PI)
    u = PeriodicPotential(square_lattice(TWO_PI), (FourierTerm(1, 0, 0.3),))
    budget = TraceBudget(TWO_PI / 16, 30.0 * TWO_PI, int(8 * 30 * 16) + 64)
    window = Rect.centered((0.0, 0.0), 3 * TWO_PI)
    return v, u, window, budget


def _family_record(family):
    """Every field of a FamilyVerdict as JSON text, for exact comparison."""
    return stable_json({
        "shifts": [list(map(float, a)) for a in family.shifts],
        "intervals": [None if iv is None else vars(iv) for iv in family.intervals],
        "levels": list(family.levels),
        "classifications": [classification_to_dict(c) for c in family.classifications],
        "quadruple": family.quadruple and family.quadruple.as_tuple(),
        "mean_width": family.mean_width,
        "verdict": family.verdict,
        "commensurate": family.commensurate,
    })


class TestShiftFamily:
    SHIFTS = [(0.0, 0.0), (2.0, 1.0)]

    def test_commensurate_pair_flagged(self):
        v = two_cosine_potential(1.0)
        probe = SuperpositionPotential(v, v, EuclideanTransform(oracles.COMMENSURATE_ALPHA))
        window = Rect.centered((0.0, 0.0), 4.0 * probe.longest_period())
        report = classify_family(v, v, oracles.COMMENSURATE_ALPHA,
                                 [(0.0, 0.0), (0.3, 0.3)], window,
                                 TraceBudget.for_potential(probe))
        assert report.commensurate
        assert len(report.classifications) == 2
        assert report.verdict != "regular"
        assert report.quadruple is None

    def test_three_frequency_family_consistent(self):
        v, u, window, budget = _three_frequency_family()
        tol_eps = 1e-2
        report = classify_family(
            v, u, 0.7, self.SHIFTS, window, budget,
            tol_eps=tol_eps, search_each_shift=True,
        )
        assert not report.commensurate
        assert len(report.classifications) == 2
        assert all(isinstance(c, Regular) for c in report.classifications)
        assert report.verdict == "regular"
        assert report.quadruple.as_tuple() == oracles.THREEQ_QUADRUPLE
        for interval in report.intervals:
            assert interval.found and not interval.degenerate
        los = [iv.lo for iv in report.intervals]
        his = [iv.hi for iv in report.intervals]
        assert max(los) - min(los) <= 2.0 * tol_eps
        assert max(his) - min(his) <= 2.0 * tol_eps
        for level, interval in zip(report.levels, report.intervals):
            assert interval.lo < level < interval.hi

    def test_fixed_level_is_the_same_in_both_modes(self):
        v, u, window, budget = _three_frequency_family()
        records = [
            _family_record(classify_family(
                v, u, 0.7, self.SHIFTS, window, budget, level=0.0,
                search_each_shift=each,
            ))
            for each in (False, True)
        ]
        assert records[0] == records[1]
        assert '"verdict": "regular"' in records[0]

    def test_shift_zero_fixes_the_level_of_the_others(self):
        v, u, window, budget = _three_frequency_family()
        report = classify_family(v, u, 0.7, self.SHIFTS, window, budget, tol_eps=1e-2)
        assert report.intervals[0].found
        assert report.intervals[1:] == (None,)
        assert report.levels[0] == 0.5 * (report.intervals[0].lo + report.intervals[0].hi)
        assert all(level == report.levels[0] for level in report.levels)

    def test_shift_with_no_open_line_is_undetermined(self):
        # At level 0.9 every line of this family is a loop.
        v, u, window, budget = _three_frequency_family()
        report = classify_family(v, u, 0.7, self.SHIFTS, window, budget, level=0.9)
        assert report.verdict == "undetermined"
        assert [c.reason for c in report.classifications] == [
            "no open line found at level 0.9"
        ] * 2

    def test_no_shifts_raises(self):
        v, u, window, budget = _three_frequency_family()
        with pytest.raises(ValueError, match="at least one shift"):
            classify_family(v, u, 0.7, [], window, budget)
