import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moirelines
from moirelines.classifier import Chaotic, FamilyVerdict, Quadruple, Regular
from moirelines.output import stable_json
from moirelines.potential import two_cosine_potential
from moirelines.sweep import (
    SWEEP_CSV_HEADER,
    ZONES_CSV_HEADER,
    SweepConfig,
    SweepResult,
    detect_zones,
    make_point_fn,
    result_to_dict,
    sample_shifts,
    sample_to_dict,
    sweep_angle,
    sweep_to_csv,
    zones_to_csv,
    zones_to_svg,
)
from moirelines import sweep as sweep_module
from moirelines.tracer import EnergyInterval

import oracles
from families import three_frequency_layers

TWO_PI = 2.0 * math.pi

Q_A = Quadruple(1, 0, 0, -1)
Q_B = Quadruple(0, 1, -1, 0)


def mk_sample(alpha, verdict, quad=None, width=None):
    interval = None
    if verdict in ("regular", "chaotic", "undetermined"):
        interval = EnergyInterval(-0.1, 0.1, True, False, 5)
    return FamilyVerdict(
        alpha=alpha,
        shifts=(),
        intervals=(interval,),
        levels=(0.0 if interval else None,),
        classifications=(),
        quadruple=quad,
        mean_width=width,
        verdict=verdict,
        commensurate=False,
    )


def synthetic_result():
    cfg = SweepConfig(0.0, 1.0, 11, shifts_per_alpha=1, seed=5)
    verdict_by_alpha = {}
    for k in range(11):
        a = k / 10.0
        if k <= 2:
            verdict_by_alpha[a] = ("chaotic", None, None)
        elif k <= 6:
            verdict_by_alpha[a] = ("regular", Q_A, 2.0 + 0.1 * k)
        elif k == 7:
            verdict_by_alpha[a] = ("undetermined", None, None)
        else:
            verdict_by_alpha[a] = ("regular", Q_B, 1.5)
    samples = tuple(
        mk_sample(a, v, q, w) for a, (v, q, w) in sorted(verdict_by_alpha.items())
    )
    return SweepResult(config=cfg, samples=samples)


LEAN = dict(
    shifts_per_alpha=1,
    seed=3,
    tol_eps=1e-2,
    length_periods=30.0,
    window_periods=3.0,
)


class TestSweepConfig:
    def test_alphas_grid(self):
        cfg = SweepConfig(0.2, 0.8, 4)
        assert np.allclose(cfg.alphas(), [0.2, 0.4, 0.6, 0.8])

    def test_to_params_is_plain_dict(self):
        cfg = SweepConfig(0.2, 0.8, 4, level=0.1)
        params = cfg.to_params()
        assert params["alpha_count"] == 4
        assert params["level"] == 0.1
        stable_json(params)  # must serialize without custom types

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(0.8, 0.2, 4)
        with pytest.raises(ValueError):
            SweepConfig(0.2, 0.8, 1)
        with pytest.raises(ValueError):
            SweepConfig(0.2, 0.8, 4, shifts_per_alpha=0)
        with pytest.raises(ValueError):
            SweepConfig(0.2, 0.8, 4, cell_h=-1.0)
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                SweepConfig(0.2, 0.8, 4, workers=workers)

    @pytest.mark.parametrize("field, value", [
        ("tol_eps", math.nan), ("tol_eps", math.inf), ("tol_eps", -1.0),
        ("level", math.nan), ("level", -math.inf),
    ])
    def test_tolerance_and_level_are_checked_when_given(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            SweepConfig(0.2, 0.8, 4, **{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("shifts_per_alpha", 1.5, "shifts_per_alpha must be an integer, got 1.5"),
        ("alpha_count", 2.5, "alpha_count must be an integer, got 2.5"),
        ("workers", 2.0, "workers must be an integer, got 2.0"),
        ("alpha_start", -math.inf, "alpha_start must be finite, got -inf"),
        ("alpha_end", math.inf, "alpha_end must be finite, got inf"),
        ("alpha_end", math.nan, "alpha_end must be finite, got nan"),
    ])
    def test_grid_fields_are_integers_and_finite(self, field, value, message):
        args = {"alpha_start": 0.2, "alpha_end": 0.8, "alpha_count": 4, field: value}
        with pytest.raises(ValueError, match=f"^{message}$"):
            SweepConfig(**args)

    @pytest.mark.parametrize("field", ["cell_h", "budget_arc"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_budget_overrides_must_be_positive_and_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite, got {value}"):
            SweepConfig(0.2, 0.8, 4, **{field: value})


class TestShiftSampling:
    def test_deterministic_per_seed_and_angle(self):
        u = two_cosine_potential(TWO_PI)
        a = sample_shifts(u, 7, 0.5, 3)
        b = sample_shifts(u, 7, 0.5, 3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = sample_shifts(u, 7, 0.50001, 3)
        assert not np.array_equal(a[0], c[0])
        d = sample_shifts(u, 8, 0.5, 3)
        assert not np.array_equal(a[0], d[0])

    def test_shifts_cover_unit_cell(self):
        u = two_cosine_potential(TWO_PI)
        shifts = sample_shifts(u, 0, 1.0, 200)
        arr = np.array(shifts)
        frac = arr @ np.linalg.inv(u.lattice.basis)
        assert frac.min() >= 0.0 and frac.max() < 1.0
        assert frac.mean() == pytest.approx(0.5, abs=0.08)


def _q_a_on_025_065(alpha):
    """Ground truth for synthetic_result: Q_A holds exactly on [0.25, 0.65]."""
    if 0.25 <= alpha <= 0.65:
        return mk_sample(alpha, "regular", Q_A, 2.0)
    return mk_sample(alpha, "chaotic")


class TestDetectZonesSynthetic:
    def test_runs_collapse_to_zones(self):
        zs = detect_zones(synthetic_result(), point_fn=None)
        assert len(zs.zones) == 2
        z1, z2 = zs.zones
        assert z1.quadruple == Q_A
        assert (z1.alpha_lo, z1.alpha_hi) == (0.3, 0.6)
        assert z1.sample_alphas == (0.3, 0.4, 0.5, 0.6)
        assert z1.mean_width == pytest.approx(np.mean([2.3, 2.4, 2.5, 2.6]))
        assert z1.verified is None
        assert z2.quadruple == Q_B
        assert (z2.alpha_lo, z2.alpha_hi) == (0.8, 1.0)

    def test_complement_covers_gaps(self):
        zs = detect_zones(synthetic_result(), point_fn=None)
        assert zs.complement == ((0.0, 0.3), (0.6, 0.8))

    def test_single_sample_runs_are_noise_by_default(self):
        # One isolated Q_B verdict interrupting a Q_A plateau: below grid
        # resolution, so it must not become a zone.
        samples = []
        for k in range(9):
            a = k / 10.0
            if k in (0, 8):
                samples.append(mk_sample(a, "chaotic"))
            elif k == 4:
                samples.append(mk_sample(a, "regular", Q_B, 1.0))
            else:
                samples.append(mk_sample(a, "regular", Q_A, 2.0))
        result = SweepResult(
            config=SweepConfig(0.0, 0.8, 9, shifts_per_alpha=1, seed=5),
            samples=tuple(samples),
        )
        zs = detect_zones(result, point_fn=None)
        assert [z.quadruple for z in zs.zones] == [Q_A, Q_A]
        assert [(z.alpha_lo, z.alpha_hi) for z in zs.zones] == [(0.1, 0.3), (0.5, 0.7)]

    def test_boundary_refinement_with_sampler(self):
        zs = detect_zones(synthetic_result(), refine_tol=1e-3,
                          point_fn=_q_a_on_025_065)
        z1 = zs.zones[0]
        assert z1.alpha_lo == pytest.approx(0.25, abs=2e-3)
        assert z1.alpha_hi == pytest.approx(0.65, abs=2e-3)
        assert z1.verified is True
        assert z1.alpha_lo < z1.verify_alpha < z1.alpha_hi

    def test_verification_catches_phantom_zone(self):
        # A sampler that only ever reproduces the grid samples themselves:
        # fresh interior angles come back chaotic, so the zone fails.
        grid = {s.alpha for s in synthetic_result().samples}

        def point_fn(alpha):
            if alpha in grid:
                return mk_sample(alpha, "regular", Q_A, 2.0)
            return mk_sample(alpha, "chaotic")

        zs = detect_zones(synthetic_result(), point_fn=point_fn)
        assert zs.zones[0].verified is False

    def test_fresh_angle_is_deterministic(self):
        a = detect_zones(synthetic_result(), point_fn=_q_a_on_025_065)
        b = detect_zones(synthetic_result(), point_fn=_q_a_on_025_065)
        assert a.zones[0].verify_alpha == b.zones[0].verify_alpha

    def test_worker_pool_gives_the_serial_zones(self):
        serial = detect_zones(synthetic_result(), point_fn=_q_a_on_025_065)
        samples = synthetic_result().samples
        config = dataclasses.replace(synthetic_result().config, workers=2)
        pooled = detect_zones(SweepResult(config, samples), point_fn=_q_a_on_025_065)
        assert pooled == serial
        assert [z.verified for z in serial.zones] == [True, False]

    def test_one_worker_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", no_pool)
        calls = []

        def point_fn(alpha):  # a closure: it could not be sent to a worker
            calls.append(alpha)
            return _q_a_on_025_065(alpha)

        zs = detect_zones(synthetic_result(), point_fn=point_fn)
        assert zs.zones[0].verified is True
        assert len(calls) > 2

    def test_pool_workers_start_with_numpy_random(self):
        # Every sample draws its shifts with numpy.random; a worker forked
        # without it imports it on its first task.  A fresh interpreter, since
        # this one has imported it long ago.
        code = (
            "import sys\n"
            "from moirelines import sweep\n"
            "def seen(job=None):\n"
            "    return 'numpy.random' in sys.modules\n"
            "assert not seen()\n"
            "with sweep.shared_pool(2):\n"
            "    print(sweep._map(seen, [(0,), (1,)], 2))\n"
        )
        src = str(Path(moirelines.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src})
        assert run.stdout == "[True, True]\n"

    def test_refine_tol_guard(self):
        with pytest.raises(ValueError):
            detect_zones(synthetic_result(), refine_tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_refine_tol_must_be_finite(self, tol):
        with pytest.raises(ValueError, match="refine_tol must be positive and finite"):
            detect_zones(synthetic_result(), refine_tol=tol)


class TestSweepAngleReal:
    def test_three_frequency_band_is_regular(self):
        v, u = three_frequency_layers()
        cfg = SweepConfig(0.70, 0.74, 2, **LEAN)
        result = sweep_angle(v, u, cfg)
        assert len(result.samples) == 2
        assert np.allclose([s.alpha for s in result.samples],
                           cfg.alphas())
        for s in result.samples:
            assert s.error is None
            assert s.verdict == "regular"
            assert s.quadruple.as_tuple() == oracles.THREEQ_QUADRUPLE
            assert not s.commensurate
            assert s.intervals[0].found
            assert s.intervals[0].lo < s.levels[0] < s.intervals[0].hi
            assert s.mean_width > 0

    def test_worker_count_does_not_change_samples(self):
        v, u = three_frequency_layers()
        cfg1 = SweepConfig(0.66, 0.72, 2, **LEAN)
        cfg2 = dataclasses.replace(cfg1, workers=2)
        r1 = sweep_angle(v, u, cfg1)
        r2 = sweep_angle(v, u, cfg2)
        s1 = stable_json({"samples": [sample_to_dict(s) for s in r1.samples]})
        s2 = stable_json({"samples": [sample_to_dict(s) for s in r2.samples]})
        assert s1 == s2

    def test_point_fn_matches_grid_sample(self):
        v, u = three_frequency_layers()
        cfg = SweepConfig(0.70, 0.74, 2, **LEAN)
        result = sweep_angle(v, u, cfg)
        point_fn = make_point_fn(v, u, cfg)
        again = point_fn(float(result.samples[1].alpha))
        assert stable_json(sample_to_dict(again)) == stable_json(
            sample_to_dict(result.samples[1]))

    def test_pool_starts_at_most_one_worker_per_angle(self, pool_sizes):
        v, u = three_frequency_layers()
        cfg = SweepConfig(0.68, 0.72, 3, level=0.0, workers=64, **LEAN)
        result = sweep_angle(v, u, cfg)
        assert pool_sizes == [3]
        assert [s.verdict for s in result.samples] == ["regular"] * 3
        assert sweep_to_csv(result) == sweep_to_csv(
            sweep_angle(v, u, dataclasses.replace(cfg, workers=1)))

    def test_fixed_level_skips_interval_search(self):
        v, u = three_frequency_layers()
        cfg = SweepConfig(0.68, 0.72, 2, level=0.0, **LEAN)
        result = sweep_angle(v, u, cfg)
        for s in result.samples:
            assert s.levels == (0.0,)
            assert s.intervals == (None,)
            assert s.verdict == "regular"


class TestReports:
    def test_sweep_csv_shape(self):
        csv = sweep_to_csv(synthetic_result())
        lines = csv.strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 12
        regular_row = lines[4]
        fields = regular_row.split(",")
        assert fields[1] == "regular"
        assert tuple(int(v) for v in fields[2:6]) == Q_A.as_tuple()

    def test_error_text_never_breaks_csv(self, monkeypatch):
        # A failed angle is an error verdict, and its text keeps the row intact.
        def fail(*args):
            raise RuntimeError("trace failed, badly")

        monkeypatch.setattr(sweep_module, "classify_family", fail)
        v, u = three_frequency_layers()
        result = sweep_angle(v, u, SweepConfig(0.5, 0.6, 2, **LEAN))
        bad = result.samples[0]
        assert (bad.alpha, bad.verdict, bad.classifications) == (0.5, "error", ())
        assert bad.error == "RuntimeError: trace failed, badly"
        record = sample_to_dict(bad)
        assert (record["level"], record["interval"], record["shifts"]) == (None, None, [])
        row = sweep_to_csv(result).strip().split("\n")[1]
        assert len(row.split(",")) == len(SWEEP_CSV_HEADER.split(","))
        assert row.startswith("0.5,error,,,,,,,,,0,")
        assert "trace failed; badly" in row

    def test_zones_csv(self):
        zs = detect_zones(synthetic_result(), point_fn=None)
        csv = zones_to_csv(zs)
        lines = csv.strip().split("\n")
        assert lines[0] == ZONES_CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("0.29999999999999999,0.59999999999999998")
        assert lines[1].endswith(",4")

    def test_result_dict_round_trip_deterministic(self):
        result = synthetic_result()
        zs = detect_zones(result, point_fn=None)
        a = stable_json(result_to_dict(result, zs))
        b = stable_json(result_to_dict(result, zs))
        assert a == b
        assert '"zones"' in a and '"complement"' in a

    def test_zones_svg_marks_each_zone(self):
        zs = detect_zones(synthetic_result(), point_fn=None)
        svg = zones_to_svg(zs, synthetic_result().config)
        assert svg.startswith("<svg")
        assert svg.count('data-role="zone"') == 2
        assert 'data-quadruple="1,0,0,-1"' in svg
        assert 'data-role="sweep-range"' in svg
