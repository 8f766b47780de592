import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moirelines.geometry import EuclideanTransform, Lattice2, embed
from moirelines.potential import (
    CombinerRangeError,
    FourierTerm,
    PeriodicPotential,
    Product,
    Sum,
    SuperpositionPotential,
    TableLookup,
    WeightedSum,
    eval_periodic,
    eval_superposition,
    hexagonal_lattice,
    is_commensurate,
    lift_F,
    period_generators,
    square_lattice,
    three_cosine_potential,
    two_cosine_potential,
)

import oracles
from families import random_lattice, random_superposition, random_terms

TWO_PI = 2.0 * math.pi


class TestPeriodicPotential:
    def test_two_cosine_values(self):
        pot = two_cosine_potential(TWO_PI)
        assert eval_periodic(pot, (0.0, 0.0)) == pytest.approx(2.0)
        assert eval_periodic(pot, (math.pi, 0.0)) == pytest.approx(0.0, abs=1e-14)
        assert eval_periodic(pot, (math.pi, math.pi)) == pytest.approx(-2.0)

    def test_hexagonal_layer_frozen_value(self):
        pot = PeriodicPotential(
            hexagonal_lattice(TWO_PI),
            (FourierTerm(1, 0, 1.0), FourierTerm(0, 1, 1.0), FourierTerm(1, 1, 1.0)),
        )
        got = eval_periodic(pot, oracles.HEX_LAYER_POINT)
        assert got == pytest.approx(oracles.HEX_LAYER_VALUE, abs=1e-14)

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(201)
        for _ in range(50):
            lat = random_lattice(rng)
            terms = random_terms(rng)
            pot = PeriodicPotential(lat, terms)
            p = rng.uniform(-8, 8, 2)
            want = oracles.direct_periodic_value(
                tuple(lat.e1), tuple(lat.e2),
                [(t.n1, t.n2, t.amplitude, t.phase) for t in terms],
                tuple(p),
            )
            assert eval_periodic(pot, p) == pytest.approx(want, abs=1e-12)

    def test_periodicity_property(self):
        rng = np.random.default_rng(202)
        for _ in range(50):
            lat = random_lattice(rng)
            pot = PeriodicPotential(lat, random_terms(rng))
            p = rng.uniform(-5, 5, 2)
            base = eval_periodic(pot, p)
            for n1, n2 in ((1, 0), (0, 1), (-2, 3), (5, -4)):
                q = p + n1 * np.asarray(lat.e1) + n2 * np.asarray(lat.e2)
                assert eval_periodic(pot, q) == pytest.approx(base, abs=1e-10)

    def test_batch_matches_scalars(self):
        pot = three_cosine_potential(TWO_PI, amplitude=0.7)
        pts = np.random.default_rng(5).uniform(-9, 9, (30, 2))
        batch = eval_periodic(pot, pts)
        assert batch.shape == (30,)
        for p, f in zip(pts, batch):
            assert eval_periodic(pot, p) == pytest.approx(f, abs=1e-14)

    def test_amplitude_bound(self):
        pot = PeriodicPotential(
            square_lattice(1.0),
            (FourierTerm(1, 0, 2.0), FourierTerm(0, 1, -0.5, 0.3)),
        )
        assert pot.amplitude_bound() == pytest.approx(2.5)
        pts = np.random.default_rng(6).uniform(-3, 3, (200, 2))
        assert np.abs(eval_periodic(pot, pts)).max() <= 2.5 + 1e-12

    def test_term_validation(self):
        with pytest.raises(ValueError):
            FourierTerm(1, 0, float("nan"))
        with pytest.raises(ValueError):
            FourierTerm(1, 0, 1.0, float("inf"))

    def test_wave_numbers_must_be_integers(self):
        # (0.5, 0) on a 2*pi square lattice reads 1.0 at the origin and
        # -1.0 one period away.
        for n1, n2 in ((0.5, 0), (1, 2.0), (np.float64(1.0), 0), ("1", 0)):
            with pytest.raises(ValueError, match="wave numbers must be integers"):
                FourierTerm(n1, n2, 1.0)
        rng = np.random.default_rng(0)
        n1, n2 = rng.integers(-2, 3, size=2)
        assert FourierTerm(n1, n2, 1.0).n1 == n1

    def test_amplitudes_whose_sum_overflows_are_refused(self):
        huge = (FourierTerm(1, 0, 1e308), FourierTerm(0, 1, -1e308))
        with pytest.raises(ValueError, match="beyond the float range"):
            PeriodicPotential(square_lattice(1.0), huge)
        # The largest finite sum is still a layer.
        top = PeriodicPotential(square_lattice(1.0), (FourierTerm(1, 0, 1.7e308),))
        assert math.isfinite(top.amplitude_bound())

    def test_constant_term_and_empty_sum(self):
        lat = square_lattice(1.0)
        const = PeriodicPotential(lat, (FourierTerm(0, 0, 0.75, 0.0),))
        pts = np.random.default_rng(8).uniform(-4, 4, (20, 2))
        assert np.allclose(eval_periodic(const, pts), 0.75)
        empty = PeriodicPotential(lat, ())
        assert np.allclose(eval_periodic(empty, pts), 0.0)
        assert empty.amplitude_bound() == 0.0


class TestCombiners:
    def test_sum_and_weighted(self):
        assert Sum().apply(1.5, -0.25) == pytest.approx(1.25)
        w = WeightedSum(2.0, -1.0)
        assert w.apply(1.5, -0.25) == pytest.approx(3.25)
        assert Sum().bound(2.0, 0.5) == pytest.approx(2.5)
        assert w.bound(2.0, 0.5) == pytest.approx(4.5)

    @pytest.mark.parametrize("c1, c2", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 0.5)])
    def test_weighted_sum_refuses_non_finite_weights(self, c1, c2):
        with pytest.raises(ValueError, match="weights must be finite"):
            WeightedSum(c1, c2)

    def test_product(self):
        assert Product().apply(3.0, -0.5) == pytest.approx(-1.5)
        assert Product().bound(2.0, 0.5) == pytest.approx(1.0)

    def test_table_lookup_reproduces_bilinear(self):
        # Bilinear interpolation is exact for functions linear in each slot.
        vg = np.linspace(-2.0, 2.0, 9)
        ug = np.linspace(-1.0, 1.0, 5)
        vals = 0.5 * vg[:, None] - 2.0 * ug[None, :] + 0.25
        table = TableLookup(vg, ug, vals)
        rng = np.random.default_rng(7)
        v = rng.uniform(-2, 2, 64)
        u = rng.uniform(-1, 1, 64)
        assert np.allclose(table.apply(v, u), 0.5 * v - 2.0 * u + 0.25, atol=1e-12)

    def test_table_lookup_triangle_wave_rms(self):
        # A triangle wave sampled at its breakpoints survives linear
        # interpolation exactly, so the interpolant's RMS is the analytic one.
        vg = np.linspace(-2.0, 2.0, 5)
        tri = np.array([0.0, 0.5, 0.0, -0.5, 0.0])
        vals = np.repeat(tri[:, None], 2, axis=1)
        table = TableLookup(vg, np.array([0.0, 1.0]), vals)
        v = np.linspace(-2.0, 2.0, 40001)
        rms = math.sqrt(float(np.mean(table.apply(v, np.zeros_like(v)) ** 2)))
        assert rms == pytest.approx(oracles.SAWTOOTH_RMS, abs=1e-4)

    def test_table_lookup_range_guard(self):
        table = TableLookup(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                            np.zeros((2, 2)))
        with pytest.raises(CombinerRangeError):
            table.apply(np.array([1.5]), np.array([0.5]))
        with pytest.raises(CombinerRangeError):
            table.apply(np.array([0.5]), np.array([-0.1]))

    @pytest.mark.parametrize("v_grid, values, name", [
        ([0.0, 1.0], [[0.0, np.nan], [1.0, 0.0]], "values"),
        ([0.0, np.nan], [[0.0, 1.0], [1.0, 0.0]], "v_grid"),
        ([0.0, 1.0], [[0.0, 1.0], [np.inf, 0.0]], "values"),
    ], ids=["nan-value", "nan-node", "inf-value"])
    def test_table_lookup_refuses_non_finite_entries(self, v_grid, values, name):
        # A NaN value would read as a bound of 1.0 (value_scale's fallback),
        # and an infinite one would overflow it.
        with pytest.raises(ValueError, match=f"table {name} must be finite"):
            TableLookup(v_grid, [0.0, 1.0], values)

    def test_table_lookup_bound(self):
        vals = np.array([[1.0, -3.0], [0.5, 2.0]])
        table = TableLookup(np.array([0.0, 1.0]), np.array([0.0, 1.0]), vals)
        assert table.bound(9.9, 9.9) == pytest.approx(3.0)


class TestSuperposition:
    @pytest.mark.parametrize("combiner, amplitude", [
        (Sum(), 1e308), (WeightedSum(2.0, 0.5), 1e308), (Product(), 1e200),
    ], ids=["sum", "weighted", "product"])
    def test_combined_bound_that_overflows_is_refused(self, combiner, amplitude):
        layer = PeriodicPotential(square_lattice(1.0), (FourierTerm(1, 0, amplitude),))
        name = type(combiner).__name__
        with pytest.raises(ValueError, match=f"the {name} combiner's bound on .f. overflows"):
            SuperpositionPotential(layer, layer, EuclideanTransform(0.3), combiner)
        # Each layer alone is finite, and so is their largest finite sum.
        top = PeriodicPotential(square_lattice(1.0), (FourierTerm(1, 0, 8e307),))
        assert math.isfinite(SuperpositionPotential(top, top, EuclideanTransform(0.3))
                             .value_scale())

    def test_matches_layerwise_evaluation(self):
        rng = np.random.default_rng(301)
        for _ in range(40):
            s = random_superposition(rng)
            p = rng.uniform(-6, 6, 2)
            v = eval_periodic(s.v, p)
            u = eval_periodic(s.u, np.asarray(
                s.transform.rotation @ p + np.asarray(s.transform.shift)))
            want = s.combiner.apply(v, u)
            assert eval_superposition(s, p) == pytest.approx(want, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), table=st.booleans(),
           n=st.integers(1, 200))
    def test_stacked_batch_matches_points_bitwise(self, seed, table, n):
        # A (N, 1, 2) batch runs the same per-row products as one point at a
        # time, so it must reproduce the per-point values exactly.
        rng = np.random.default_rng(seed)
        s = random_superposition(rng)
        if table:
            bv, bu = s.v.amplitude_bound(), s.u.amplitude_bound()
            vg = np.linspace(-bv, bv, 7)
            ug = np.linspace(-bu, bu, 6)
            combiner = TableLookup(vg, ug, rng.uniform(-2, 2, (7, 6)))
            s = dataclasses.replace(s, combiner=combiner)
        pts = rng.uniform(-60, 60, (n, 2))
        batch = eval_superposition(s, pts[:, None, :])[:, 0]
        single = np.array([eval_superposition(s, p) for p in pts])
        assert batch.tobytes() == single.tobytes()

    def test_rotated_u_lattice_periods(self):
        # The plane-side u-lattice: translating the plane argument by one of
        # its vectors leaves the rotated layer's contribution unchanged.
        rng = np.random.default_rng(302)
        for _ in range(40):
            s = random_superposition(rng)
            lat = s.rotated_u_lattice()
            p = rng.uniform(-5, 5, 2)
            a = apply = s.transform
            u_at = lambda q: eval_periodic(
                s.u, np.asarray(a.rotation @ q + np.asarray(a.shift)))
            for e in (lat.e1, lat.e2):
                assert u_at(p + np.asarray(e)) == pytest.approx(u_at(p), abs=1e-10)

    def test_rotated_u_lattice_is_inverse_rotation(self):
        s = SuperpositionPotential(
            two_cosine_potential(TWO_PI),
            two_cosine_potential(TWO_PI),
            EuclideanTransform(0.7),
        )
        r = s.transform.rotation
        lat = s.rotated_u_lattice()
        assert np.allclose(lat.e1, r.T @ np.array([TWO_PI, 0.0]), atol=1e-14)
        assert np.allclose(lat.e2, r.T @ np.array([0.0, TWO_PI]), atol=1e-14)

    def test_lift_restriction_identity(self):
        rng = np.random.default_rng(303)
        for _ in range(40):
            s = random_superposition(rng)
            p = rng.uniform(-10, 10, 2)
            z = embed(s.transform, p)
            assert lift_F(s, z) == pytest.approx(
                eval_superposition(s, p), abs=1e-12)

    def test_period_generators_are_periods_of_lift(self):
        rng = np.random.default_rng(304)
        s = random_superposition(rng)
        gens = period_generators(s)
        assert gens.shape == (4, 4)
        assert abs(np.linalg.det(gens)) > 1e-9
        z = rng.uniform(-4, 4, 4)
        base = lift_F(s, z)
        for row in gens:
            assert lift_F(s, z + row) == pytest.approx(base, abs=1e-10)

    def test_value_scale_bounds_samples(self):
        rng = np.random.default_rng(305)
        for _ in range(20):
            s = random_superposition(rng)
            scale = s.value_scale()
            assert scale > 0
            pts = rng.uniform(-20, 20, (100, 2))
            assert np.abs(eval_superposition(s, pts)).max() <= scale + 1e-9

    def test_shortest_longest_period(self):
        s = SuperpositionPotential(
            PeriodicPotential(Lattice2((3.0, 0.0), (0.0, 1.0)),
                              (FourierTerm(1, 0, 1.0),)),
            two_cosine_potential(TWO_PI),
            EuclideanTransform(0.3),
        )
        assert s.shortest_period() == pytest.approx(1.0)
        assert s.longest_period() == pytest.approx(TWO_PI)


class TestCommensurate:
    def test_twist_by_rational_tangent_detected(self):
        t = EuclideanTransform(oracles.COMMENSURATE_ALPHA)
        lat = square_lattice(1.0)
        common = is_commensurate(lat, lat, t, bound=10)
        assert common is not None
        # Both returned generators must be integer combinations on each side.
        coords = {tuple(np.rint(np.asarray(e)).astype(int)): e
                  for e in (common.e1, common.e2)}
        assert set(coords) == oracles.COMMENSURATE_SHORTEST
        for want_int, e in coords.items():
            assert np.allclose(e, want_int, atol=1e-9)
        det = abs(common.e1[0] * common.e2[1] - common.e1[1] * common.e2[0])
        assert det == pytest.approx(oracles.COMMENSURATE_INDEX)

    def test_matches_brute_force_oracle(self):
        t = EuclideanTransform(oracles.COMMENSURATE_ALPHA)
        hits = oracles.brute_commensurate(oracles.COMMENSURATE_ALPHA, bound=10)
        assert {h for h in hits if tuple(h) in oracles.COMMENSURATE_SHORTEST}
        assert is_commensurate(square_lattice(1.0), square_lattice(1.0),
                               t, bound=10) is not None

    def test_common_vectors_are_superposition_periods(self):
        t = EuclideanTransform(oracles.COMMENSURATE_ALPHA, (0.15, -0.4))
        s = SuperpositionPotential(
            two_cosine_potential(1.0), two_cosine_potential(1.0), t)
        common = is_commensurate(s.v.lattice, s.u.lattice, t, bound=10)
        assert common is not None
        rng = np.random.default_rng(9)
        for p in rng.uniform(-3, 3, (10, 2)):
            base = eval_superposition(s, p)
            for e in (common.e1, common.e2):
                assert eval_superposition(s, p + np.asarray(e)) == pytest.approx(
                    base, abs=1e-9)

    def test_irrational_twist_rejected(self):
        assert oracles.brute_commensurate(1.0, bound=50) == []
        assert is_commensurate(square_lattice(1.0), square_lattice(1.0),
                               EuclideanTransform(1.0), bound=50) is None

    def test_zero_twist_trivially_commensurate(self):
        common = is_commensurate(square_lattice(1.0), square_lattice(1.0),
                                 EuclideanTransform(0.0), bound=3)
        assert common is not None
        det = abs(common.e1[0] * common.e2[1] - common.e1[1] * common.e2[0])
        assert det == pytest.approx(1.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"bound": 1.5}, "bound must be a positive integer, got 1.5"),
        ({"bound": 0}, "bound must be a positive integer, got 0"),
        ({"bound": math.nan}, "bound must be a positive integer, got nan"),
        ({"tol": math.nan}, "tol must be positive and finite, got nan"),
        ({"tol": -1.0}, "tol must be positive and finite, got -1.0"),
        ({"tol": 0.0}, "tol must be positive and finite, got 0.0"),
        ({"tol": math.inf}, "tol must be positive and finite, got inf"),
    ], ids=["bound-frac", "bound-0", "bound-nan", "tol-nan", "tol-neg", "tol-0", "tol-inf"])
    def test_invalid_input_raises(self, kwargs, message):
        # With bound 1.5 the search would combine V's basis with
        # half-integers, and return ((0.5, -0.5), (0.5, 0.5)) for periods 1
        # and 0.5, which is no period lattice of V; a NaN or negative tol
        # would find no common lattice.
        with pytest.raises(ValueError, match=re.escape(message)):
            is_commensurate(square_lattice(1.0), square_lattice(0.5), EuclideanTransform(0.0),
                            **kwargs)


class TestFactories:
    def test_square_lattice(self):
        lat = square_lattice(TWO_PI)
        assert np.allclose(lat.e1, (TWO_PI, 0.0))
        assert np.allclose(lat.e2, (0.0, TWO_PI))

    def test_hexagonal_lattice_angles(self):
        lat = hexagonal_lattice(1.0)
        assert np.linalg.norm(lat.e1) == pytest.approx(1.0)
        assert np.linalg.norm(lat.e2) == pytest.approx(1.0)
        cosang = float(np.dot(lat.e1, lat.e2))
        assert cosang == pytest.approx(0.5)

    def test_three_cosine_has_three_terms(self):
        pot = three_cosine_potential(TWO_PI, amplitude=0.4)
        assert len(pot.terms) == 3
        assert pot.amplitude_bound() == pytest.approx(1.2)
