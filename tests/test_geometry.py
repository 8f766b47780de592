import math

import numpy as np
import pytest

from moirelines.geometry import (
    DegenerateLatticeError,
    EuclideanTransform,
    Lattice2,
    Rect,
    apply_transform,
    as_vec2,
    embed,
    reciprocal_basis,
    rot90,
)

import oracles
from families import random_lattice

TWO_PI = 2.0 * math.pi


class TestReciprocalBasis:
    def test_identity_lattice(self):
        f1, f2 = reciprocal_basis(Lattice2((1, 0), (0, 1)))
        assert np.allclose(f1, (1, 0)) and np.allclose(f2, (0, 1))

    def test_diagonal_scaling(self):
        f1, f2 = reciprocal_basis(Lattice2((TWO_PI, 0), (0, TWO_PI)))
        assert np.allclose(f1, (1 / TWO_PI, 0))
        assert np.allclose(f2, (0, 1 / TWO_PI))

    def test_hexagonal_against_oracle(self):
        e1, e2 = (1.0, 0.0), (0.5, math.sqrt(3) / 2)
        f1, f2 = reciprocal_basis(Lattice2(e1, e2))
        o1, o2 = oracles.cramer_reciprocal(e1, e2)
        assert np.allclose(f1, o1, atol=1e-14) and np.allclose(f2, o2, atol=1e-14)
        assert np.allclose(f1, oracles.HEX_RECIP_F1, atol=1e-14)
        assert np.allclose(f2, oracles.HEX_RECIP_F2, atol=1e-14)

    def test_duality_random(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            lat = random_lattice(rng)
            f1, f2 = reciprocal_basis(lat)
            gram = np.array([f1, f2]) @ lat.basis.T
            assert np.allclose(gram, np.eye(2), atol=1e-12)

    def test_double_reciprocal_roundtrip(self):
        rng = np.random.default_rng(102)
        for _ in range(100):
            lat = random_lattice(rng)
            back = Lattice2(*reciprocal_basis(Lattice2(*reciprocal_basis(lat))))
            scale = np.abs(lat.basis).max()
            assert np.allclose(back.basis, lat.basis, atol=1e-10 * scale)

    def test_degenerate_refused(self):
        with pytest.raises(DegenerateLatticeError):
            Lattice2((1.0, 2.0), (2.0, 4.0))
        with pytest.raises(DegenerateLatticeError):
            Lattice2((1.0, 0.0), (1.0, 1e-12))


class TestTransform:
    def test_identity(self):
        t = EuclideanTransform(0.0)
        assert np.allclose(apply_transform(t, (3.0, 4.0)), (3.0, 4.0))

    def test_clockwise_quarter_turn(self):
        t = EuclideanTransform(math.pi / 2)
        assert np.allclose(apply_transform(t, (1.0, 0.0)), (0.0, -1.0), atol=1e-15)

    def test_quarter_turn_with_shift_oracle(self):
        t = EuclideanTransform(math.pi / 2, (5.0, 7.0))
        img = apply_transform(t, (0.0, 1.0))
        assert np.allclose(img, oracles.ROTATE_QUARTER_SHIFT_IMAGE, atol=1e-15)

    def test_rotation_is_special_orthogonal(self):
        rng = np.random.default_rng(7)
        for a in rng.uniform(-10, 10, 20):
            r = EuclideanTransform(float(a)).rotation
            assert np.allclose(r @ r.T, np.eye(2), atol=1e-14)
            assert math.isclose(np.linalg.det(r), 1.0, abs_tol=1e-14)

    def test_angle_normalized(self):
        assert EuclideanTransform(-0.5).alpha == pytest.approx(TWO_PI - 0.5)
        assert EuclideanTransform(TWO_PI + 1.0).alpha == pytest.approx(1.0)
        with pytest.raises(ValueError):
            EuclideanTransform(float("nan"))

    def test_batched_points(self):
        t = EuclideanTransform(1.1, (0.2, -0.3))
        pts = np.random.default_rng(3).uniform(-5, 5, (40, 2))
        batched = apply_transform(t, pts)
        for p, q in zip(pts, batched):
            assert np.allclose(apply_transform(t, p), q, atol=1e-14)


class TestEmbed:
    def test_identity_transform_duplicates(self):
        z = embed(EuclideanTransform(0.0), (2.5, -1.5))
        assert np.allclose(z, (2.5, -1.5, 2.5, -1.5))

    def test_quarter_turn(self):
        z = embed(EuclideanTransform(math.pi / 2), (1.0, 0.0))
        assert np.allclose(z, (1.0, 0.0, 0.0, -1.0), atol=1e-15)

    def test_origin_maps_to_shift(self):
        z = embed(EuclideanTransform(math.pi / 3, (0.4, -0.9)), (0.0, 0.0))
        assert np.allclose(z, (0.0, 0.0, 0.4, -0.9), atol=1e-15)

    def test_first_two_coordinates_exact(self):
        rng = np.random.default_rng(11)
        t = EuclideanTransform(0.83, (1.0, 2.0))
        for p in rng.uniform(-20, 20, (50, 2)):
            z = embed(t, p)
            assert z[0] == p[0] and z[1] == p[1]

    def test_shift_family_constant_offset(self):
        # For fixed alpha the embeddings of two shifts differ by a constant
        # (0, 0, da1, da2), independent of the plane point.
        rng = np.random.default_rng(12)
        a = EuclideanTransform(0.61, (0.3, 0.4))
        b = EuclideanTransform(0.61, (-1.2, 2.2))
        expected = np.array([0.0, 0.0, -1.5, 1.8])
        for p in rng.uniform(-30, 30, (50, 2)):
            assert np.allclose(embed(b, p) - embed(a, p), expected, atol=1e-12)


class TestVectorsAndRect:
    def test_rot90_counterclockwise(self):
        assert np.allclose(rot90(np.array([1.0, 0.0])), (0.0, 1.0))
        assert np.allclose(rot90(np.array([0.0, 1.0])), (-1.0, 0.0))

    def test_as_vec_guards(self):
        with pytest.raises(ValueError):
            as_vec2((1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            as_vec2((float("inf"), 0.0))

    def test_rect(self):
        r = Rect(0.0, -1.0, 2.0, 1.0)
        assert r.contains((0.0, -1.0)) and r.contains((1.0, 0.5))
        assert not r.contains((2.1, 0.0))
        with pytest.raises(ValueError):
            Rect(0.0, 0.0, 0.0, 1.0)
        # NaN compares false, so it would read as empty: finiteness comes first.
        with pytest.raises(ValueError, match="rectangle bounds must be finite"):
            Rect(math.nan, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="rectangle bounds must be finite"):
            Rect(0.0, math.nan, 1.0, 1.0)
        # An infinite bound is not empty, but no grid of cells covers it.
        for bounds in ((0.0, 0.0, math.inf, 1.0), (-math.inf, 0.0, 1.0, 1.0),
                       (0.0, -math.inf, 1.0, math.inf)):
            with pytest.raises(ValueError, match="bounds must be finite"):
                Rect(*bounds)

    def test_rect_centered(self):
        r = Rect.centered((1.0, 2.0), 4.0)
        assert (r.x0, r.y0, r.x1, r.y1) == (-1.0, 0.0, 3.0, 4.0)

    def test_lattice_periods(self):
        lat = Lattice2((3.0, 0.0), (0.0, 1.0))
        assert lat.shortest_period() == 1.0
        assert lat.longest_period() == 3.0
