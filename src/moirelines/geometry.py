"""Planar lattices, rigid transforms, and the four-dimensional embedding.

A quasi-periodic potential is built from two periodic layers.  The second
layer is rotated and shifted by a rigid transform before the two are
combined, so every geometric question reduces to a pair of rank-2 lattices
plus one angle and one offset.  This module owns those primitives: lattice
bases and their reciprocals, the rotation convention, and the affine map
that lifts a plane point into the 4-torus coordinates of the combined
potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

TWO_PI = 2.0 * math.pi

# Relative floor on |det(e1, e2)|; below this the basis is treated as rank
# deficient and refused outright rather than producing a huge reciprocal.
DEGENERACY_RATIO = 1e-9


class DegenerateLatticeError(ValueError):
    """Basis vectors are (numerically) collinear."""


def as_vec2(p) -> np.ndarray:
    """Coerce to a finite float vector of shape (2,)."""
    v = np.asarray(p, dtype=float)
    if v.shape != (2,):
        raise ValueError(f"expected a 2-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"non-finite 2-vector: {v}")
    return v


def fields_equal(a, b):
    """== of a dataclass that holds arrays: the same class and equal
    compared fields, with arrays, also inside tuples, compared by
    np.array_equal.  The generated == would truth-test an array."""
    if a.__class__ is not b.__class__:
        return NotImplemented
    return all(_values_equal(getattr(a, f.name), getattr(b, f.name))
               for f in fields(a) if f.compare)


def _values_equal(x, y) -> bool:
    if x is y:
        return True
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return bool(np.array_equal(x, y))
    if isinstance(x, tuple) and isinstance(y, tuple):
        return len(x) == len(y) and all(map(_values_equal, x, y))
    return bool(x == y)


def rot90(v: np.ndarray) -> np.ndarray:
    """Rotate a plane vector by +90 degrees (counterclockwise)."""
    return np.array([-v[1], v[0]])


@dataclass(frozen=True)
class Lattice2:
    """Rank-2 lattice in the plane, given by two basis vectors."""

    e1: np.ndarray
    e2: np.ndarray

    __eq__ = fields_equal

    def __post_init__(self):
        e1 = as_vec2(self.e1)
        e2 = as_vec2(self.e2)
        det = e1[0] * e2[1] - e1[1] * e2[0]
        if abs(det) <= DEGENERACY_RATIO * np.linalg.norm(e1) * np.linalg.norm(e2):
            raise DegenerateLatticeError(
                f"basis {e1} , {e2} is numerically rank deficient (det={det:.3e})"
            )
        e1.setflags(write=False)
        e2.setflags(write=False)
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)

    @property
    def basis(self) -> np.ndarray:
        """Basis as a 2x2 array with the vectors in rows."""
        return np.vstack([self.e1, self.e2])

    def shortest_period(self) -> float:
        return min(float(np.linalg.norm(self.e1)), float(np.linalg.norm(self.e2)))

    def longest_period(self) -> float:
        return max(float(np.linalg.norm(self.e1)), float(np.linalg.norm(self.e2)))


def reciprocal_basis(lat: Lattice2) -> tuple[np.ndarray, np.ndarray]:
    """Dual basis (f1, f2) with f_i . e_j = delta_ij.

    Computed by direct inversion of the basis matrix, which is safe because
    Lattice2 refuses rank-deficient bases at construction.
    """
    inv = np.linalg.inv(lat.basis.T)
    f1 = inv[0].copy()
    f2 = inv[1].copy()
    f1.setflags(write=False)
    f2.setflags(write=False)
    return f1, f2


@dataclass(frozen=True)
class EuclideanTransform:
    """Rigid motion q = R(alpha) p + a applied to the second layer.

    The rotation matrix is fixed, once and for all, to

        R = [[ cos a,  sin a],
             [-sin a,  cos a]]

    i.e. a *clockwise* rotation by alpha; every other module inherits the
    convention from here.  alpha is stored reduced to [0, 2*pi).
    """

    alpha: float
    shift: np.ndarray = field(default_factory=lambda: np.zeros(2))

    __eq__ = fields_equal

    def __post_init__(self):
        a = float(self.alpha)
        if not math.isfinite(a):
            raise ValueError(f"non-finite angle: {a}")
        a = a % TWO_PI
        shift = as_vec2(self.shift)
        shift.setflags(write=False)
        c, s = math.cos(a), math.sin(a)
        rotation = np.array([[c, s], [-s, c]])
        rotation.setflags(write=False)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "shift", shift)
        # Not a field: it follows from alpha, and every evaluation reads it.
        object.__setattr__(self, "rotation", rotation)


def apply_transform(t: EuclideanTransform, p) -> np.ndarray:
    """Image of a point (or an (..., 2) array of points) under the transform."""
    q = np.asarray(p, dtype=float) @ t.rotation.T
    # One component at a time: broadcasting the shift over a last axis of
    # length 2 costs more than the product.
    sx, sy = t.shift.tolist()
    q.T[0] += sx
    q.T[1] += sy
    return q


def embed(t: EuclideanTransform, p) -> np.ndarray:
    """Lift a plane point to 4-space: (x, y) -> (x, y, A(x, y)).

    The first pair of coordinates feeds the unmoved layer, the second pair
    feeds the transformed one.  Accepts an (..., 2) array and returns the
    matching (..., 4) array.
    """
    pts = np.asarray(p, dtype=float)
    return np.concatenate([pts, apply_transform(t, pts)], axis=-1)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x0, self.y0, self.x1, self.y1))):
            raise ValueError(f"rectangle bounds must be finite: {self}")
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"empty rectangle: {self}")

    def contains(self, p) -> bool:
        x, y = p
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    @staticmethod
    def centered(center, side: float) -> "Rect":
        cx, cy = center
        return Rect(cx - side / 2, cy - side / 2, cx + side / 2, cy + side / 2)
