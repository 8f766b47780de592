"""Periodic layers, their combination rule, and the quasi-periodic result.

A layer is a finite Fourier sum over a rank-2 lattice.  Two layers V and U
are merged pointwise by a combiner Q after the second one is dragged
through a rigid transform A:

    f(p) = Q(V(p), U(A(p)))

For generic angles f is quasi-periodic with four incommensurate periods; it
is the restriction of a genuinely 4-periodic function F(z1..z4) to the
embedded plane, and ``lift_F`` evaluates that 4-periodic parent directly.
Commensurate angles collapse f back to an ordinary periodic potential,
which ``is_commensurate`` detects by an exact integer search.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    EuclideanTransform,
    Lattice2,
    apply_transform,
    fields_equal,
    reciprocal_basis,
)

TWO_PI = 2.0 * math.pi

DEFAULT_COMMENSURATE_BOUND = 10  # |c_i| searched by is_commensurate


class CombinerRangeError(ValueError):
    """A table-backed combiner was asked for a point outside its grid."""


@dataclass(frozen=True)
class FourierTerm:
    """One harmonic: amplitude * cos(2*pi*(n1*f1 + n2*f2) . p + phase)."""

    n1: int
    n2: int
    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        # A wave number that is not an integer makes a layer that is not
        # periodic on its lattice, which periods and budgets assume.
        if not all(isinstance(n, numbers.Integral) for n in (self.n1, self.n2)):
            raise ValueError(f"Fourier wave numbers must be integers, got {self.n1!r}, {self.n2!r}")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.phase)):
            raise ValueError("non-finite Fourier term")


@dataclass(frozen=True)
class PeriodicPotential:
    """Finite Fourier sum on a lattice; exact and bandlimited by design."""

    lattice: Lattice2
    terms: tuple[FourierTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        # Precompute wave vectors (rows) and amplitude/phase arrays so a
        # single evaluation is one matmul + one cosine.
        f1, f2 = reciprocal_basis(self.lattice)
        n = np.array([[t.n1, t.n2] for t in self.terms], dtype=float).reshape(-1, 2)
        waves = TWO_PI * (n[:, :1] * f1 + n[:, 1:] * f2)
        amps = np.array([t.amplitude for t in self.terms], dtype=float)
        phases = np.array([t.phase for t in self.terms], dtype=float)
        for a in (waves, amps, phases):
            a.setflags(write=False)
        object.__setattr__(self, "_waves", waves)
        object.__setattr__(self, "_amps", amps)
        object.__setattr__(self, "_phases", phases)
        with np.errstate(over="ignore"):
            bound = self.amplitude_bound()
        if not math.isfinite(bound):
            raise ValueError("the absolute amplitudes sum beyond the float range")

    def amplitude_bound(self) -> float:
        """Upper bound on |value|: the l1 norm of the amplitudes."""
        return float(np.sum(np.abs(self._amps)))


def eval_periodic(pot: PeriodicPotential, p) -> np.ndarray | float:
    """Value of the layer at a point (2,) or an array of points (..., 2)."""
    pts = np.asarray(p, dtype=float)
    vals = phase_cosines(pot, pts) @ pot._amps
    return float(vals) if pts.ndim == 1 else vals


def phase_cosines(pot: PeriodicPotential, pts: np.ndarray) -> np.ndarray:
    """cos of each term's phase at the points pts (..., 2), with the terms
    on the last axis: eval_periodic before its amplitudes."""
    args = pts @ pot._waves.T
    # Phase by phase, as apply_transform adds its shift.
    for k, phase in enumerate(pot._phases.tolist()):
        args.T[k] += phase
    return np.cos(args)


@dataclass(frozen=True)
class Sum:
    """Q(v, u) = v + u."""

    def apply(self, v, u):
        return v + u

    def bound(self, av: float, au: float) -> float:
        return av + au


@dataclass(frozen=True)
class WeightedSum:
    """Q(v, u) = c1*v + c2*u, with finite weights."""

    c1: float
    c2: float

    def __post_init__(self):
        if not (math.isfinite(self.c1) and math.isfinite(self.c2)):
            raise ValueError(f"weights must be finite, got c1={self.c1}, c2={self.c2}")

    def apply(self, v, u):
        return self.c1 * v + self.c2 * u

    def bound(self, av: float, au: float) -> float:
        return abs(self.c1) * av + abs(self.c2) * au


@dataclass(frozen=True)
class Product:
    """Q(v, u) = v * u."""

    def apply(self, v, u):
        return v * u

    def bound(self, av: float, au: float) -> float:
        return av * au


@dataclass(frozen=True)
class TableLookup:
    """Q sampled on a rectangular grid, evaluated by bilinear interpolation.
    Grid nodes and values must be finite.

    Points outside the grid raise CombinerRangeError: extrapolating a table
    silently would fabricate values the caller never supplied.
    """

    v_grid: np.ndarray
    u_grid: np.ndarray
    values: np.ndarray

    __eq__ = fields_equal

    def __post_init__(self):
        vg = np.asarray(self.v_grid, dtype=float)
        ug = np.asarray(self.u_grid, dtype=float)
        tab = np.asarray(self.values, dtype=float)
        if vg.ndim != 1 or ug.ndim != 1 or len(vg) < 2 or len(ug) < 2:
            raise ValueError("table grids must be 1-d with at least two nodes")
        for name, a in (("v_grid", vg), ("u_grid", ug), ("values", tab)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"table {name} must be finite")
        if np.any(np.diff(vg) <= 0) or np.any(np.diff(ug) <= 0):
            raise ValueError("table grids must be strictly increasing")
        if tab.shape != (len(vg), len(ug)):
            raise ValueError(f"table shape {tab.shape} != ({len(vg)}, {len(ug)})")
        for a in (vg, ug, tab):
            a.setflags(write=False)
        object.__setattr__(self, "v_grid", vg)
        object.__setattr__(self, "u_grid", ug)
        object.__setattr__(self, "values", tab)

    def apply(self, v, u):
        v = np.asarray(v, dtype=float)
        u = np.asarray(u, dtype=float)
        vg, ug, tab = self.v_grid, self.u_grid, self.values
        if np.any(v < vg[0]) or np.any(v > vg[-1]) or np.any(u < ug[0]) or np.any(u > ug[-1]):
            raise CombinerRangeError(
                f"combiner input outside table range "
                f"[{vg[0]}, {vg[-1]}] x [{ug[0]}, {ug[-1]}]"
            )
        i = np.clip(np.searchsorted(vg, v, side="right") - 1, 0, len(vg) - 2)
        j = np.clip(np.searchsorted(ug, u, side="right") - 1, 0, len(ug) - 2)
        tv = (v - vg[i]) / (vg[i + 1] - vg[i])
        tu = (u - ug[j]) / (ug[j + 1] - ug[j])
        return (
            tab[i, j] * (1 - tv) * (1 - tu)
            + tab[i + 1, j] * tv * (1 - tu)
            + tab[i, j + 1] * (1 - tv) * tu
            + tab[i + 1, j + 1] * tv * tu
        )

    def bound(self, av: float, au: float) -> float:
        return float(np.max(np.abs(self.values)))


Combiner = Sum | WeightedSum | Product | TableLookup


@dataclass(frozen=True)
class SuperpositionPotential:
    """The full quasi-periodic potential f(p) = Q(V(p), U(A(p)))."""

    v: PeriodicPotential
    u: PeriodicPotential
    transform: EuclideanTransform
    combiner: Combiner = field(default_factory=Sum)

    def __post_init__(self):
        if not math.isfinite(self.value_scale()):
            raise ValueError(f"the {type(self.combiner).__name__} combiner's bound "
                             "on |f| overflows the float range")

    def rotated_u_lattice(self) -> Lattice2:
        """Period lattice of the second layer as seen in plane coordinates.

        U(A(p)) repeats when A advances by a u-period, i.e. when p advances
        by R^T u_i (R is orthogonal, so the inverse is the transpose).
        """
        rt = self.transform.rotation.T
        return Lattice2(rt @ self.u.lattice.e1, rt @ self.u.lattice.e2)

    def shortest_period(self) -> float:
        return min(self.v.lattice.shortest_period(), self.u.lattice.shortest_period())

    def longest_period(self) -> float:
        return max(self.v.lattice.longest_period(), self.u.lattice.longest_period())

    def value_scale(self) -> float:
        """A positive magnitude scale for tolerances; >= sup|f| for the
        built-in combiners."""
        b = self.combiner.bound(self.v.amplitude_bound(), self.u.amplitude_bound())
        return b if b > 0 else 1.0


def eval_superposition(s: SuperpositionPotential, p) -> np.ndarray | float:
    """f(p) for a point (2,) or an array of points (..., 2)."""
    pts = np.asarray(p, dtype=float)
    scalar = pts.ndim == 1
    v = eval_periodic(s.v, pts)
    u = eval_periodic(s.u, apply_transform(s.transform, pts))
    out = s.combiner.apply(v, u)
    return float(out) if scalar else out


def lift_F(s: SuperpositionPotential, z) -> np.ndarray | float:
    """The 4-periodic parent F(z1, z2, z3, z4) = Q(V(z1, z2), U(z3, z4)).

    By construction F restricted to the embedded plane reproduces the
    superposition exactly: lift_F(s, embed(A, p)) == eval_superposition(s, p).
    Its four period generators are the two lattice bases placed in disjoint
    coordinate pairs; see period_generators.
    """
    zs = np.asarray(z, dtype=float)
    scalar = zs.ndim == 1
    v = eval_periodic(s.v, zs[..., :2])
    u = eval_periodic(s.u, zs[..., 2:])
    out = s.combiner.apply(v, u)
    return float(out) if scalar else out


def period_generators(s: SuperpositionPotential) -> np.ndarray:
    """The four 4-space periods of lift_F, one per row."""
    g = np.zeros((4, 4))
    g[0, :2] = s.v.lattice.e1
    g[1, :2] = s.v.lattice.e2
    g[2, 2:] = s.u.lattice.e1
    g[3, 2:] = s.u.lattice.e2
    return g


def is_commensurate(
    lat_v: Lattice2,
    lat_u: Lattice2,
    transform: EuclideanTransform,
    bound: int = DEFAULT_COMMENSURATE_BOUND,
    tol: float = 1e-6,
) -> Lattice2 | None:
    """Common period lattice of V and the transformed U, if one exists.

    Searches integer combinations c1*v1 + c2*v2 with |c_i| <= bound and
    keeps those that are also integer combinations of the rotated u-basis
    (coefficients within tol of integers).  Two independent survivors mean
    the superposition is plain periodic; the two shortest independent ones
    are returned as the common lattice.  Returns None otherwise.

    The shift plays no role: translating one layer never changes whether
    the period groups intersect.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    rt = transform.rotation.T
    lat_u_plane = Lattice2(rt @ lat_u.e1, rt @ lat_u.e2)
    g1, g2 = reciprocal_basis(lat_u_plane)

    r = np.arange(-bound, bound + 1)
    c1, c2 = np.meshgrid(r, r, indexing="ij")
    c1 = c1.ravel()
    c2 = c2.ravel()
    keep = (c1 != 0) | (c2 != 0)
    c1, c2 = c1[keep], c2[keep]
    w = c1[:, None] * lat_v.e1 + c2[:, None] * lat_v.e2
    coeff = np.column_stack([w @ g1, w @ g2])
    ok = np.all(np.abs(coeff - np.round(coeff)) < tol, axis=1)
    if not np.any(ok):
        return None
    cand = w[ok]
    # Canonical sign, then pick the two successive minima; for a planar
    # lattice these always form a basis.
    flip = (cand[:, 0] < 0) | ((cand[:, 0] == 0) & (cand[:, 1] < 0))
    cand[flip] *= -1
    order = np.lexsort((cand[:, 1], cand[:, 0], np.einsum("ij,ij->i", cand, cand)))
    cand = cand[order]
    w1 = cand[0]
    n1 = np.linalg.norm(w1)
    for w2 in cand[1:]:
        if abs(w1[0] * w2[1] - w1[1] * w2[0]) > 1e-9 * n1 * np.linalg.norm(w2):
            return Lattice2(w1, w2)
    return None


def square_lattice(period: float) -> Lattice2:
    return Lattice2((period, 0.0), (0.0, period))


def hexagonal_lattice(period: float) -> Lattice2:
    return Lattice2((period, 0.0), (period / 2, period * math.sqrt(3) / 2))


def two_cosine_potential(period: float, amplitude: float = 1.0) -> PeriodicPotential:
    """amplitude*(cos(2*pi*x/period) + cos(2*pi*y/period)) on a square lattice."""
    return PeriodicPotential(
        square_lattice(period),
        (FourierTerm(1, 0, amplitude), FourierTerm(0, 1, amplitude)),
    )


def three_cosine_potential(period: float, amplitude: float = 1.0) -> PeriodicPotential:
    """Sixfold-symmetric layer: three equal harmonics on a hexagonal lattice.

    The wave vectors f1, f2, f1+f2 all have length 2/(period*sqrt(3)) and sit
    sixty degrees apart, the standard triangular arrangement.
    """
    return PeriodicPotential(
        hexagonal_lattice(period),
        (
            FourierTerm(1, 0, amplitude),
            FourierTerm(0, 1, amplitude),
            FourierTerm(1, 1, amplitude),
        ),
    )
