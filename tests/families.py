"""Potential families and random generators shared across the test suite."""

from __future__ import annotations

import math

import numpy as np

from moirelines import (
    EuclideanTransform,
    FourierTerm,
    Lattice2,
    PeriodicPotential,
    Product,
    Quadruple,
    Sum,
    SuperpositionPotential,
    WeightedSum,
    square_lattice,
    three_cosine_potential,
    two_cosine_potential,
)

TWO_PI = 2.0 * math.pi


def two_layer_sum(delta: float = 0.05, alpha: float = 0.7, shift=(0.0, 0.0)):
    """Two identically symmetric square layers, the second one scaled by
    delta and rotated: V = cos x + cos y, U = delta*(cos x' + cos y')."""
    v = two_cosine_potential(TWO_PI)
    u = two_cosine_potential(TWO_PI, amplitude=delta)
    return SuperpositionPotential(v, u, EuclideanTransform(alpha, shift))


def three_frequency_layers(delta: float = 0.3):
    """The layers V = cos x + cos y and U = delta * cos x', unrotated."""
    v = two_cosine_potential(TWO_PI)
    u = PeriodicPotential(square_lattice(TWO_PI), (FourierTerm(1, 0, delta),))
    return v, u


def single_harmonic_sum(delta: float = 0.05, alpha: float = 0.7, shift=(0.0, 0.0)):
    """V = cos x + cos y plus one rotated harmonic U = delta * cos x'.

    Three incommensurate periods only; this family has robust strip-confined
    open lines near alpha = 0.7 and is the workhorse for Regular verdicts.
    """
    v, u = three_frequency_layers(delta)
    return SuperpositionPotential(v, u, EuclideanTransform(alpha, shift))


def hexagonal_pair(alpha: float, shift=(0.0, 0.0)):
    """Identical sixfold layers, one rotated: the no-regular-lines family."""
    layer = three_cosine_potential(TWO_PI)
    return SuperpositionPotential(layer, layer, EuclideanTransform(alpha, shift))


def random_lattice(rng: np.random.Generator, lo: float = 0.6, hi: float = 2.4) -> Lattice2:
    """Random nondegenerate basis; resamples until the det is healthy."""
    while True:
        e1 = rng.uniform(-hi, hi, 2)
        e2 = rng.uniform(-hi, hi, 2)
        n1, n2 = np.linalg.norm(e1), np.linalg.norm(e2)
        det = e1[0] * e2[1] - e1[1] * e2[0]
        if n1 > lo and n2 > lo and abs(det) > 0.3 * n1 * n2:
            return Lattice2(e1, e2)


def random_terms(rng: np.random.Generator, max_terms: int = 3):
    n = int(rng.integers(1, max_terms + 1))
    terms = []
    for _ in range(n):
        n1 = int(rng.integers(-2, 3))
        n2 = int(rng.integers(-2, 3))
        if n1 == 0 and n2 == 0:
            n1 = 1
        terms.append(
            FourierTerm(n1, n2, float(rng.uniform(0.2, 2.0)), float(rng.uniform(0, TWO_PI)))
        )
    return tuple(terms)


def random_combiner(rng: np.random.Generator):
    pick = int(rng.integers(0, 3))
    if pick == 0:
        return Sum()
    if pick == 1:
        return WeightedSum(float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0)))
    return Product()


def random_superposition(rng: np.random.Generator) -> SuperpositionPotential:
    v = PeriodicPotential(random_lattice(rng), random_terms(rng))
    u = PeriodicPotential(random_lattice(rng), random_terms(rng))
    transform = EuclideanTransform(float(rng.uniform(0, TWO_PI)), rng.uniform(-3, 3, 2))
    return SuperpositionPotential(v, u, transform, random_combiner(rng))


def random_quadruple(rng: np.random.Generator, max_norm: int = 6) -> Quadruple:
    while True:
        m = rng.integers(-max_norm, max_norm + 1, 4)
        if not np.any(m):
            continue
        q = Quadruple.normalized(*(int(v) for v in m))
        if q.max_norm() <= max_norm:
            return q


def saddle_cells(field, i0: int, j0: int, n: int):
    """(level, i, j) for every cell (i, j) in the n x n block at (i0, j0)
    that some level makes a saddle cell, with its diagonal corners on one
    side of the level and the other two on the other; widest gap first."""
    g = field.block(i0, j0, n + 1, n + 1)
    diagonal = (g[:-1, :-1], g[1:, 1:])
    anti = (g[1:, :-1], g[:-1, 1:])
    found = []
    for up, down in ((diagonal, anti), (anti, diagonal)):
        lo, hi = np.minimum(*up), np.maximum(*down)
        for i, j in zip(*np.nonzero(lo - hi > 1e-6)):
            found.append((lo[i, j] - hi[i, j], 0.5 * float(lo[i, j] + hi[i, j]),
                          i0 + int(i), j0 + int(j)))
    return [cell[1:] for cell in sorted(found, reverse=True)]
