"""Sweep the twist angle and map out stability zones.

A stability zone is a parameter interval over which regular open lines keep
one and the same integer quadruple.  The sweep samples a grid of angles,
classifies one open line for several layer shifts per angle (the label must
not depend on the shift), and zone detection collapses maximal runs of equal
quadruples, refining the zone boundaries by bisection and spot-checking each
zone at a fresh interior angle.

Everything is deterministic given the configuration: per-angle shift samples
are drawn from a generator seeded with (seed, bit pattern of alpha), so the
same angle always gets the same shifts no matter the execution order or the
number of worker processes.
"""

from __future__ import annotations

import importlib
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from . import _walk
from .geometry import EuclideanTransform, Rect
from .potential import (
    DEFAULT_COMMENSURATE_BOUND,
    Combiner,
    PeriodicPotential,
    Sum,
    SuperpositionPotential,
)
from .tracer import CELLS_PER_PERIOD, EnergyInterval, TraceBudget, bisect
from .classifier import (
    DEFAULT_QUAD_BOUND,
    K_GROW,
    MAX_SEEDS,
    TAU_SAT,
    FamilyVerdict,
    Quadruple,
    classification_to_dict,
    classify_family,
)
from .output import fmt_float


@dataclass(frozen=True)
class SweepConfig:
    """Resolved parameters of one angle sweep; hashable into a manifest."""

    alpha_start: float
    alpha_end: float
    alpha_count: int
    shifts_per_alpha: int = 3
    seed: int = 0
    level: float | None = None  # None: per-angle energy-interval midpoint
    tol_eps: float = 1e-3
    length_periods: float = 60.0
    window_periods: float = 4.0
    workers: int = 1
    cell_h: float | None = None  # absolute overrides beat the per-period knobs
    budget_arc: float | None = None

    def __post_init__(self):
        for name in ("alpha_start", "alpha_end"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("alpha_count", "shifts_per_alpha", "seed", "workers"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not self.alpha_start < self.alpha_end:
            raise ValueError("need alpha_start < alpha_end")
        if self.alpha_count < 2:
            raise ValueError("need at least two sample angles")
        if self.shifts_per_alpha < 1:
            raise ValueError("need at least one shift per angle")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.level is not None and not math.isfinite(self.level):
            raise ValueError(f"level must be finite, got {self.level}")
        if not (self.tol_eps > 0 and math.isfinite(self.tol_eps)):
            raise ValueError(f"tol_eps must be positive and finite, got {self.tol_eps}")
        for name in ("cell_h", "budget_arc"):
            value = getattr(self, name)
            if value is not None and not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")

    def alphas(self) -> np.ndarray:
        return np.linspace(self.alpha_start, self.alpha_end, self.alpha_count)

    def to_params(self) -> dict:
        # The fixed budget and classification constants, recorded for
        # provenance.
        return asdict(self) | {
            "cells_per_period": CELLS_PER_PERIOD, "tau_sat": TAU_SAT, "k_grow": K_GROW,
            "quad_bound": DEFAULT_QUAD_BOUND,
            "commensurate_bound": DEFAULT_COMMENSURATE_BOUND, "max_seeds": MAX_SEEDS,
        }


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    samples: tuple


def _alpha_rng(seed: int, alpha: float, *extra: int) -> np.random.Generator:
    bits = int(np.float64(alpha).view(np.uint64))
    return np.random.default_rng([seed, bits, *extra])


def sample_shifts(
    u: PeriodicPotential, seed: int, alpha: float, count: int
) -> list[np.ndarray]:
    """Uniform shifts over the second layer's unit cell, keyed by (seed, alpha)."""
    t = _alpha_rng(seed, alpha).random((count, 2))
    return [t[k] @ u.lattice.basis for k in range(count)]


def _sample_alpha(
    v, u, combiner, cfg: SweepConfig, budget: TraceBudget, window: Rect, alpha: float
) -> FamilyVerdict:
    alpha = float(alpha)
    try:
        shifts = sample_shifts(u, cfg.seed, alpha, cfg.shifts_per_alpha)
        return classify_family(
            v, u, alpha, shifts, window, budget, combiner, cfg.level, cfg.tol_eps
        )
    except Exception as err:  # per-point failures stay in the record
        return FamilyVerdict(
            alpha=alpha, shifts=(), intervals=(None,), levels=(None,),
            classifications=(), quadruple=None, mean_width=None, verdict="error",
            commensurate=False, error=f"{type(err).__name__}: {err}",
        )


# The pool of the innermost open shared_pool, if any.
_POOL: ContextVar[ProcessPoolExecutor | None] = ContextVar("_POOL", default=None)


@contextmanager
def shared_pool(workers: int):
    """Run every pool map inside the block on one pool of `workers`
    processes, so that a zones run starts its workers once for the grid,
    the edge bisections and the verify samples.  Inside an open shared pool
    this opens none; with one worker no process starts."""
    if workers < 2 or _POOL.get() is not None:
        yield
        return
    # Forked workers inherit the compiled library and numpy.random (which
    # draws the shifts) instead of each loading them.
    _walk.kernel()
    importlib.import_module("numpy.random")
    with ProcessPoolExecutor(max_workers=workers) as pool:
        token = _POOL.set(pool)
        try:
            yield
        finally:
            _POOL.reset(token)


def _map(fn, jobs: list[tuple], workers: int) -> list:
    """[fn(*job) for job in jobs], on a process pool when workers > 1.

    Results come back in job order, never in completion order.  An open
    shared pool is used; else a pool of at most one process per job.  With
    one worker no process starts and nothing is pickled, so fn may be a closure.
    """
    if workers > 1 and jobs:
        with shared_pool(min(workers, len(jobs))):
            pool = _POOL.get()
            if pool is not None:
                return list(pool.map(fn, *zip(*jobs)))
    return [fn(*job) for job in jobs]


def sweep_angle(
    v: PeriodicPotential,
    u: PeriodicPotential,
    config: SweepConfig,
    combiner: Combiner = Sum(),
) -> SweepResult:
    """Classify the potential family at every angle on the configured grid.

    Per-angle work is independent; with workers > 1 it runs on a process
    pool.  Results are keyed by angle, never by completion order, so the
    outcome is identical for any worker count.
    """
    point_fn = make_point_fn(v, u, config, combiner)
    samples = _map(point_fn, [(a,) for a in config.alphas()], config.workers)
    return SweepResult(config=config, samples=tuple(samples))


def make_point_fn(
    v: PeriodicPotential,
    u: PeriodicPotential,
    config: SweepConfig,
    combiner: Combiner = Sum(),
):
    """The per-angle sampler: alpha -> FamilyVerdict under this config.

    The trace budget and the seeding window depend only on the layer
    periods, so they are resolved here once; a cell size too coarse for the
    layers raises BudgetError before any angle is sampled.  The sampler
    pickles, so sweep_angle and detect_zones can send it to pool workers.
    """
    s = SuperpositionPotential(v, u, EuclideanTransform(0.0), combiner)
    budget = TraceBudget.for_potential(
        s, length_periods=config.length_periods, cell_size=config.cell_h,
        max_arc_length=config.budget_arc,
    )
    window = Rect.centered((0.0, 0.0), config.window_periods * s.longest_period())
    return partial(_sample_alpha, v, u, combiner, config, budget, window)


@dataclass(frozen=True)
class StabilityZone:
    """Maximal angle interval holding one quadruple."""

    alpha_lo: float
    alpha_hi: float
    quadruple: Quadruple
    sample_alphas: tuple
    mean_width: float
    verified: bool | None = None
    verify_alpha: float | None = None


@dataclass(frozen=True)
class ZoneSet:
    zones: tuple
    complement: tuple  # (lo, hi) gaps carrying no zone
    refine_tol: float


def _in_zone(point_fn, zone_q, alpha) -> bool:
    s = point_fn(alpha)
    return s.verdict == "regular" and s.quadruple == zone_q


MIN_ZONE_SAMPLES = 2  # shortest run of equal regular samples that is a zone


def detect_zones(
    result: SweepResult,
    refine_tol: float = 1e-3,
    point_fn=None,
) -> ZoneSet:
    """Collapse equal-quadruple runs into zones and refine their edges.

    Runs of at least MIN_ZONE_SAMPLES consecutive regular samples with one
    quadruple become zones; shorter runs are below the resolution of the
    sample grid and are treated as noise.  (Near an angle where two
    candidate quadruples annihilate the same direction — which happens at
    every low-order commensurate twist — a lone sample can pick up the
    competing label; demanding persistence across neighbouring grid angles
    screens those out.)  With a point sampler the zone edges are bisected
    against the adjacent off-zone samples down to refine_tol, and every
    zone is spot-checked at a deterministic fresh interior angle; without
    one the raw sample bounds stand.  Angles between zones (and between
    zones and the sweep ends) are reported as the complement.

    All edges are bisected at once, then all zones verified at once, on
    result.config.workers processes; with more than one, point_fn must
    pickle (make_point_fn's does).
    """
    if not (refine_tol > 0 and math.isfinite(refine_tol)):
        raise ValueError(f"refine_tol must be positive and finite, got {refine_tol}")
    samples = result.samples
    cfg = result.config

    runs = []  # (first_index, last_index, quadruple)
    k = 0
    while k < len(samples):
        s = samples[k]
        if s.verdict == "regular" and s.quadruple is not None:
            j = k
            while (
                j + 1 < len(samples)
                and samples[j + 1].verdict == "regular"
                and samples[j + 1].quadruple == s.quadruple
            ):
                j += 1
            if j - k + 1 >= MIN_ZONE_SAMPLES:
                runs.append((k, j, s.quadruple))
            k = j + 1
        else:
            k += 1

    bounds = [[samples[k0].alpha, samples[k1].alpha] for k0, k1, _ in runs]
    if point_fn is not None:
        # Every zone edge with an off-zone sample beyond it: (zone, side, sample).
        edges = [
            (z, side, out)
            for z, (k0, k1, _) in enumerate(runs)
            for side, out in ((0, k0 - 1), (1, k1 + 1))
            if 0 <= out < len(samples)
        ]
        # Bisect between the zone's edge sample and the one outside it.
        jobs = [
            (bounds[z][side], samples[out].alpha,
             partial(_in_zone, point_fn, runs[z][2]), refine_tol)
            for z, side, out in edges
        ]
        for (z, side, _), alpha in zip(edges, _map(bisect, jobs, cfg.workers)):
            bounds[z][side] = alpha

    zones = []
    for (k0, k1, q), (lo, hi) in zip(runs, bounds):
        members = samples[k0 : k1 + 1]
        widths = [s.mean_width for s in members if s.mean_width is not None]
        zones.append(
            StabilityZone(
                alpha_lo=lo,
                alpha_hi=hi,
                quadruple=q,
                sample_alphas=tuple(s.alpha for s in members),
                mean_width=float(np.mean(widths)) if widths else float("nan"),
            )
        )

    if point_fn is not None:
        alphas = [
            lo + (0.05 + 0.9 * _alpha_rng(cfg.seed, lo, 7919).random()) * (hi - lo)
            for lo, hi in bounds
        ]
        checks = _map(point_fn, [(a,) for a in alphas], cfg.workers)
        zones = [
            replace(
                z,
                verified=c.verdict == "regular" and c.quadruple == z.quadruple,
                verify_alpha=a,
            )
            for z, a, c in zip(zones, alphas, checks)
        ]

    complement = []
    cursor = cfg.alpha_start
    for z in zones:
        if z.alpha_lo > cursor + refine_tol:
            complement.append((cursor, z.alpha_lo))
        cursor = max(cursor, z.alpha_hi)
    if cfg.alpha_end > cursor + refine_tol:
        complement.append((cursor, cfg.alpha_end))

    return ZoneSet(zones=tuple(zones), complement=tuple(complement), refine_tol=refine_tol)


# ---------------------------------------------------------------------------
# Reports

ZONES_CSV_HEADER = "alpha_lo,alpha_hi,m1,m2,m3,m4,mean_width,samples"

SWEEP_CSV_HEADER = (
    "alpha,verdict,m1,m2,m3,m4,mean_width,level,interval_lo,interval_hi,"
    "commensurate,error"
)


def zones_to_csv(zone_set: ZoneSet) -> str:
    rows = [ZONES_CSV_HEADER]
    for z in zone_set.zones:
        m = z.quadruple.as_tuple()
        rows.append(
            ",".join(
                [
                    fmt_float(z.alpha_lo),
                    fmt_float(z.alpha_hi),
                    str(m[0]),
                    str(m[1]),
                    str(m[2]),
                    str(m[3]),
                    fmt_float(z.mean_width),
                    str(len(z.sample_alphas)),
                ]
            )
        )
    return "\n".join(rows) + "\n"


def sweep_to_csv(result: SweepResult) -> str:
    rows = [SWEEP_CSV_HEADER]
    for s in result.samples:
        m = s.quadruple.as_tuple() if s.quadruple else ("", "", "", "")
        interval, level = s.intervals[0], s.levels[0]
        rows.append(
            ",".join(
                [
                    fmt_float(s.alpha),
                    s.verdict,
                    str(m[0]),
                    str(m[1]),
                    str(m[2]),
                    str(m[3]),
                    fmt_float(s.mean_width) if s.mean_width is not None else "",
                    fmt_float(level) if level is not None else "",
                    fmt_float(interval.lo) if interval and interval.found else "",
                    fmt_float(interval.hi) if interval and interval.found else "",
                    "1" if s.commensurate else "0",
                    (s.error or "").replace(",", ";"),
                ]
            )
        )
    return "\n".join(rows) + "\n"


def _interval_to_dict(iv: EnergyInterval | None):
    if iv is None:
        return None
    return {
        "lo": iv.lo,
        "hi": iv.hi,
        "found": iv.found,
        "degenerate": iv.degenerate,
        "n_probes": iv.n_probes,
    }


def sample_to_dict(s: FamilyVerdict) -> dict:
    return {
        "alpha": s.alpha,
        "verdict": s.verdict,
        "quadruple": list(s.quadruple.as_tuple()) if s.quadruple else None,
        "mean_width": s.mean_width,
        "level": s.levels[0],
        "interval": _interval_to_dict(s.intervals[0]),
        "commensurate": s.commensurate,
        "shifts": [[float(a[0]), float(a[1])] for a in s.shifts],
        "classifications": [classification_to_dict(c) for c in s.classifications],
        "error": s.error,
    }


def result_to_dict(result: SweepResult, zone_set: ZoneSet | None = None) -> dict:
    out = {
        "parameters": result.config.to_params(),
        "samples": [sample_to_dict(s) for s in result.samples],
    }
    if zone_set is not None:
        out["zones"] = [
            {
                "alpha_lo": z.alpha_lo,
                "alpha_hi": z.alpha_hi,
                "quadruple": list(z.quadruple.as_tuple()),
                "mean_width": z.mean_width,
                "samples": len(z.sample_alphas),
                "sample_alphas": list(z.sample_alphas),
                "verified": z.verified,
                "verify_alpha": z.verify_alpha,
            }
            for z in zone_set.zones
        ]
        out["complement"] = [[lo, hi] for lo, hi in zone_set.complement]
        out["refine_tol"] = zone_set.refine_tol
    return out


def zones_to_svg(zone_set: ZoneSet, config: SweepConfig) -> str:
    """Angle-circle diagram: each zone an arc colored by its quadruple."""
    from .output import color_for_key

    size = 520  # side of the square diagram, in pixels
    c = size / 2
    radius = 0.40 * size

    def arc_path(a0: float, a1: float) -> str:
        x0, y0 = c + radius * np.cos(a0), c - radius * np.sin(a0)
        x1, y1 = c + radius * np.cos(a1), c - radius * np.sin(a1)
        large = 1 if (a1 - a0) % (2 * np.pi) > np.pi else 0
        return f"M{x0:.6g} {y0:.6g} A{radius:.6g} {radius:.6g} 0 {large} 0 {x1:.6g} {y1:.6g}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<circle cx="{c}" cy="{c}" r="{radius:.6g}" fill="none" stroke="#ccc" '
        f'stroke-width="1"/>',
        f'<path d="{arc_path(config.alpha_start, config.alpha_end)}" '
        f'fill="none" stroke="#888" stroke-width="2" data-role="sweep-range"/>',
    ]
    for z in zone_set.zones:
        label = ",".join(str(v) for v in z.quadruple.as_tuple())
        color = color_for_key(f"quadruple:{label}")
        parts.append(
            f'<path d="{arc_path(z.alpha_lo, z.alpha_hi)}" fill="none" '
            f'stroke="{color}" stroke-width="10" stroke-linecap="butt" '
            f'data-role="zone" data-quadruple="{label}" '
            f'data-alpha-lo="{fmt_float(z.alpha_lo)}" '
            f'data-alpha-hi="{fmt_float(z.alpha_hi)}"/>'
        )
        mid = 0.5 * (z.alpha_lo + z.alpha_hi)
        tx = c + 0.47 * size * np.cos(mid)
        ty = c - 0.47 * size * np.sin(mid)
        parts.append(
            f'<text x="{tx:.6g}" y="{ty:.6g}" font-size="11" text-anchor="middle" '
            f'fill="{color}">({label})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
