"""Streamed level-line tracing over unbounded regions.

Level lines of the superposed potential can run arbitrarily far, so nothing
here ever materializes a global grid.  Corner values of f are evaluated
lazily in fixed-size chunks keyed by integer chunk coordinates; a trace only
pays for the cells it actually walks through, which makes long traces linear
in arc length and keeps memory proportional to the visited set.

The continuation itself is plain marching squares on the residual f - level:
inside each cell the crossing points on the cell edges are joined, the walk
steps to the neighbouring cell through the exit edge, and terminates when it
returns to its starting edge (closed) or runs out of arc-length or cell
budget.  Corner signs are made strict by nudging residuals within 1e-9 of
zero (relative to the potential's value scale) to the positive side; this
desingularizes levels at or next to critical values deterministically, and
every line reports whether the nudge fired.

Orientation is fixed once and for all: lines are walked with the region
f > level on their left.  Closed loops around a maximum therefore come out
counterclockwise (positive signed area) and loops around a minimum clockwise,
which is what lets ``energy_interval`` bisect for the open-line energy window
even when that window degenerates to a single level.
"""

from __future__ import annotations

import math
import numbers
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _walk
from ._walk import CHUNK, HORIZONTAL, SADDLE_EXIT, SIDE_CORNERS, VERTICAL
from .geometry import Rect, as_vec2, fields_equal
from .potential import SuperpositionPotential, eval_superposition

# Residuals below JITTER_REL * value_scale are pushed to +JITTER_REL * scale.
JITTER_REL = 1e-9

# A budget cell must resolve the shortest period at least this finely.
MIN_CELLS_PER_PERIOD = 8

# The default budget cell resolves the shortest period this finely.
CELLS_PER_PERIOD = 16

# The default arc budget spans this many of the longest period.
LENGTH_PERIODS = 200.0

# Classification follows a line to this many budgets, and to half as many;
# interval probes trace as deep.
CLASSIFY_DEPTH = 4.0

# for_potential refuses a budget whose cell cap, scaled to CLASSIFY_DEPTH,
# exceeds this.  Under a huge arc budget the cap is a walk's only limit, and
# a walk of 2**27 cells already takes minutes and gigabytes of vertices.
# That is about 1,300 times the scaled cap of `trace`'s default budget on
# the README potential (102,657 cells).
MAX_SCALED_CELLS = 2**27

# Fields built while _SHARE_FIRST_LAYER is set, which classifier.classify_family
# does, take the first layer's chunk values from _FIRST_LAYER_STORE: V depends
# on neither the twist angle nor the shift, so the fields of a sweep share its
# chunks for the life of the process.  It maps one key, V's values (never its
# id: pool workers unpickle a fresh layer per task) and h, to a ChunkStore of
# _FIRST_LAYER_CAP chunks (about 9 MB); a field of another key replaces it.
_FIRST_LAYER_CAP = 1024
_SHARE_FIRST_LAYER: ContextVar[bool] = ContextVar("_SHARE_FIRST_LAYER", default=False)
_FIRST_LAYER_STORE: dict[tuple, _walk.ChunkStore] = {}


class SeedNotOnLevelError(ValueError):
    """The seed's grid cell has no sign change of f - level."""


class BudgetError(ValueError):
    """Trace budget is inconsistent with the potential's periods."""


class LineStatus(Enum):
    CLOSED = "closed"
    OPEN_BUDGET_EXHAUSTED = "open-budget-exhausted"


@dataclass(frozen=True)
class TraceBudget:
    """Resolution and stopping rules for one trace.

    cell_size is the marching-squares grid spacing h, max_arc_length the
    total polyline length L at which an open trace stops, max_cells a hard
    cap on visited cells, an integer below 2**63 (memory/time guard).
    """

    cell_size: float
    max_arc_length: float
    max_cells: int

    def __post_init__(self):
        _check_positive("cell_size", self.cell_size)
        _check_positive("max_arc_length", self.max_arc_length)
        if not (isinstance(self.max_cells, numbers.Integral) and 1 <= self.max_cells < 2**63):
            raise BudgetError(f"max_cells {self.max_cells!r} is not an integer in [1, 2**63)")

    @staticmethod
    def for_potential(
        s: SuperpositionPotential,
        length_periods: float = LENGTH_PERIODS,
        cell_size: float | None = None,
        max_arc_length: float | None = None,
    ) -> "TraceBudget":
        """Defaults: h resolves the shortest period CELLS_PER_PERIOD-fold, L
        spans length_periods of the longest one, and the cell cap allows 8
        cells per unit of L/h.  cell_size and max_arc_length, when given,
        replace the per-period h and L.  Raises BudgetError when h is too
        coarse for the potential's shortest period, and before the cell cap
        is computed when h or L is not a positive number or the cap, scaled
        to CLASSIFY_DEPTH, overflows or exceeds MAX_SCALED_CELLS."""
        h = s.shortest_period() / CELLS_PER_PERIOD if cell_size is None else cell_size
        arc = length_periods * s.longest_period() if max_arc_length is None else max_arc_length
        _check_positive("cell_size", h)
        _check_positive("max_arc_length", arc)
        cells = 8 * arc / h
        # Classification and interval probes scale budgets up to CLASSIFY_DEPTH.
        if not math.isfinite(CLASSIFY_DEPTH * max(cells, arc)):
            raise BudgetError(f"max_arc_length {arc} at cell_size {h} overflows the cell cap")
        if CLASSIFY_DEPTH * cells > MAX_SCALED_CELLS:
            raise BudgetError(
                f"max_arc_length {arc} at cell_size {h} needs a cell cap of "
                f"{CLASSIFY_DEPTH * cells:.4g} at depth {CLASSIFY_DEPTH:g}, "
                f"over the ceiling of {MAX_SCALED_CELLS}"
            )
        budget = TraceBudget(h, arc, int(cells) + 64)
        _check_cell_size(s, h)
        return budget

    def scaled(self, factor: float) -> "TraceBudget":
        """Same resolution, arc-length and cell caps multiplied by factor."""
        return TraceBudget(
            self.cell_size,
            self.max_arc_length * factor,
            int(self.max_cells * factor) + 1,
        )


@dataclass(frozen=True)
class LevelLine:
    """One traced polyline at a fixed level."""

    level: float
    points: np.ndarray
    status: LineStatus
    arc_length: float
    seed: np.ndarray
    jitter_scale: float = 0.0

    __eq__ = fields_equal

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
            raise ValueError(f"polyline needs shape (n>=2, 2), got {pts.shape}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "seed", np.asarray(self.seed, dtype=float))

    @property
    def is_closed(self) -> bool:
        return self.status is LineStatus.CLOSED


def signed_area(points: np.ndarray) -> float:
    """Shoelace area of a closed polyline (first vertex repeated at the end).

    Positive means counterclockwise, which under the tracing convention is a
    loop enclosing f > level; negative encloses f < level.
    """
    x = points[:, 0]
    y = points[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def _check_positive(name: str, value: float):
    if not (value > 0 and math.isfinite(value)):
        raise BudgetError(f"{name} must be positive, got {value}")


def _check_cell_size(s: SuperpositionPotential, h: float):
    _check_positive("cell_size", h)
    limit = s.shortest_period() / MIN_CELLS_PER_PERIOD
    if h > limit * (1 + 1e-12):
        raise BudgetError(
            f"cell size {h} too coarse: shortest period {s.shortest_period()} "
            f"needs h <= {limit}"
        )


class ChunkedField:
    """Lazily evaluated corner values of f on the global h-grid.

    Corners sit at (i*h, j*h) for all integers; values are computed one
    CHUNK x CHUNK block at a time and cached, so repeated traces and level
    probes over the same region share evaluations (values are level
    independent: the residual shift happens at read time).  It owns the
    grid: the potential s, the cell size h (BudgetError unless it is positive
    and resolves s's shortest period) and the residual nudge delta.  A
    _walk.ChunkFill fills and indexes its chunks, for it and the compiled
    walks: bit for bit eval_superposition of a chunk's corners as one flat
    array where OpenBLAS has an FMA kernel.  Inside
    classifier.classify_family, compiled fills read V from the store.
    """

    def __init__(self, s: SuperpositionPotential, h: float):
        _check_cell_size(s, h)
        self.s = s
        self.h = float(h)
        self.delta = JITTER_REL * s.value_scale()
        v, store = s.v, None
        if _SHARE_FIRST_LAYER.get():
            key = (v._waves.tobytes(), v._amps.tobytes(), v._phases.tobytes(), self.h)
            store = _FIRST_LAYER_STORE.get(key)
            if store is None:
                _FIRST_LAYER_STORE.clear()
                store = _FIRST_LAYER_STORE[key] = _walk.ChunkStore(_FIRST_LAYER_CAP)
        self._fill = _walk.ChunkFill(s, self.h, store)
        self._chunk = self._fill.values  # (ci, cj) -> that chunk's corner values

    def view(self, ci: int, cj: int) -> memoryview:
        """Chunk (ci, cj) as a flat float view, row-major with CHUNK + 1
        columns; indexing it is much cheaper than indexing the array."""
        return memoryview(self._chunk(ci, cj)).cast("B").cast("d")

    def corner(self, gi: int, gj: int) -> float:
        ci, cj = gi // CHUNK, gj // CHUNK
        return self._chunk(ci, cj)[gi - ci * CHUNK, gj - cj * CHUNK]

    def block(self, i0: int, j0: int, ni: int, nj: int) -> np.ndarray:
        """Corner values for gi in [i0, i0+ni), gj in [j0, j0+nj)."""
        out = np.empty((ni, nj))
        ci0, ci1 = i0 // CHUNK, (i0 + ni - 1) // CHUNK
        cj0, cj1 = j0 // CHUNK, (j0 + nj - 1) // CHUNK
        for ci in range(ci0, ci1 + 1):
            for cj in range(cj0, cj1 + 1):
                vals = self._chunk(ci, cj)
                gi_lo = max(i0, ci * CHUNK)
                gi_hi = min(i0 + ni, ci * CHUNK + CHUNK + 1)
                gj_lo = max(j0, cj * CHUNK)
                gj_hi = min(j0 + nj, cj * CHUNK + CHUNK + 1)
                out[gi_lo - i0 : gi_hi - i0, gj_lo - j0 : gj_hi - j0] = vals[
                    gi_lo - ci * CHUNK : gi_hi - ci * CHUNK,
                    gj_lo - cj * CHUNK : gj_hi - cj * CHUNK,
                ]
        return out

    def window_block(self, window: Rect) -> tuple[int, int, np.ndarray]:
        """(i0, j0, values): the corners of every cell meeting the window,
        from corner (i0, j0) on.  Raises ValueError, before any corner is
        evaluated, when they number more than _walk.MAX_BLOCK_CORNERS or
        lie beyond grid index 2**62."""
        bounds = [c / self.h for c in (window.x0, window.y0, window.x1, window.y1)]
        if max(map(abs, bounds)) < 2.0**62:
            i0, j0 = math.floor(bounds[0]), math.floor(bounds[1])
            ni, nj = math.ceil(bounds[2]) - i0 + 1, math.ceil(bounds[3]) - j0 + 1
            if ni * nj <= _walk.MAX_BLOCK_CORNERS:
                return i0, j0, self.block(i0, j0, ni, nj)
        raise ValueError(
            f"window {window} is too wide for cell size {self.h}: it needs more than "
            f"{_walk.MAX_BLOCK_CORNERS} grid corners or grid indices beyond 2**62"
        )

    @property
    def cells_evaluated(self) -> int:
        return self._fill.chunks.count * (CHUNK + 1) ** 2


def _field(s: SuperpositionPotential, h: float, field: ChunkedField | None) -> ChunkedField:
    """The field a call on potential s at cell size h reads: a new one, or
    the given one, which must have been built for that s object and h."""
    if field is None:
        return ChunkedField(s, h)
    if field.s is not s:
        raise ValueError("field was built for another potential")
    if field.h != h:
        raise ValueError(f"field cell size {field.h} disagrees with h = {h}")
    return field


def find_seeds(
    s: SuperpositionPotential,
    level: float,
    window: Rect,
    h: float,
    field: ChunkedField | None = None,
) -> list[np.ndarray]:
    """One crossing point per connected piece of the level set in the window.

    Sign-change edges of f - level on the h-grid are grouped into connected
    components (edges sharing a cell belong to one crossing); each component
    contributes its lexicographically first edge's interpolated crossing.
    The count is therefore a resolution-independent estimate of how many
    distinct level-line pieces meet the window.
    """
    field = _field(s, h, field)
    if not math.isfinite(level):
        raise ValueError(f"level must be finite, got {level}")
    i0, j0, g = field.window_block(window)
    g -= level
    return [np.array((x, y)) for x, y, _ in _walk.seed_edges(field, i0, j0, g)]


# Per cell side (numbered as in _walk): the grid edge it is, as (orient,
# di, dj) relative to the cell; and the cell's corners as offsets.
_SIDE_EDGE = ((HORIZONTAL, 0, 0), (VERTICAL, 1, 0), (HORIZONTAL, 0, 1), (VERTICAL, 0, 0))
_CORNER_OFFSET = ((0, 0), (1, 0), (1, 1), (0, 1))


class _Walker:
    """Marching-squares continuation at one level over a chunked field."""

    def __init__(self, field: ChunkedField, level: float):
        self.field = field
        self.level = level
        self.h, self.delta = field.h, field.delta
        self.jitter_hits = 0

    def _nudged(self, g: float) -> float:
        """g, or +delta (counted as a jitter hit) when |g| is below delta."""
        if abs(g) < self.delta:
            self.jitter_hits += 1
            return self.delta
        return g

    def residual(self, gi: int, gj: int) -> float:
        return self._nudged(self.field.corner(gi, gj) - self.level)

    def crossing(self, edge: tuple[int, int, int]) -> tuple[float, float]:
        orient, gi, gj = edge
        g0 = self.residual(gi, gj)
        if orient == HORIZONTAL:
            t = g0 / (g0 - self.residual(gi + 1, gj))
            return (gi + t) * self.h, gj * self.h
        t = g0 / (g0 - self.residual(gi, gj + 1))
        return gi * self.h, (gj + t) * self.h

    def saddle_exit(self, index: int, i: int, j: int) -> int:
        if index not in SADDLE_EXIT:
            raise RuntimeError(f"inconsistent sign pattern in cell {(i, j)}")
        p = np.array([(i + 0.5) * self.h, (j + 0.5) * self.h])
        g = self._nudged(eval_superposition(self.field.s, p) - self.level)
        return SADDLE_EXIT[index][bool(g > 0)]

    def walk(self, edge, p0, forward, arc_limit, cell_limit):
        """Walk from the crossing p0 on grid edge (orient, gi, gj), forward
        (f > level on the left) or backward, until a stop condition.

        Returns (xs, ys, arc, reason, first_jitter, turns), xs and ys as
        float64 arrays.  Vertex k is the crossing on the side cell k was
        left through, computed as crossing() computes it; a closed walk ends
        on p0 itself.  reason is one of "closed", "budget" or "cells";
        first_jitter is the 1-based index of the first cell whose residuals
        were nudged, or None.  turns is the walk's left quarter turns less
        its right ones, one per cell left: 4 for a closed walk that runs
        counterclockwise, -4 for one that runs clockwise.
        """
        return _walk.walk(self, *_walk.start(self, edge, forward), float(p0[0]),
                          float(p0[1]), arc_limit, cell_limit)


def _locate_start(walker: _Walker, seed: np.ndarray) -> tuple[int, int, int]:
    """The crossed edge nearest to the seed of the cell containing it."""
    h = walker.h
    fx, fy = seed[0] / h, seed[1] / h
    i, j = math.floor(fx), math.floor(fy)
    candidates = [(i, j)]
    # A seed returned by find_seeds sits exactly on a grid edge; guard the
    # floor against landing one cell off.
    if abs(fx - round(fx)) < 1e-9:
        candidates.append((int(round(fx)) - 1, j))
    if abs(fy - round(fy)) < 1e-9:
        candidates.append((i, int(round(fy)) - 1))
        if abs(fx - round(fx)) < 1e-9:
            candidates.append((int(round(fx)) - 1, int(round(fy)) - 1))
    for ci, cj in candidates:
        g = [walker.residual(ci + di, cj + dj) for di, dj in _CORNER_OFFSET]
        crossed = [
            (orient, ci + di, cj + dj)
            for (a, b), (orient, di, dj) in zip(SIDE_CORNERS, _SIDE_EDGE)
            if g[a] * g[b] < 0
        ]
        if crossed:
            sx, sy = float(seed[0]), float(seed[1])

            def distance(e):
                x, y = walker.crossing(e)
                return (x - sx) * (x - sx) + (y - sy) * (y - sy), e

            return min(crossed, key=distance)
    raise SeedNotOnLevelError(
        f"no sign change of f - {walker.level} in the cell of seed {seed}"
    )


def _forward_limits(budget: TraceBudget) -> tuple[float, int]:
    """A forward walk's arc and cell limits: half the arc budget and the
    whole cell cap."""
    return budget.max_arc_length / 2, budget.max_cells


def _walk_forward(walker: _Walker, edge, p0, budget: TraceBudget):
    """The forward walk from the crossing p0 on edge."""
    return walker.walk(edge, p0, True, *_forward_limits(budget))


def trace_level_line(
    s: SuperpositionPotential,
    seed,
    level: float,
    budget: TraceBudget,
    field: ChunkedField | None = None,
) -> LevelLine:
    """Trace the level line through seed in both directions.

    The polyline is oriented with f > level on its left.  Tracing runs
    forward from the seed's grid edge, then backward, until the line closes,
    the combined arc length reaches the budget, or the cell cap is hit.
    """
    walker = _Walker(_field(s, budget.cell_size, field), level)
    seed = as_vec2(seed)
    if not math.isfinite(level):
        raise ValueError(f"level must be finite, got {level}")
    edge = _locate_start(walker, seed)
    p0 = p0x, p0y = walker.crossing(edge)
    start_jitter = walker.jitter_hits > 0
    fx, fy, farc, freason, fjitter, _ = _walk_forward(walker, edge, p0, budget)
    closed = freason == "closed"
    if closed:
        bx = by = np.empty(0)
        arc, bjitter = farc, None
    else:
        bx, by, barc, _, bjitter, _ = walker.walk(
            edge, p0, False, budget.max_arc_length - farc, budget.max_cells - len(fx)
        )
        arc = farc + barc

    jittered = start_jitter or fjitter is not None or bjitter is not None
    return LevelLine(
        level=level,
        points=np.column_stack((np.concatenate((bx[::-1], [p0x], fx)),
                                np.concatenate((by[::-1], [p0y], fy)))),
        status=LineStatus.CLOSED if closed else LineStatus.OPEN_BUDGET_EXHAUSTED,
        arc_length=arc,
        seed=seed,
        jitter_scale=walker.delta if jittered else 0.0,
    )


@dataclass(frozen=True)
class EnergyInterval:
    """Levels that admit open lines, as found by bisection."""

    lo: float
    hi: float
    found: bool
    degenerate: bool
    n_probes: int


def bisect(inside: float, outside: float, is_inside, tol: float) -> float:
    """Halve the bracket between a point inside a set and one outside it
    (in either order) until it is at most tol wide; return its midpoint.

    is_inside(x) decides which end each midpoint replaces.
    """
    while abs(outside - inside) > tol:
        mid = 0.5 * (inside + outside)
        if is_inside(mid):
            inside = mid
        else:
            outside = mid
    return 0.5 * (inside + outside)


_OPEN, _BELOW, _ABOVE = "open", "below", "above"
_PROBE_SEEDS = 12  # seeds traced per probed level
_COARSE_LEVELS = 9  # evenly spaced levels of the interval search's first scan


class _IntervalProbe:
    """Sorts a level into below / above / inside the open-line range.

    A level is inside when some seeded line stays open for the full arc
    budget.  Otherwise the orientation of the longest closed loop, read
    from its walk's turn count, decides the side: with values above the
    level kept on the left, loops around minima run clockwise (the level
    still sits below the open range) and loops around maxima run
    counterclockwise (above it).  Small loops of both orientations coexist
    at almost every level; the longest one is the one that tracks the
    large-scale connectivity, and its orientation flips exactly when the
    level sweeps through the open range.
    """

    def __init__(self, field: ChunkedField, window: Rect, budget: TraceBudget):
        self.field = field
        # The window's corner values, which every probed level's seeds are
        # found in.
        self.i0, self.j0, self.block = field.window_block(window)
        # Probe as deep as classification ever retraces, else loops with
        # perimeter just over the base budget would read as open lines and
        # inflate the interval.
        self.trace_budget = budget.scaled(CLASSIFY_DEPTH)
        self.f_min = float(self.block.min())
        self.count = 0

    def state(self, level: float) -> str:
        self.count += 1
        walker = _Walker(self.field, level)
        # Each of the first _PROBE_SEEDS seeds is walked forward as
        # _walk_forward walks it.  The seed is its edge's crossing bit for
        # bit: no need to locate it.  A trace is closed exactly when its
        # forward walk closes, and any open one decides the state: the
        # backward walk of a trace_level_line could never change it.
        turns = _walk.probe(walker, self.i0, self.j0, self.block, _PROBE_SEEDS,
                            *_forward_limits(self.trace_budget))
        if turns is None:
            return _OPEN
        if turns == 0:  # no seeds
            return _BELOW if level <= self.f_min else _ABOVE
        return _ABOVE if turns > 0 else _BELOW


def energy_interval(
    s: SuperpositionPotential,
    window: Rect,
    budget: TraceBudget,
    eps_min: float,
    eps_max: float,
    tol_eps: float,
    field: ChunkedField | None = None,
) -> EnergyInterval:
    """Bisect for the interval of levels carrying open lines.

    Level states are totally ordered (below, inside, above), so the search
    runs in two stages.  A coarse scan looks for a level with an open line;
    if none shows up, bisecting the below/above transition either lands on
    one or collapses to the degenerate single-level interval, which is what
    the unperturbed separatrix case produces.  Around a level known to be
    inside, both boundaries are then refined with the open-line predicate
    alone until the brackets are narrower than tol_eps.
    """
    for name, value in (("eps_min", eps_min), ("eps_max", eps_max),
                        ("eps_max - eps_min", eps_max - eps_min)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not eps_min < eps_max:
        raise ValueError("need eps_min < eps_max")
    if not (tol_eps > 0 and math.isfinite(tol_eps)):
        raise ValueError(f"tol_eps must be positive and finite, got {tol_eps}")
    probe = _IntervalProbe(_field(s, budget.cell_size, field), window, budget)

    levels = np.linspace(eps_min, eps_max, _COARSE_LEVELS)
    states = {float(e): probe.state(float(e)) for e in levels}
    ordered = sorted(states)

    open_levels = [e for e in ordered if states[e] == _OPEN]
    if open_levels:
        open_lo = min(open_levels)
        open_hi = max(open_levels)
        below = [e for e in ordered if states[e] == _BELOW and e < open_lo]
        above = [e for e in ordered if states[e] == _ABOVE and e > open_hi]
        below_anchor = max(below) if below else eps_min
        above_anchor = min(above) if above else eps_max
    else:
        bracket = None
        for a, b in zip(ordered, ordered[1:]):
            if states[a] == _BELOW and states[b] == _ABOVE:
                bracket = (a, b)
                break
        if bracket is None:
            return EnergyInterval(0.0, 0.0, False, False, probe.count)
        lo_b, hi_b = bracket
        hit = None
        while hi_b - lo_b > tol_eps:
            mid = 0.5 * (lo_b + hi_b)
            st = probe.state(mid)
            if st == _OPEN:
                hit = mid
                break
            if st == _BELOW:
                lo_b = mid
            else:
                hi_b = mid
        if hit is None:
            mid = 0.5 * (lo_b + hi_b)
            return EnergyInterval(mid, mid, True, True, probe.count)
        open_lo = open_hi = hit
        below_anchor, above_anchor = lo_b, hi_b

    def is_open(level):
        return probe.state(level) == _OPEN

    # When the open range touches a bracket edge the final bracket ends
    # coincide there, so taking midpoints is right in every case.
    lo = bisect(open_lo, below_anchor, is_open, tol_eps)
    hi = bisect(open_hi, above_anchor, is_open, tol_eps)
    if hi - lo < tol_eps:
        mid = 0.5 * (lo + hi)
        return EnergyInterval(mid, mid, True, True, probe.count)
    return EnergyInterval(lo, hi, True, False, probe.count)
