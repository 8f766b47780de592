"""Classify traced lines and label regular ones with an integer quadruple.

An open level line of the superposition is *regular* when it stays inside a
straight strip of finite width; the strip's direction is then perpendicular
to an integer combination

    G = m1*v'1 + m2*v'2 + m3*u'1 + m4*u'2

of the reciprocal basis vectors of the two layer lattices (the second
lattice taken in plane coordinates, i.e. rotated along with its layer).
The quadruple (m1, m2, m3, m4) is the topological label of the line and is
locally constant in the problem parameters, which is what the sweep module
exploits.  Chaotic lines have no such strip: their transverse extent keeps
growing with trace length.

The decision rule is operational and fixed: follow the same line for twice
and four times the arc length and compare strip widths.  Saturation within
TAU_SAT is regular, growth by K_GROW or more is chaotic, anything in between
is reported honestly as undetermined.  Each line is traced at
CLASSIFY_DEPTH times the budget first, and at one and two budgets only when
that trace stays open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .geometry import EuclideanTransform, Lattice2, Rect, fields_equal, reciprocal_basis, rot90
from .potential import (
    Combiner,
    PeriodicPotential,
    Sum,
    SuperpositionPotential,
    is_commensurate,
)
from .tracer import (
    CLASSIFY_DEPTH,
    ChunkedField,
    EnergyInterval,
    LevelLine,
    TraceBudget,
    _SHARE_FIRST_LAYER,
    _field,
    energy_interval,
    find_seeds,
    trace_level_line,
)

DEFAULT_QUAD_BOUND = 12  # default of recover_quadruple; classify searches it
TAU_SAT = 0.15  # width growth within 1 + TAU_SAT: regular
K_GROW = 1.8  # width growth by K_GROW or more: chaotic
MAX_SEEDS = 10  # seeds classify_first_open tries
MIN_FIT_VERTICES = 100  # fewest vertices a direction fit accepts


class LineFitError(ValueError):
    """Line unsuitable for a direction fit (closed or too few vertices)."""


class ZeroAnnihilatorError(ValueError):
    """The quadruple's reciprocal combination vanishes; no direction exists."""


def _gcd4(m1: int, m2: int, m3: int, m4: int) -> int:
    return reduce(math.gcd, (abs(m1), abs(m2), abs(m3), abs(m4)))


@dataclass(frozen=True, order=True)
class Quadruple:
    """Irreducible, sign-normalized integer label (m1, m2, m3, m4)."""

    m1: int
    m2: int
    m3: int
    m4: int

    def __post_init__(self):
        m = (self.m1, self.m2, self.m3, self.m4)
        if not any(m):
            raise ValueError("quadruple must be nonzero")
        if _gcd4(*m) != 1:
            raise ValueError(f"quadruple {m} is reducible; use Quadruple.normalized")
        first = next(v for v in m if v != 0)
        if first < 0:
            raise ValueError(f"quadruple {m} has negative leading entry")

    @staticmethod
    def normalized(m1: int, m2: int, m3: int, m4: int) -> "Quadruple":
        m = (int(m1), int(m2), int(m3), int(m4))
        if not any(m):
            raise ValueError("quadruple must be nonzero")
        g = _gcd4(*m)
        m = tuple(v // g for v in m)
        if next(v for v in m if v != 0) < 0:
            m = tuple(-v for v in m)
        return Quadruple(*m)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.m1, self.m2, self.m3, self.m4)

    def max_norm(self) -> int:
        return max(abs(v) for v in self.as_tuple())


def quadruple_basis(lat_v: Lattice2, lat_u_plane: Lattice2) -> np.ndarray:
    """Rows (v'1, v'2, u'1, u'2): the reciprocal vectors the quadruple weighs."""
    fv1, fv2 = reciprocal_basis(lat_v)
    fu1, fu2 = reciprocal_basis(lat_u_plane)
    return np.vstack([fv1, fv2, fu1, fu2])


@dataclass(frozen=True)
class DirectionFit:
    """Principal direction of a vertex cloud and its RMS transverse spread."""

    direction: np.ndarray
    residual: float

    __eq__ = fields_equal


def fit_direction(line: LevelLine) -> DirectionFit:
    """Principal axis of the line's vertices.

    The sign is fixed to point along the endpoint displacement, the residual
    is the root-mean-square deviation transverse to the axis.  The line must
    be open, with MIN_FIT_VERTICES vertices or more.
    """
    if line.is_closed:
        raise LineFitError("direction fit needs an open line")
    pts = line.points
    if len(pts) < MIN_FIT_VERTICES:
        raise LineFitError(f"need at least {MIN_FIT_VERTICES} vertices, got {len(pts)}")
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / len(pts)
    eigvals, eigvecs = np.linalg.eigh(cov)
    direction = eigvecs[:, 1]
    if float(direction @ (pts[-1] - pts[0])) < 0:
        direction = -direction
    residual = math.sqrt(max(float(eigvals[0]), 0.0))
    d = direction.copy()
    d.setflags(write=False)
    return DirectionFit(direction=d, residual=residual)


def strip_width(line: LevelLine, direction) -> float:
    """Peak-to-peak extent of the vertices transverse to direction."""
    n = rot90(np.asarray(direction, dtype=float))
    t = line.points @ n
    return float(t.max() - t.min())


def _shell(k: int) -> np.ndarray:
    """Rows (m1, m2, m3, m4) with max |m_i| = k and m1 >= 0, as floats.

    Built anew on every call, so a search holds no shell after it returns.
    Float rows multiply the basis exactly as the integer rows would.
    """
    r = np.arange(-k, k + 1, dtype=float)
    cube = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    face = cube[np.abs(cube).max(axis=1) == k]
    # m1 = 0..k-1 beside each face row, then m1 = k beside the whole cube.
    return np.vstack([
        np.column_stack([np.repeat(r[k:-1], len(face)), np.tile(face, (k, 1))]),
        np.column_stack([np.full(len(cube), float(k)), cube]),
    ])


def recover_quadruple(
    direction,
    lat_v: Lattice2,
    lat_u_plane: Lattice2,
    bound: int = DEFAULT_QUAD_BOUND,
    tol: float = 1e-9,
) -> Quadruple | None:
    """Smallest integer quadruple whose reciprocal combination annihilates
    the direction.

    Exhaustive over |m_i| <= bound.  A candidate must have a nonzero
    combination G with |G . direction| < tol; combinations that vanish
    identically carry no information and are skipped.  Among irreducible,
    sign-normalized candidates the winner minimizes, in order: the max norm,
    the l1 norm, the weight on the later basis vectors (|m4|, then |m3|,
    then |m2|, then |m1|), and finally plain tuple order.  The cascade is
    what makes degenerate geometries (identical layers, symmetric
    directions) resolve deterministically.  Raises ValueError unless bound
    is a positive integer, tol positive and finite, and direction nonzero
    with a finite norm.
    """
    if not (bound >= 1 and float(bound).is_integer()):
        raise ValueError(f"bound must be a positive integer, got {bound}")
    bound = int(bound)
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    l = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(l))
    if not (norm > 0 and math.isfinite(norm)):
        raise ValueError(f"direction must be nonzero with a finite norm, got {direction}")
    l = l / norm
    basis = quadruple_basis(lat_v, lat_u_plane)
    g_floor = 1e-12 * float(np.max(np.linalg.norm(basis, axis=1)))

    # Shells of max norm k = 1..bound, with m1 >= 0.  A row with m1 < 0 is
    # the negation of a kept row: its G is the exact negation too, so it
    # passes the same tests and normalizes to the same quadruple.  The
    # winner minimizes the max norm first, so the first shell holding an
    # irreducible hit holds it, and the rest of the cascade picks it there.
    # Each shell row's products equal those of the full table bit for bit;
    # a one-row product may round differently, and no shell is ever one row.
    for k in range(1, bound + 1):
        shell = _shell(k)
        g = shell @ basis
        near = np.abs(g @ l) < tol
        g = g[near]
        m = shell[near][np.einsum("ij,ij->i", g, g) > g_floor * g_floor].astype(np.int64)
        m = m[np.gcd.reduce(np.abs(m), axis=1) == 1]
        if len(m):
            break
    else:
        return None
    first = np.argmax(m != 0, axis=1)
    lead = m[np.arange(len(m)), first]
    m = np.where((lead < 0)[:, None], -m, m)
    a = np.abs(m)
    order = np.lexsort(
        (
            m[:, 3], m[:, 2], m[:, 1], m[:, 0],
            a[:, 0], a[:, 1], a[:, 2], a[:, 3],
            a.sum(axis=1),
        )
    )
    return Quadruple(*(int(v) for v in m[order[0]]))


def direction_from_quadruple(
    q: Quadruple, lat_v: Lattice2, lat_u_plane: Lattice2
) -> np.ndarray:
    """Unit direction annihilated by the quadruple: G rotated by 90 degrees."""
    basis = quadruple_basis(lat_v, lat_u_plane)
    g = np.asarray(q.as_tuple(), dtype=float) @ basis
    norm = float(np.linalg.norm(g))
    if norm <= 1e-12 * float(np.max(np.linalg.norm(basis, axis=1))):
        raise ZeroAnnihilatorError(
            f"{q.as_tuple()} annihilates every direction for these lattices"
        )
    return rot90(g) / norm


@dataclass(frozen=True)
class Closed:
    diameter: float


@dataclass(frozen=True)
class Regular:
    quadruple: Quadruple
    direction: np.ndarray
    strip_width: float
    residual: float
    widths_by_length: tuple[tuple[float, float], ...]

    __eq__ = fields_equal


@dataclass(frozen=True)
class Chaotic:
    widths_by_length: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class Undetermined:
    reason: str
    widths_by_length: tuple[tuple[float, float], ...] = ()


Classification = Closed | Regular | Chaotic | Undetermined


def _hull(points: np.ndarray) -> list[tuple[float, float]]:
    """Convex hull vertices, counterclockwise, by Andrew's monotone chain.

    Collinear points on an edge are dropped; fewer than three distinct
    points are returned as they are.
    """
    pts = sorted(set(map(tuple, points.tolist())))
    if len(pts) < 3:
        return pts

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 0:
                    break
                chain.pop()
            chain.append(p)
        return chain[:-1]

    return half(pts) + half(reversed(pts))


def _diameter(points: np.ndarray) -> float:
    """Max pairwise distance, via the convex hull to stay O(n log n)."""
    hull = np.array(_hull(points))
    if len(hull) < 3:
        # Degenerate (collinear) loop; the bounding-box diagonal is exact then.
        span = points.max(axis=0) - points.min(axis=0)
        return float(np.hypot(*span))
    d2 = np.sum((hull[:, None, :] - hull[None, :, :]) ** 2, axis=-1)
    return float(math.sqrt(d2.max()))


def _classify_seed(
    s: SuperpositionPotential,
    field: ChunkedField,
    seed,
    level: float,
    budget: TraceBudget,
) -> tuple[LevelLine, Classification | None]:
    """Trace one seed at CLASSIFY_DEPTH times the budget, and classify it.

    A closed trace is returned with None.  Otherwise the seed is traced
    again at one and two budgets and the three strip widths compared:
    saturation (within TAU_SAT) is regular, growth (by K_GROW or more)
    chaotic.  Returns the trace at the budget and its classification.  A
    regular line's quadruple is searched over |m_i| <= DEFAULT_QUAD_BOUND
    with tolerance 2 * residual / arc_length, the angular uncertainty of the
    fit, floored at 1e-12 so an exactly straight line still admits candidates.
    """
    long_line = trace_level_line(
        s, seed, level, budget.scaled(CLASSIFY_DEPTH), field=field
    )
    if long_line.is_closed:
        return long_line, None
    lines = [
        trace_level_line(s, seed, level, b, field=field)
        for b in (budget, budget.scaled(CLASSIFY_DEPTH / 2))
    ] + [long_line]

    try:
        fits = [fit_direction(ln) for ln in lines]
    except LineFitError as err:
        return lines[0], Undetermined(reason=f"direction fit failed: {err}")
    widths = [strip_width(ln, fit.direction) for ln, fit in zip(lines, fits)]
    widths_by_length = tuple(
        (ln.arc_length, w) for ln, w in zip(lines, widths)
    )

    w1 = max(widths[0], 1e-300)
    growth = widths[2] / w1
    if growth <= 1.0 + TAU_SAT:
        fit = fits[2]
        quad_tol = max(2.0 * fit.residual / lines[2].arc_length, 1e-12)
        q = recover_quadruple(
            fit.direction, s.v.lattice, s.rotated_u_lattice(), tol=quad_tol
        )
        if q is None:
            return lines[0], Undetermined(
                reason="strip width saturated but no quadruple within "
                f"|m|<={DEFAULT_QUAD_BOUND}",
                widths_by_length=widths_by_length,
            )
        return lines[0], Regular(
            quadruple=q,
            direction=fit.direction,
            strip_width=widths[2],
            residual=fit.residual,
            widths_by_length=widths_by_length,
        )
    if growth >= K_GROW:
        return lines[0], Chaotic(widths_by_length=widths_by_length)
    return lines[0], Undetermined(
        reason=(
            f"width growth {growth:.3f} between saturation (<= {1 + TAU_SAT:.3f}) "
            f"and chaos (>= {K_GROW:.3f}) thresholds"
        ),
        widths_by_length=widths_by_length,
    )


def classify(
    s: SuperpositionPotential, line: LevelLine, budget: TraceBudget
) -> Classification:
    """Decide closed / regular / chaotic / undetermined for one line.

    The line must have been traced from its seed with the given budget; an
    open one is classified as classify_first_open classifies its seed.
    """
    if not line.is_closed:
        field = ChunkedField(s, budget.cell_size)
        line, c = _classify_seed(s, field, line.seed, line.level, budget)
        if c is not None:
            return c
    return Closed(diameter=_diameter(line.points))


def classify_first_open(
    s: SuperpositionPotential,
    level: float,
    window: Rect,
    budget: TraceBudget,
    field: ChunkedField | None = None,
) -> tuple[LevelLine, Classification] | None:
    """Classify the first genuinely open line among the first MAX_SEEDS seeds.

    Loops with perimeter above the arc budget masquerade as open at one
    budget.  So each seed is first traced at the CLASSIFY_DEPTH times the
    budget that classification follows it for, and skipped when that trace
    closes.  Returns the first open line, traced at the budget, and its
    classification; when every seed closes, the first seed's loop and
    Closed; None when the window holds no seed.
    """
    field = _field(s, budget.cell_size, field)
    first_loop = None
    for seed in find_seeds(s, level, window, budget.cell_size, field)[:MAX_SEEDS]:
        line, c = _classify_seed(s, field, seed, level, budget)
        if c is not None:
            return line, c
        if first_loop is None:
            first_loop = line
    if first_loop is None:
        return None
    return first_loop, Closed(diameter=_diameter(first_loop.points))


def classify_potential(
    s: SuperpositionPotential,
    window: Rect,
    budget: TraceBudget,
    level: float | None = None,
    tol_eps: float = 1e-3,
) -> tuple[EnergyInterval | None, float | None, Classification | None]:
    """The paper's step for one potential: find the energies carrying open
    lines, then classify an open line at one of them.

    Without a level, the open-line interval is searched over
    +-1.01 * value_scale() and its midpoint classified.  Returns (interval,
    level, classification): interval is None when a level is given; level
    and classification are None when no interval is found, and the
    classification is None when the window holds no seed at the level.
    """
    # Chunk values do not depend on the level: the search and the
    # classification read one field.
    field = ChunkedField(s, budget.cell_size)
    interval = None
    if level is None:
        scale = 1.01 * s.value_scale()
        interval = energy_interval(s, window, budget, -scale, scale, tol_eps, field)
        if not interval.found:
            return interval, None, None
        level = 0.5 * (interval.lo + interval.hi)
    hit = classify_first_open(s, level, window, budget, field=field)
    return interval, level, None if hit is None else hit[1]


@dataclass(frozen=True)
class FamilyVerdict:
    """One potential family classified at one angle (see classify_family).

    intervals, levels and classifications have one entry per shift
    classified; an interval is None where the shift was given its level.
    A failed sweep sample has its error, no classification and shift 0's
    interval and level None.
    """

    alpha: float
    shifts: tuple
    intervals: tuple
    levels: tuple
    classifications: tuple
    quadruple: Quadruple | None
    mean_width: float | None
    verdict: str  # regular | chaotic | undetermined | no-open-lines | error
    commensurate: bool
    error: str | None = None

    __eq__ = fields_equal


def classify_family(
    v: PeriodicPotential,
    u: PeriodicPotential,
    alpha: float,
    shifts,
    window: Rect,
    budget: TraceBudget,
    combiner: Combiner = Sum(),
    level: float | None = None,
    tol_eps: float = 1e-3,
    search_each_shift: bool = False,
) -> FamilyVerdict:
    """Classify one open line per layer shift and form one family verdict.

    The open-line interval and the quadruple belong to the family, not to
    one shift.  Without a level, shift 0's interval midpoint is the level
    the other shifts are classified at; when shift 0 has no interval,
    nothing is classified and the verdict is no-open-lines.  With
    search_each_shift every shift is classified at its own interval's
    midpoint.  A given level skips every search.  A shift with no open line
    at its level (no interval, no seed, or only loops) is Undetermined.

    The verdict is regular when every shift is Regular with one quadruple
    (mean_width is their mean strip width), chaotic when every shift is
    Chaotic, and undetermined otherwise.  A commensurate twist is
    classified as any other, and flagged.  Raises ValueError on no shifts.
    """
    shifts = tuple(np.asarray(a, dtype=float) for a in shifts)
    if not shifts:
        raise ValueError("need at least one shift")
    transform0 = EuclideanTransform(alpha, shifts[0])
    commensurate = is_commensurate(v.lattice, u.lattice, transform0) is not None

    intervals, levels, classifications = [], [], []
    # Every shift's field takes V's chunk values from the first-layer store.
    token = _SHARE_FIRST_LAYER.set(True)
    try:
        for a in shifts:
            s = SuperpositionPotential(v, u, EuclideanTransform(alpha, a), combiner)
            interval, eps, c = classify_potential(s, window, budget, level, tol_eps)
            intervals.append(interval)
            levels.append(eps)
            if eps is None:
                if not search_each_shift:
                    break  # shift 0 found no interval: the family has none
                c = Undetermined(reason="no open-line interval found")
            elif c is None or isinstance(c, Closed):
                c = Undetermined(reason=f"no open line found at level {eps}")
            classifications.append(c)
            if not search_each_shift:
                level = eps
    finally:
        _SHARE_FIRST_LAYER.reset(token)

    quadruple, width, verdict = None, None, "undetermined"
    regulars = [c for c in classifications if isinstance(c, Regular)]
    if not classifications:
        verdict = "no-open-lines"
    elif len(regulars) == len(classifications):
        # Shifts that disagree on the quadruple leave it undetermined.
        if all(c.quadruple == regulars[0].quadruple for c in regulars):
            quadruple = regulars[0].quadruple
            width = float(np.mean([c.strip_width for c in regulars]))
            verdict = "regular"
    elif all(isinstance(c, Chaotic) for c in classifications):
        verdict = "chaotic"
    return FamilyVerdict(
        alpha=alpha,
        shifts=shifts,
        intervals=tuple(intervals),
        levels=tuple(levels),
        classifications=tuple(classifications),
        quadruple=quadruple,
        mean_width=width,
        verdict=verdict,
        commensurate=commensurate,
    )


def classification_to_dict(c: Classification, parameters: dict | None = None) -> dict:
    """JSON-ready form with a fixed schema shared by the CLI and reports."""
    out: dict = {
        "status": None,
        "quadruple": None,
        "direction": None,
        "strip_width": None,
        "residual": None,
        "widths_by_length": None,
        "diameter": None,
        "reason": None,
        "parameters": parameters or {},
    }
    if isinstance(c, Closed):
        out["status"] = "closed"
        out["diameter"] = c.diameter
    elif isinstance(c, Regular):
        out["status"] = "regular"
        out["quadruple"] = list(c.quadruple.as_tuple())
        out["direction"] = [float(c.direction[0]), float(c.direction[1])]
        out["strip_width"] = c.strip_width
        out["residual"] = c.residual
        out["widths_by_length"] = [[a, w] for a, w in c.widths_by_length]
    elif isinstance(c, Chaotic):
        out["status"] = "chaotic"
        out["widths_by_length"] = [[a, w] for a, w in c.widths_by_length]
    elif isinstance(c, Undetermined):
        out["status"] = "undetermined"
        out["reason"] = c.reason
        out["widths_by_length"] = [[a, w] for a, w in c.widths_by_length]
    else:
        raise TypeError(f"not a classification: {c!r}")
    return out
