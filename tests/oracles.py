"""Independent oracles and frozen expected values.

Every derived expectation in the test suite is computed here by a second,
deliberately naive implementation (pure Python loops, Cramer's rule, brute
enumeration) so the package never validates itself against itself.  The
frozen constants below were produced by these oracles; tests re-run the
oracle and also compare against the pinned literal, which catches drift in
either side.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

from moirelines import tracer
from moirelines.classifier import quadruple_basis
from moirelines.tracer import CLASSIFY_DEPTH, find_seeds, trace_level_line

TWO_PI = 2.0 * math.pi

# --- frozen values ---------------------------------------------------------

# Reciprocal of the hexagonal basis e1=(1,0), e2=(1/2, sqrt(3)/2):
# solve the 2x2 system by hand, f1=(1, -1/sqrt3), f2=(0, 2/sqrt3).
HEX_RECIP_F1 = (1.0, -0.5773502691896258)
HEX_RECIP_F2 = (0.0, 1.1547005383792517)

# Hand-applied clockwise quarter turn plus shift (5,7) to the point (0,1).
ROTATE_QUARTER_SHIFT_IMAGE = (6.0, 7.0)

# Three-harmonic hexagonal layer (period 2*pi, unit amplitudes) at (0.3, 0.7),
# from direct_periodic_value below.
HEX_LAYER_POINT = (0.3, 0.7)
HEX_LAYER_VALUE = 2.4474826928520694

# RMS of a symmetric triangle wave with amplitude +-1/2: 0.5/sqrt(3).
SAWTOOTH_RMS = 0.2886751345948129

# Equal unit-square lattices twisted by atan(3/4): the coincidence lattice is
# the index-5 sublattice {(a,b): b = 2a mod 5}; shortest vectors (1,2), (2,-1)
# of squared length 5, |det| = 5.
COMMENSURATE_ALPHA = math.atan2(3.0, 4.0)
COMMENSURATE_SHORTEST = {(1, 2), (2, -1)}
COMMENSURATE_INDEX = 5

# Perimeter of the diamond loop the two-cosine separatrix resolves into under
# the one-sided saddle nudge: four edges of length sqrt(2)*pi.
DIAMOND_ARC = 4.0 * math.sqrt(2.0) * math.pi

# Measured, shift-stable label of the regular lines of
# V = cos x + cos y, U = delta * cos x' at alpha = 0.7 (brute-force verified).
THREEQ_QUADRUPLE = (1, 1, -1, 0)

# Forced by the documented tie-break for the diagonal direction at alpha = 0
# with identical unit lattices.
TIEBREAK_DIAGONAL_QUADRUPLE = (1, -1, 0, 0)


# --- independent implementations -------------------------------------------


def cramer_reciprocal(e1, e2):
    """Dual basis by Cramer's rule; f_i . e_j = delta_ij."""
    det = e1[0] * e2[1] - e1[1] * e2[0]
    f1 = (e2[1] / det, -e2[0] / det)
    f2 = (-e1[1] / det, e1[0] / det)
    return f1, f2


def direct_periodic_value(e1, e2, terms, p):
    """Per-term cosine sum, no arrays: terms are (n1, n2, amplitude, phase)."""
    f1, f2 = cramer_reciprocal(e1, e2)
    total = 0.0
    for n1, n2, amp, phase in terms:
        wx = TWO_PI * (n1 * f1[0] + n2 * f2[0])
        wy = TWO_PI * (n1 * f1[1] + n2 * f2[1])
        total += amp * math.cos(wx * p[0] + wy * p[1] + phase)
    return total


def brute_commensurate(alpha: float, bound: int, tol: float = 1e-6):
    """Integer vectors of the unit square lattice that the clockwise rotation
    by alpha carries onto integer vectors; empty list means incommensurate at
    this bound."""
    c, s = math.cos(alpha), math.sin(alpha)
    hits = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a == 0 and b == 0:
                continue
            q1 = c * a + s * b
            q2 = -s * a + c * b
            if abs(q1 - round(q1)) < tol and abs(q2 - round(q2)) < tol:
                hits.append((a, b))
    return hits


def _gcd4(m):
    return reduce(math.gcd, (abs(v) for v in m))


def normalize_quadruple(m):
    """Reduce by the gcd and make the first nonzero entry positive."""
    g = _gcd4(m)
    m = tuple(v // g for v in m)
    lead = next(v for v in m if v != 0)
    if lead < 0:
        m = tuple(-v for v in m)
    return m


def quadruple_key(m):
    """Total order used to break annihilator ties: max-norm, l1 norm, least
    weight on the later basis vectors, then plain tuple order."""
    a = [abs(v) for v in m]
    return (max(a), sum(a), a[3], a[2], a[1], a[0], m)


def brute_quadruple(direction, basis_rows, bound: int, tol: float):
    """Exhaustive annihilator search with itertools, no numpy.

    basis_rows are four 2-vectors (v'1, v'2, u'1, u'2).  Candidates with a
    vanishing combination carry no information and are skipped; the winner is
    the irreducible sign-normalized candidate minimizing quadruple_key.
    """
    norm = math.hypot(direction[0], direction[1])
    lx, ly = direction[0] / norm, direction[1] / norm
    scale = max(math.hypot(b[0], b[1]) for b in basis_rows)
    floor = 1e-12 * scale
    best = None
    rng = range(-bound, bound + 1)
    for m in itertools.product(rng, rng, rng, rng):
        if m == (0, 0, 0, 0):
            continue
        gx = sum(mi * b[0] for mi, b in zip(m, basis_rows))
        gy = sum(mi * b[1] for mi, b in zip(m, basis_rows))
        if gx * gx + gy * gy <= floor * floor:
            continue
        if abs(gx * lx + gy * ly) >= tol:
            continue
        if _gcd4(m) != 1:
            continue
        cand = normalize_quadruple(m)
        if best is None or quadruple_key(cand) < quadruple_key(best):
            best = cand
    return best


def dense_seed_count(f, level, window, h_fine) -> int:
    """Connected crossing regions of f - level on a fine grid.

    Brute scan: mark every grid cell whose corner values straddle the level,
    then count 4-connected components with a flood fill.  f is any callable
    (x, y) -> value.
    """
    x0, y0, x1, y1 = window.x0, window.y0, window.x1, window.y1
    nx = int(math.ceil((x1 - x0) / h_fine)) + 1
    ny = int(math.ceil((y1 - y0) / h_fine)) + 1
    vals = [[f(x0 + i * h_fine, y0 + j * h_fine) - level for j in range(ny)] for i in range(nx)]
    crossing = set()
    for i in range(nx - 1):
        for j in range(ny - 1):
            corners = (vals[i][j], vals[i + 1][j], vals[i][j + 1], vals[i + 1][j + 1])
            if min(corners) < 0.0 < max(corners):
                crossing.add((i, j))
    count = 0
    while crossing:
        count += 1
        stack = [crossing.pop()]
        while stack:
            ci, cj = stack.pop()
            for nb in ((ci + 1, cj), (ci - 1, cj), (ci, cj + 1), (ci, cj - 1)):
                if nb in crossing:
                    crossing.remove(nb)
                    stack.append(nb)
    return count


def loop_seeds(values, level, delta, i0, j0, h):
    """Reference seed finder: union-find over every grid cell in plain loops.

    values[a][b] is f at grid corner (i0 + a, j0 + b).  Residuals within
    delta of zero count as +delta.  Crossed edges (orient, gi, gj), orient 0
    horizontal and 1 vertical, are joined when they share a cell; each
    component yields the crossing on its least edge in (gj, gi, orient)
    order, and the crossings come out in that order.
    """
    g = [[v - level if abs(v - level) >= delta else delta for v in row] for row in values]
    ni, nj = len(g), len(g[0])
    edges = [
        (0, i0 + a, j0 + b) for a in range(ni - 1) for b in range(nj)
        if (g[a][b] > 0) != (g[a + 1][b] > 0)
    ] + [
        (1, i0 + a, j0 + b) for a in range(ni) for b in range(nj - 1)
        if (g[a][b] > 0) != (g[a][b + 1] > 0)
    ]
    parent = {e: e for e in edges}

    def find(e):
        while parent[e] != e:
            e = parent[e]
        return e

    for i in range(i0, i0 + ni - 1):
        for j in range(j0, j0 + nj - 1):
            sides = [e for e in ((0, i, j), (0, i, j + 1), (1, i, j), (1, i + 1, j))
                     if e in parent]
            for e in sides[1:]:
                parent[find(e)] = find(sides[0])

    def key(e):
        return (e[2], e[1], e[0])

    best = {}
    for e in edges:
        root = find(e)
        if root not in best or key(e) < key(best[root]):
            best[root] = e
    seeds = []
    for orient, gi, gj in sorted(best.values(), key=key):
        g0 = g[gi - i0][gj - j0]
        if orient == 0:
            t = g0 / (g0 - g[gi + 1 - i0][gj - j0])
            seeds.append(((gi + t) * h, gj * h))
        else:
            t = g0 / (g0 - g[gi - i0][gj + 1 - j0])
            seeds.append((gi * h, (gj + t) * h))
    return seeds


def distance_to_diagonal_net(x: float, y: float) -> float:
    """Distance to the net {x+y = pi mod 2pi} union {x-y = pi mod 2pi},
    the zero set of cos x + cos y."""

    def line_dist(u):
        # u = pi + 2*pi*k along the relevant diagonal coordinate
        r = math.remainder(u - math.pi, TWO_PI)
        return abs(r) / math.sqrt(2.0)

    return min(line_dist(x + y), line_dist(x - y))


def brute_diameter(points) -> float:
    """Largest distance over every pair of points."""
    pts = [tuple(map(float, p)) for p in points]
    return max((math.dist(p, q) for p, q in itertools.combinations(pts, 2)), default=0.0)


def full_trace_probe(s, level, window, budget, field):
    """An interval probe's state computed the first way: a full
    trace_level_line, both walks, of each of the first tracer._PROBE_SEEDS
    seeds at the CLASSIFY_DEPTH-fold budget.  Unlike the rest of this
    module it runs the package's own seed finder and tracer: what it checks
    is the probe's shortcuts (forward walks only, seeds and start edges
    from one window block).

    Returns (state, lines traced).  The state is "open" at the first open
    line; otherwise the longest loop decides, "above" if it runs
    counterclockwise and "below" if clockwise.  A level without seeds is
    "below" when it is at most every grid corner value in the window, else
    "above".
    """
    h = budget.cell_size
    seeds = find_seeds(s, level, window, h, field)
    if not seeds:
        corners = [
            field.corner(i, j)
            for i in range(math.floor(window.x0 / h), math.ceil(window.x1 / h) + 1)
            for j in range(math.floor(window.y0 / h), math.ceil(window.y1 / h) + 1)
        ]
        return ("below" if level <= min(corners) else "above"), []
    deep = budget.scaled(CLASSIFY_DEPTH)
    lines = []
    longest = None
    for seed in seeds[:tracer._PROBE_SEEDS]:
        line = trace_level_line(s, seed, level, deep, field=field)
        lines.append(line)
        if not line.is_closed:
            return "open", lines
        if longest is None or line.arc_length > longest.arc_length:
            longest = line
    pts = longest.points.tolist()
    area = math.fsum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:]))
    return ("above" if area > 0 else "below"), lines


def _full_table(direction, lat_v, lat_u_plane, bound: int):
    l = np.asarray(direction, dtype=float)
    l = l / np.linalg.norm(l)
    r = np.arange(-bound, bound + 1, dtype=float)
    table = np.stack(np.meshgrid(r, r, r, r, indexing="ij"), axis=-1).reshape(-1, 4)
    g = table @ quadruple_basis(lat_v, lat_u_plane)
    return table, g, np.abs(g @ l)


def full_table_dots(direction, lat_v, lat_u_plane, bound: int):
    """|G . l| of every candidate, by full_table_quadruple's own products."""
    return _full_table(direction, lat_v, lat_u_plane, bound)[2]


def full_table_quadruple(direction, lat_v, lat_u_plane, bound: int, tol: float):
    """recover_quadruple computed the first way: one float table of every
    candidate with |m_i| <= bound, m1 < 0 included, multiplied by the basis
    in a single product, then the same gcd, sign and order tail.  Like
    full_trace_probe it runs the package's own arithmetic, so it checks the
    search's shortcuts (half the candidates, one m1 block at a time) bit for
    bit, down to rows whose |G . l| equals tol.  Returns the winner's tuple
    or None.
    """
    table, g, dots = _full_table(direction, lat_v, lat_u_plane, bound)
    basis = quadruple_basis(lat_v, lat_u_plane)
    g_floor = 1e-12 * float(np.max(np.linalg.norm(basis, axis=1)))
    near = dots < tol
    g = g[near]
    m = table[near][np.einsum("ij,ij->i", g, g) > g_floor * g_floor].astype(np.int64)
    m = m[np.gcd.reduce(np.abs(m), axis=1) == 1]
    if len(m) == 0:
        return None
    first = np.argmax(m != 0, axis=1)
    lead = m[np.arange(len(m)), first]
    m = np.where((lead < 0)[:, None], -m, m)
    a = np.abs(m)
    order = np.lexsort(
        (
            m[:, 3], m[:, 2], m[:, 1], m[:, 0],
            a[:, 0], a[:, 1], a[:, 2], a[:, 3],
            a.sum(axis=1), a.max(axis=1),
        )
    )
    return tuple(int(v) for v in m[order[0]])
