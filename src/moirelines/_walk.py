"""The compiled library _walk.c, and the twin of each of its routines.

walk runs the marching-squares walk of one level line across a chunked
field and counts its turns, seed_edges the scan of a block of corner
residuals for one crossing per piece of the level set, probe the seed scan
and forward walks of one interval probe level, down to the turn count of
its longest loop, ChunkFill.values fills a chunk's corner values, and
format_floats writes floats as format's .Pg does.  Each runs its C routine
(walk_cells, seed_edges, probe_level, fill_chunk, format_g) where the
library loads, else its twin (walk_python, seed_edges_numpy, probe_python,
ChunkFill.fill_numpy, format_python), with the same results bit for bit;
for fills, where OpenBLAS runs FMA kernels, and a TableLookup combiner's
are the twin's.  The compiled walks fill the chunks they enter: they return
to Python only for room for a chunk, a twin fill or a saddle cell.  No
other module loads the library or calls into it.

The library is compiled on first use, never at import, with the system C
compiler, and cached under $XDG_CACHE_HOME/moirelines (~/.cache/moirelines
when that is unset).  The file name carries the SHA-256 of the source and
the flags, so an edited source is rebuilt.  Any failure to build or load
it leaves kernel() returning None.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import os
import subprocess
import tempfile
from math import hypot, inf
from pathlib import Path

import numpy as np

from .potential import Product, Sum, WeightedSum, eval_superposition

# Corner values come in chunks of CHUNK x CHUNK cells (CHUNK + 1 corners a
# side), keyed by integer chunk coordinates.
CHUNK = 32

# Marching-squares tables.  Cell corners are numbered counterclockwise from
# the lower-left, 0:(i,j) 1:(i+1,j) 2:(i+1,j+1) 3:(i,j+1); cell sides are
# 0:bottom 1:right 2:top 3:left.  Per side: its two corners.
SIDE_CORNERS = ((0, 1), (1, 2), (3, 2), (0, 3))
# Grid edge (orient, gi, gj) runs from corner (gi, gj) to (gi + 1, gj) or (gi, gj + 1).
HORIZONTAL, VERTICAL = 0, 1
_SADDLE = -1
_INCONSISTENT = -2


def _exit_tables() -> tuple[tuple[int, ...], dict[int, tuple[int, int]]]:
    """Exit side of a cell for every entry side and corner sign pattern.

    Indexed by 16 * entry + code, where bit k of code is set when corner k
    lies above the level.  A saddle cell (all four sides crossed) maps to
    _SADDLE, and its exit is then saddle[index][centre above level]: the
    branches wrap the isolated-sign corners, the centre's sign says which
    pair is isolated, and the exit shares the wrapped corner with the entry.
    """
    exits = []
    saddle = {}
    for entry in range(4):
        for code in range(16):
            above = [bool(code >> k & 1) for k in range(4)]
            crossed = [e for e, (a, b) in enumerate(SIDE_CORNERS) if above[a] != above[b]]
            others = [e for e in crossed if e != entry]
            if entry not in crossed:
                exits.append(_INCONSISTENT)
            elif len(others) == 1:
                exits.append(others[0])
            else:
                exits.append(_SADDLE)

                def wrap(corner_above: bool) -> int:
                    target = next(c for c in SIDE_CORNERS[entry] if above[c] == corner_above)
                    return next(e for e in others if target in SIDE_CORNERS[e])

                saddle[16 * entry + code] = (wrap(True), wrap(False))
    return tuple(exits), saddle


EXIT, SADDLE_EXIT = _exit_tables()
# A cell index lies outside [0, CHUNK) exactly when it has one of these bits
# set (CHUNK is a power of two).
_OFF_CHUNK = -CHUNK


def arc_lengths(x, y) -> np.ndarray:
    """Running arc length along a polyline, step by step.

    np.cumsum adds sequentially, so entry k equals the walk's running sum
    of np.hypot steps bit for bit.
    """
    return np.cumsum(np.hypot(np.diff(x), np.diff(y)))


SOURCE = Path(__file__).with_name("_walk.c")
CC = "cc"
# No -ffast-math, no -march: the walk must round exactly as the Python one.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", f"-DCHUNK={CHUNK}")

# Stop codes of walk_cells and probe_level, in the order of their enum.
LEAVE, SADDLE, FULL, CELLS, BUDGET, CLOSED = range(6)

# Vertices buffered per coordinate between returns to Python: 8 KB each.
CAPACITY = 1024

_i64, _f64 = ctypes.c_int64, ctypes.c_double


class State(ctypes.Structure):
    """The walk_state struct of _walk.c, field for field."""

    _fields_ = [
        *((name, ctypes.c_void_p) for name in ("exits", "field", "v")),
        *((name, _f64) for name in (
            "level", "delta", "h", "arc_limit", "p0x", "p0y", "px", "py", "arc")),
        *((name, _i64) for name in (
            "i", "j", "oi", "oj", "ia", "ja", "ea", "ib", "jb", "eb", "n",
            "cell_limit", "first_jitter", "code_base", "code", "out", "count", "turns")),
    ]


class ProbeState(ctypes.Structure):
    """The probe_state struct of _walk.c, field for field."""

    _fields_ = [
        ("w", State),
        ("f", ctypes.c_void_p),
        *((name, _i64) for name in ("ni", "nj", "i0", "j0")),
        *((name, ctypes.c_void_p) for name in ("parent", "xy", "edges")),
        *((name, _i64) for name in ("cap", "seeds", "next", "walking", "turns")),
        ("best_arc", _f64),
    ]


# Multipliers of the chunk table's hash (HASH_I, HASH_J in _walk.c).
_HASH_I, _HASH_J = 0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F
_U64 = 2**64 - 1


class ChunkTable(ctypes.Structure):
    """The chunk_table struct of _walk.c: an open-addressed table from chunk
    (ci, cj) to the address of its corner values, in the int64 array slots.
    Slot k holds (ci, cj, address), or address 0 when it is empty.  A key
    hashes to the top bits of ci * _HASH_I + cj * _HASH_J mod 2**64 and is
    probed linearly from there.  It holds addresses only: the owner keeps
    each buffer alive, and calls make_room before adding a chunk."""

    _fields_ = [("address", ctypes.c_void_p), ("shift", _i64), ("count", _i64)]

    def __init__(self, bits: int = 8):
        self.slots = np.zeros((1 << bits, 3), dtype=np.int64)
        super().__init__(_address(self.slots), 64 - bits, 0)

    def insert(self, ci: int, cj: int, address: int) -> None:
        """Add chunk (ci, cj), which the table does not hold, at address."""
        self.slot(ci, cj)[:] = ci, cj, address
        self.count += 1

    def make_room(self) -> None:
        """Double the table if one more chunk would fill half of it."""
        if 2 * (self.count + 1) > len(self.slots):
            entries = self.slots[self.slots[:, 2] != 0].tolist()
            self.__init__(65 - self.shift)
            for entry in entries:
                self.insert(*entry)

    def slot(self, ci: int, cj: int) -> np.ndarray:
        """The slot of chunk (ci, cj), or the empty slot where it goes."""
        slots, mask = self.slots, len(self.slots) - 1
        k = ((int(ci) * _HASH_I + int(cj) * _HASH_J) & _U64) >> self.shift
        while slots[k, 2] and (slots[k, 0] != ci or slots[k, 1] != cj):
            k = (k + 1) & mask
        return slots[k]


def _build() -> Path:
    """Path of the compiled library, compiling it unless it is cached.

    The library is written under a temporary name and renamed into place,
    so processes that compile at the same time never load a partial file.
    """
    source = SOURCE.read_bytes()
    key = hashlib.sha256(source + "\0".join(FLAGS).encode()).hexdigest()
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    library = Path(cache, "moirelines", f"walk-{key}.so")
    if library.exists():
        return library
    library.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{library.name}.", dir=library.parent)
    os.close(fd)
    try:
        subprocess.run([CC, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, library)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return library


@functools.cache
def kernel():
    """The compiled library, with walk_cells, seed_edges, probe_level,
    fill_chunk and format_g typed, or None when it cannot be built or
    loaded here."""
    try:
        lib = ctypes.CDLL(str(_build()))
        walk, seeds, probe_level, fill, fmt = (
            lib.walk_cells, lib.seed_edges, lib.probe_level, lib.fill_chunk, lib.format_g)
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    walk.argtypes = [ctypes.POINTER(State), ctypes.c_void_p, ctypes.c_void_p, _i64]
    walk.restype = ctypes.c_int
    seeds.argtypes = [ctypes.c_void_p, _f64, _i64, _i64, _i64, _i64, _f64, _f64, _i64,
                      ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, _i64]
    seeds.restype = _i64
    probe_level.argtypes = [ctypes.POINTER(ProbeState)]
    probe_level.restype = ctypes.c_int
    fill.argtypes = [ctypes.POINTER(ChunkFill), _i64, _i64]
    fill.restype = ctypes.c_void_p
    fmt.argtypes = [ctypes.c_void_p, _i64, _i64, ctypes.c_int,
                    ctypes.POINTER(ctypes.c_char_p), _i64, ctypes.c_void_p,
                    ctypes.POINTER(_i64)]
    fmt.restype = _i64
    return lib


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


# The exit table as the kernel reads it, and the walk's stop reasons.
_EXIT_BYTES = np.array(EXIT, dtype=np.int8)
_EXIT_ADDRESS = _address(_EXIT_BYTES)
_REASONS = {CELLS: "cells", BUDGET: "budget", CLOSED: "closed"}


def start(walker, edge, forward):
    """The cell a walk from grid edge (orient, gi, gj) starts in, forward
    (f > level on the left) or backward, as (i, j, entry, closing): the
    edge's two cells are (i, j, side entered through), the walk starts in
    the one the direction points into, and leaving either through that
    side, closing = (*first cell, *second cell), closes the walk."""
    orient, gi, gj = edge
    if orient == HORIZONTAL:
        cells = (gi, gj, 0), (gi, gj - 1, 2)
        above = walker.residual(gi, gj) > 0
    else:
        cells = (gi, gj, 3), (gi - 1, gj, 1)
        above = walker.residual(gi, gj + 1) > 0
    i, j, entry = cells[0] if forward == above else cells[1]
    return i, j, entry, (*cells[0], *cells[1])


def walk(walker, i, j, entry, closing, p0x, p0y, arc_limit, cell_limit):
    """tracer._Walker.walk from cell (i, j), entered through side entry,
    given the cells and sides whose leaving closes it and p0's coordinates."""
    args = (walker, i, j, entry, closing, p0x, p0y, arc_limit, cell_limit)
    lib = kernel()
    return walk_python(*args) if lib is None else walk_compiled(lib.walk_cells, *args)


def _enter(st: State, field) -> None:
    """Fill chunk (st.oi, st.oj) of field, which walk_cells could not fill."""
    field._chunk(st.oi // CHUNK, st.oj // CHUNK)


def _state(walker, arc_limit, cell_limit, **fields) -> State:
    return State(exits=_EXIT_ADDRESS, field=ctypes.addressof(walker.field._fill),
                 level=walker.level, delta=walker.delta, h=walker.h, arc_limit=arc_limit,
                 cell_limit=int(cell_limit), out=-1, **fields)


def walk_compiled(fn, walker, i, j, entry, closing, p0x, p0y, arc_limit, cell_limit):
    """walk by the library's walk_cells, fn."""
    st = _state(walker, arc_limit, cell_limit, p0x=p0x, p0y=p0y, px=p0x, py=p0y,
                i=i, j=j, oi=i - i % CHUNK, oj=j - j % CHUNK, code_base=16 * entry)
    st.ia, st.ja, st.ea, st.ib, st.jb, st.eb = closing
    buf = np.empty((2, CAPACITY))
    x_at = _address(buf)
    y_at = x_at + buf.strides[0]
    parts = []  # the buffer's vertices, copied each time it fills and at the end
    while True:
        stop = fn(st, x_at, y_at, CAPACITY)
        if stop == LEAVE:
            _enter(st, walker.field)
        elif stop == SADDLE:
            hits = walker.jitter_hits
            st.out = walker.saddle_exit(st.code, st.i, st.j)
            if walker.jitter_hits > hits and not st.first_jitter:
                st.first_jitter = st.n
        else:
            parts.append(buf[:, :st.count].copy())
            if stop != FULL:
                break
            st.count = 0
    xs, ys = np.concatenate(parts, axis=1)
    return xs, ys, st.arc, _REASONS[stop], st.first_jitter or None, st.turns


def walk_python(walker, i, j, entry, closing, p0x, p0y, arc_limit, cell_limit):
    """walk in Python."""
    # Plain floats: the same IEEE arithmetic as NumPy scalars, but faster.
    level, delta, h = float(walker.level), float(walker.delta), float(walker.h)
    low = -delta
    field = walker.field
    exit_of = EXIT
    stride = CHUNK + 1
    diagonal = stride + 1
    ia, ja, ea, ib, jb, eb = closing
    # The running arc decides where the walk stops, so it must be the
    # sequential sum of np.hypot steps bit for bit.  math.hypot is much
    # cheaper but may differ in the last bit; it tracks the arc until
    # the accumulated difference could matter, exact sums decide after.
    soft_limit = arc_limit - 1e-15 * (cell_limit + 2) * abs(arc_limit)
    exact = None
    arc = 0.0
    px, py = p0x, p0y
    xs, ys = [], []
    add_x, add_y = xs.append, ys.append
    first_jitter = None
    code_base = 16 * entry
    oi, oj = i - i % CHUNK, j - j % CHUNK
    view = field.view(oi // CHUNK, oj // CHUNK)
    n = turns = 0
    while True:
        if n >= cell_limit:
            reason = "cells"
            break
        n += 1
        # All four corners of a cell lie in one chunk.
        li, lj = i - oi, j - oj
        if (li | lj) & _OFF_CHUNK:
            oi, oj = i - i % CHUNK, j - j % CHUNK
            view = field.view(oi // CHUNK, oj // CHUNK)
            li, lj = i - oi, j - oj
        k = li * stride + lj
        # Residuals within delta of zero count as +delta: the sign test
        # is g > -delta, the nudge itself only matters for crossings.
        code = code_base
        g0 = view[k] - level
        if g0 > low:
            code += 1
            if g0 < delta:
                g0, first_jitter = delta, first_jitter or n
        g1 = view[k + stride] - level
        if g1 > low:
            code += 2
            if g1 < delta:
                g1, first_jitter = delta, first_jitter or n
        g2 = view[k + diagonal] - level
        if g2 > low:
            code += 4
            if g2 < delta:
                g2, first_jitter = delta, first_jitter or n
        g3 = view[k + 1] - level
        if g3 > low:
            code += 8
            if g3 < delta:
                g3, first_jitter = delta, first_jitter or n
        out = exit_of[code]
        if out < 0:
            hits = walker.jitter_hits
            out = walker.saddle_exit(code, i, j)
            if walker.jitter_hits > hits:
                first_jitter = first_jitter or n
        # (out - entry) mod 4 is 1 for a right turn, 2 straight on, 3 left.
        turns += (out - (code_base >> 4)) % 4 - 2
        if (i == ia and j == ja and out == ea) or (i == ib and j == jb and out == eb):
            add_x(p0x)
            add_y(p0y)
            reason = "closed"
            break
        # Crossing on the exit side, then step into the next cell, which
        # is entered through the opposite side.
        if out == 0:
            t = g0 / (g0 - g1)
            qx, qy = (i + t) * h, j * h
            j -= 1
            code_base = 32
        elif out == 1:
            t = g1 / (g1 - g2)
            qx, qy = (i + 1) * h, (j + t) * h
            i += 1
            code_base = 48
        elif out == 2:
            t = g3 / (g3 - g2)
            qx, qy = (i + t) * h, (j + 1) * h
            j += 1
            code_base = 0
        else:
            t = g0 / (g0 - g3)
            qx, qy = i * h, (j + t) * h
            i -= 1
            code_base = 16
        add_x(qx)
        add_y(qy)
        dx, dy = qx - px, qy - py
        arc += hypot(dx, dy)
        px, py = qx, qy
        if arc >= soft_limit:
            if exact is None:
                exact = float(arc_lengths([p0x] + xs, [p0y] + ys)[-1])
            else:
                exact += float(np.hypot(dx, dy))
            if exact >= arc_limit:
                reason = "budget"
                break
            soft_limit = -inf
    arc = float(arc_lengths([p0x] + xs, [p0y] + ys)[-1]) if xs else 0.0
    xs, ys = np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64)
    return xs, ys, arc, reason, first_jitter, turns


# seed_edges numbers a block's grid edges in int32, two per corner.
MAX_BLOCK_CORNERS = 2**30

# Seeds a scan makes room for; a block with more is scanned again.
SEED_ROOM = 1024


def seed_edges(field, i0, j0, g) -> list[tuple]:
    """tracer.find_seeds' seeds as (x, y, edge), from the residuals g of
    f - level at the field's grid corners from (i0, j0) on.  edge is the
    grid edge (orient, gi, gj) the crossing (x, y) lies on;
    tracer._Walker.crossing(edge) gives (x, y) back bit for bit.  g is left
    as it is."""
    lib = kernel()
    return (seed_edges_numpy(field, i0, j0, g) if lib is None
            else seed_edges_compiled(lib.seed_edges, field, i0, j0, g))


def _scan_block(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g as the C float64 array the library's seed scan reads, and the
    scan's scratch; ValueError when g's edges do not fit its int32 ids."""
    ni, nj = g.shape
    if ni * nj > MAX_BLOCK_CORNERS:
        raise ValueError(f"a {ni} x {nj} block has more than {MAX_BLOCK_CORNERS} corners")
    return np.ascontiguousarray(g, dtype=np.float64), np.empty(2 * ni * nj, dtype=np.int32)


def seed_edges_compiled(fn, field, i0, j0, g):
    """seed_edges by the library's seed_edges, fn."""
    ni, nj = g.shape
    g, parent = _scan_block(g)
    room = SEED_ROOM
    while True:
        xy = np.empty((room, 2))
        edges = np.empty((room, 3), dtype=np.int64)
        # g holds the residuals already: level 0.0.  Every seed: no cap.
        count = fn(_address(g), 0.0, ni, nj, i0, j0, field.h, field.delta, 2**63 - 1,
                   _address(parent), _address(xy), _address(edges), room)
        if count <= room:
            break
        room = count
    return [(x, y, tuple(edge)) for (x, y), edge
            in zip(xy[:count].tolist(), edges[:count].tolist())]


def seed_edges_numpy(field, i0, j0, g) -> list[tuple]:
    """seed_edges in NumPy, every seed."""
    g = np.where(np.abs(g) < field.delta, field.delta, g)
    pos = g > 0

    # Crossed edges are numbered horizontal first, then vertical, each in
    # row-major order of its lower-left corner; -1 marks an uncrossed edge.
    h_cross = pos[:-1, :] != pos[1:, :]
    v_cross = pos[:, :-1] != pos[:, 1:]
    n_h = int(np.count_nonzero(h_cross))
    n = n_h + int(np.count_nonzero(v_cross))
    if n == 0:
        return []
    h_id = np.full(h_cross.shape, -1)
    h_id[h_cross] = np.arange(n_h)
    v_id = np.full(v_cross.shape, -1)
    v_id[v_cross] = np.arange(n_h, n)

    # Any two crossed edges of one cell are part of the same local crossing.
    sides = (h_id[:, :-1], v_id[1:, :], h_id[:, 1:], v_id[:-1, :])
    a, b = [], []
    for p, q in itertools.combinations(sides, 2):
        both = (p >= 0) & (q >= 0)
        a.append(p[both])
        b.append(q[both])
    component = _components(n, np.concatenate(a), np.concatenate(b))

    # Each component is represented by its first edge in (gj, gi, orient)
    # order, and the seeds come out in that order too.
    hi, hj = np.nonzero(h_cross)
    vi, vj = np.nonzero(v_cross)
    gi = i0 + np.concatenate((hi, vi))
    gj = j0 + np.concatenate((hj, vj))
    horizontal = np.arange(n) < n_h
    order = np.lexsort((~horizontal, gi, gj))
    _, first = np.unique(component[order], return_index=True)
    pick = order[np.sort(first)]

    g0 = np.concatenate((g[:-1, :][h_cross], g[:, :-1][v_cross]))[pick]
    g1 = np.concatenate((g[1:, :][h_cross], g[:, 1:][v_cross]))[pick]
    t = g0 / (g0 - g1)
    gi, gj, horizontal = gi[pick], gj[pick], horizontal[pick]
    h = field.h
    xs = np.where(horizontal, (gi + t) * h, gi * h)
    ys = np.where(horizontal, gj * h, (gj + t) * h)
    edges = zip(np.where(horizontal, HORIZONTAL, VERTICAL).tolist(), gi.tolist(), gj.tolist())
    return list(zip(xs.tolist(), ys.tolist(), edges))


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected-component label of each of n nodes joined by links a-b.

    Roots hook onto the smallest root they are linked to, then every node
    jumps to its root, until no link joins two trees.  Labels are the
    smallest node of each component.
    """
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            return root
        np.minimum.at(root, np.maximum(ra, rb)[apart], np.minimum(ra, rb)[apart])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


def probe(walker, i0, j0, f, cap, arc_limit, cell_limit):
    """The walks of one tracer._IntervalProbe level, walker's.  The first
    cap seeds that seed_edges finds in the residuals f - walker.level, f
    the grid corner values from (i0, j0) on, are walked forward from their
    edges as tracer._Walker.walk walks, storing no vertices, until a walk
    does not close.  Returns None when arc_limit or cell_limit stops a
    walk, 0 when there are no seeds, and else the turns of the longest
    closed walk, the first of equal ones: 4 if it runs counterclockwise,
    -4 if clockwise."""
    args = (walker, i0, j0, f, cap, arc_limit, cell_limit)
    lib = kernel()
    return probe_python(*args) if lib is None else probe_compiled(lib.probe_level, *args)


def probe_compiled(fn, walker, i0, j0, f, cap, arc_limit, cell_limit):
    """probe by the library's probe_level, fn."""
    ni, nj = f.shape
    f, parent = _scan_block(f)
    xy = np.empty((cap, 2))
    edges = np.empty((cap, 3), dtype=np.int64)
    st = ProbeState(w=_state(walker, arc_limit, cell_limit), f=_address(f), ni=ni, nj=nj,
                    i0=i0, j0=j0, parent=_address(parent), xy=_address(xy),
                    edges=_address(edges), cap=cap, seeds=-1, best_arc=-1.0)
    w = st.w  # shares st's memory
    while True:
        stop = fn(st)
        if stop == LEAVE:
            _enter(w, walker.field)
        elif stop == SADDLE:
            w.out = walker.saddle_exit(w.code, w.i, w.j)
        else:
            return st.turns if stop == CLOSED else None


def probe_python(walker, i0, j0, f, cap, arc_limit, cell_limit):
    """probe by seed_edges_numpy and walk_python."""
    seeds = seed_edges_numpy(walker.field, i0, j0, f - walker.level)[:cap]
    turns, best_arc = 0, -1.0
    for x0, y0, edge in seeds:
        _, _, arc, reason, _, walked = walk_python(walker, *start(walker, edge, True), x0, y0,
                                                   arc_limit, cell_limit)
        if reason != "closed":
            return None
        if arc > best_arc:
            turns, best_arc = walked, arc
    return turns


class LayerFill(ctypes.Structure):
    """The layer_fill struct of _walk.c: one layer at cell size h, its corners
    moved by transform unless that is None, with the arrays it points at."""

    _fields_ = [
        *((name, ctypes.c_void_p) for name in ("waves", "phases", "amps", "out")),
        *((name, _i64) for name in ("terms", "moved")),
        ("h", _f64), ("rotation", _f64 * 4), ("shift", _f64 * 2),
    ]

    def __init__(self, layer, h, transform=None):
        self._keep = [*map(np.ascontiguousarray, (layer._waves, layer._phases, layer._amps)),
                      np.empty(((CHUNK + 1) ** 2, len(layer._phases)))]
        super().__init__(*map(_address, self._keep), len(layer._phases),
                         transform is not None, h=h)
        if transform is not None:
            self.rotation[:] = transform.rotation.ravel().tolist()
            self.shift[:] = transform.shift.tolist()


class ChunkStore(ChunkTable):
    """The chunk_store struct of _walk.c: the first layer's values of up to
    cap chunks, which compiled fills read and add to; past cap the oldest
    is dropped.  Its 2 * cap slots or more keep it less than half full."""

    _fields_ = [("values", ctypes.c_void_p), ("cap", _i64), ("stored", _i64)]

    def __init__(self, cap: int):
        super().__init__((2 * cap - 1).bit_length())
        self._values = np.empty((cap, (CHUNK + 1) ** 2))
        self.values, self.cap = _address(self._values), cap


# A field keeps its chunks' values in slabs of _SLAB chunks (139 KB), so the
# short-lived blocks of fills and walks leave no holes between 8.7 KB chunk
# arrays in the heap.  Much larger slabs cost memory too: the unused end of
# a field's last slab is touched once it is freed and its space reused.
_SLAB = 16
_CHUNK_VALUES = _f64 * (CHUNK + 1) ** 2


class ChunkFill(ctypes.Structure):
    """The chunk_field struct of _walk.c: a field's chunks, in the ChunkTable
    chunks and in slabs, and what their fills read: the layers of s at cell
    size h, the combiner's rule (-1: none) and the store, a ChunkStore."""

    _fields_ = [
        *((name, ctypes.c_void_p) for name in ("v", "u", "table", "slab", "store")),
        *((name, _i64) for name in ("used", "room", "combiner")),
        ("c1", _f64), ("c2", _f64),
    ]

    def __init__(self, s, h, store=None):
        self.s, self.h, self.chunks, self.slabs, self._store = s, h, ChunkTable(), [], store
        self.layers = LayerFill(s.v, h), LayerFill(s.u, h, s.transform)
        super().__init__(*map(ctypes.addressof, (*self.layers, self.chunks)),
                         store=store and ctypes.addressof(store),
                         combiner={Sum: 0, WeightedSum: 1, Product: 2}.get(type(s.combiner), -1),
                         c1=getattr(s.combiner, "c1", 0.0), c2=getattr(s.combiner, "c2", 0.0))

    def values(self, ci: int, cj: int) -> np.ndarray:
        """Chunk (ci, cj)'s corner values, (CHUNK + 1) x (CHUNK + 1): found
        in the table, else filled by the library's fill_chunk where it
        loads and the combiner has a compiled rule, else by fill_numpy."""
        at = self.chunks.slot(ci, cj)[2]
        if not at:
            self.make_room()
            lib = kernel()
            at = (self.fill_numpy(ci, cj) if lib is None or self.combiner < 0
                  else lib.fill_chunk(self, ci, cj))
        chunk = _CHUNK_VALUES.from_address(int(at))
        chunk.owner = self  # keeps the slabs alive as long as the array
        return np.frombuffer(chunk).reshape(CHUNK + 1, -1)

    def make_room(self) -> None:
        """Room in the table and the slab for one more chunk."""
        self.chunks.make_room()
        if self.used == self.room:
            self.slabs.append(np.empty((_SLAB, CHUNK + 1, CHUNK + 1)))
            self.slab, self.used, self.room = _address(self.slabs[-1]), 0, _SLAB

    def fill_numpy(self, ci: int, cj: int) -> int:
        """fill_chunk in NumPy, without the store, after make_room: the
        potential at the chunk's corners as one flat array in row-major
        order.  Returns the values' address."""
        side = np.arange(CHUNK + 1)
        pts = np.meshgrid((ci * CHUNK + side) * self.h, (cj * CHUNK + side) * self.h, indexing="ij")
        values = self.slabs[-1][self.used]
        self.used += 1
        values[...] = eval_superposition(self.s, np.stack(pts, -1).reshape(-1, 2)).reshape(
            CHUNK + 1, -1)
        self.chunks.insert(ci, cj, _address(values))
        return _address(values)


# Bytes format_g may write for one value, past its text included (35 in _walk.c).
G_ROOM = 35


def format_floats(values, precision: int, seps: tuple[str, ...]) -> str:
    """format(float(x), f".{precision}g") of every value x in C order,
    value k followed by seps[k % len(seps)]."""
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    lib = kernel()
    return (format_python(flat.tolist(), f".{precision}g", seps) if lib is None
            else format_compiled(lib.format_g, flat, precision, seps))


def format_compiled(fn, flat, precision, seps) -> str:
    """format_floats of the flat float64 array by the library's format_g,
    fn, which hands back each value it cannot write exactly; Python's
    format writes those."""
    n, period = len(flat), len(seps)
    buf = np.empty(n * (G_ROOM + max(map(len, seps))), dtype=np.uint8)
    sep_ptrs = (ctypes.c_char_p * period)(*(s.encode("ascii") for s in seps))
    written = _i64()
    parts = []
    k = 0
    while True:
        stop = fn(_address(flat), n, k, precision, sep_ptrs, period, _address(buf),
                  ctypes.byref(written))
        parts.append(str(buf[:written.value], "ascii"))
        if stop == n:
            return "".join(parts)
        parts.append(format(float(flat[stop]), f".{precision}g") + seps[stop % period])
        k = stop + 1


def format_python(values: list[float], spec: str, seps: tuple[str, ...]) -> str:
    """format_floats in Python, given the values as a list and the spec."""
    fields = [f"{{:{spec}}}" + s.replace("{", "{{").replace("}", "}}") for s in seps]
    rows, rest = divmod(len(values), len(seps))
    return ("".join(fields) * rows + "".join(fields[:rest])).format(*values)
