"""The marching-squares walk of one level line across a chunked field.

This module holds the walk's exit tables and the walk itself twice: as a
compiled C kernel (_walk.c) and as a Python loop that gives the same
vertices, arc and stop bit for bit.  tracer._Walker.walk runs the kernel
where it can be built and the Python loop otherwise.  The same library
holds the seed scan seed_edges, which tracer._seed_edges runs in place of
its NumPy scan, and format_g, which output.format_array uses to write
floats.

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
import os
import subprocess
import tempfile
from math import hypot, inf
from pathlib import Path

import numpy as np

# Corner values come in chunks of CHUNK x CHUNK cells (CHUNK + 1 corners a
# side), keyed by integer chunk coordinates.
CHUNK = 32

# Marching-squares tables.  Cell corners are numbered counterclockwise from
# the lower-left, 0:(i,j) 1:(i+1,j) 2:(i+1,j+1) 3:(i,j+1); cell sides are
# 0:bottom 1:right 2:top 3:left.  Per side: its two corners.
SIDE_CORNERS = ((0, 1), (1, 2), (3, 2), (0, 3))
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

# Stop codes of walk_cells, in the order of its enum.
LEAVE, SADDLE, FULL, CELLS, BUDGET, CLOSED = range(6)

# Vertices buffered per coordinate between returns to Python: 8 KB each.
CAPACITY = 1024

_i64, _f64 = ctypes.c_int64, ctypes.c_double


class State(ctypes.Structure):
    """The walk_state struct of _walk.c, field for field."""

    _fields_ = [
        ("exits", ctypes.c_void_p),
        *((name, _f64) for name in (
            "level", "delta", "h", "arc_limit", "p0x", "p0y", "px", "py", "arc")),
        *((name, _i64) for name in (
            "i", "j", "oi", "oj", "ia", "ja", "ea", "ib", "jb", "eb", "n", "cell_limit",
            "first_jitter", "code_base", "code", "out", "count")),
    ]


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
    """The compiled library, with walk_cells, seed_edges and format_g
    typed, or None when it cannot be built or loaded here."""
    try:
        lib = ctypes.CDLL(str(_build()))
        walk, seeds, fmt = lib.walk_cells, lib.seed_edges, lib.format_g
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    walk.argtypes = [ctypes.c_void_p, ctypes.POINTER(State), ctypes.c_void_p,
                     ctypes.c_void_p, _i64]
    walk.restype = ctypes.c_int
    seeds.argtypes = [ctypes.c_void_p, _i64, _i64, _i64, _i64, _f64, _f64, _i64,
                      ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, _i64]
    seeds.restype = _i64
    fmt.argtypes = [ctypes.c_void_p, _i64, _i64, ctypes.c_int,
                    ctypes.POINTER(ctypes.c_char_p), _i64, ctypes.c_void_p,
                    ctypes.POINTER(_i64)]
    fmt.restype = _i64
    return lib


# The exit table as the kernel reads it, and the walk's stop reasons.
_EXIT_BYTES = np.array(EXIT, dtype=np.int8)
_EXIT_ADDRESS = _EXIT_BYTES.__array_interface__["data"][0]
_REASONS = {CELLS: "cells", BUDGET: "budget", CLOSED: "closed"}


def walk_compiled(fn, walker, i, j, entry, p0x, p0y, closing, arc_limit, cell_limit):
    """_Walker.walk with the kernel fn, given p0's coordinates and the
    cells and sides whose leaving closes the walk."""
    field = walker.field
    st = State(
        exits=_EXIT_ADDRESS, level=walker.level, delta=walker.delta, h=walker.h,
        arc_limit=arc_limit, p0x=p0x, p0y=p0y, px=p0x, py=p0y,
        i=i, j=j, oi=i - i % CHUNK, oj=j - j % CHUNK,
        cell_limit=int(cell_limit), code_base=16 * entry, out=-1,
    )
    st.ia, st.ja, st.ea, st.ib, st.jb, st.eb = closing
    buf = np.empty((2, CAPACITY))
    x_at = buf.__array_interface__["data"][0]
    y_at = x_at + buf.strides[0]
    chunk = field._chunk(st.oi // CHUNK, st.oj // CHUNK)[1]
    parts = []  # the buffer's vertices, copied each time it fills and at the end
    while True:
        stop = fn(chunk, st, x_at, y_at, CAPACITY)
        if stop == LEAVE:
            chunk = field._chunk(st.oi // CHUNK, st.oj // CHUNK)[1]
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
    return xs, ys, st.arc, _REASONS[stop], st.first_jitter or None


# seed_edges numbers a block's grid edges in int32, two per corner.
MAX_BLOCK_CORNERS = 2**30

# Seeds an uncapped scan makes room for; a block with more is scanned again.
SEED_ROOM = 1024


def seed_edges_compiled(fn, g, i0, j0, h, delta, cap):
    """tracer._seed_edges with the kernel fn, given the field's h and
    delta: the first cap seeds as (x, y, edge), all when cap is None."""
    ni, nj = g.shape
    if ni * nj > MAX_BLOCK_CORNERS:
        raise ValueError(f"a {ni} x {nj} block has more than {MAX_BLOCK_CORNERS} corners")
    g = np.ascontiguousarray(g, dtype=np.float64)
    parent = np.empty(2 * ni * nj, dtype=np.int32)
    limit = 2**63 - 1 if cap is None else cap
    room = min(limit, SEED_ROOM)
    while True:
        xy = np.empty((room, 2))
        edges = np.empty((room, 3), dtype=np.int64)
        count = fn(_address(g), ni, nj, i0, j0, h, delta, limit, _address(parent),
                   _address(xy), _address(edges), room)
        if count <= room:
            break
        room = count
    return [(x, y, tuple(edge)) for (x, y), edge
            in zip(xy[:count].tolist(), edges[:count].tolist())]


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def walk_python(walker, i, j, entry, p0x, p0y, closing, arc_limit, cell_limit):
    """The walk of walk_compiled, in Python."""
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
    n = 0
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
    return xs, ys, arc, reason, first_jitter
