import math
import os

import numpy as np
import pytest

from moirelines import LevelLine, LineStatus, Rect, TraceBudget, _walk, sweep, two_cosine_potential
from moirelines.potential import SuperpositionPotential
from moirelines.geometry import EuclideanTransform

TWO_PI = 2.0 * math.pi


def pytest_report_header(config):
    """NumPy's BLAS, OPENBLAS_CORETYPE when it is set, and whether the
    compiled library loaded or its Python and NumPy twins run: the
    bit-for-bit pins hold only where the BLAS rounds like the machine that
    recorded them (and the compiled fill rounds as its FMA kernels do), so
    a pin that fails on another CPU shows its likely cause here."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # NumPy before 1.26 has no "dicts" mode
        name = "unknown"
    line = f"numpy {np.__version__}, BLAS: {name}"
    core = os.environ.get("OPENBLAS_CORETYPE")
    if core is not None:
        line += f", OPENBLAS_CORETYPE={core}"
    library = "loaded" if _walk.kernel() is not None else "not built, the twins run"
    return [line, f"compiled library {_walk.SOURCE.name}: {library}"]


@pytest.fixture(scope="session")
def two_cos() -> SuperpositionPotential:
    """f = cos x + cos y exactly: the second layer has zero amplitude."""
    v = two_cosine_potential(TWO_PI)
    u = two_cosine_potential(TWO_PI, amplitude=0.0)
    return SuperpositionPotential(v, u, EuclideanTransform(0.0))


def polyline(points, status=LineStatus.OPEN_BUDGET_EXHAUSTED, level=0.0):
    """Synthetic LevelLine around an explicit vertex array."""
    pts = np.asarray(points, dtype=float)
    seg = np.diff(pts, axis=0)
    arc = float(np.sum(np.hypot(seg[:, 0], seg[:, 1])))
    return LevelLine(
        level=level,
        points=pts,
        status=status,
        arc_length=arc,
        seed=pts[0],
    )


@pytest.fixture
def python_walker(monkeypatch):
    """Set the whole compiled library aside, as where it cannot be built:
    walks run the Python loop, seed scans run in NumPy and
    output.format_array formats in Python."""
    monkeypatch.setattr(_walk, "kernel", lambda: None)


@pytest.fixture
def pool_sizes(monkeypatch) -> list:
    """The max_workers of every process pool the sweep asks for.  The pool
    is a stand-in that maps in-process, so no process starts."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return list(map(fn, *iterables))

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", SerialPool)
    return sizes


@pytest.fixture
def make_polyline():
    return polyline


@pytest.fixture
def small_window() -> Rect:
    return Rect.centered((0.0, 0.0), 2.0 * TWO_PI)


@pytest.fixture
def small_budget(two_cos) -> TraceBudget:
    return TraceBudget.for_potential(two_cos, length_periods=20.0)
