"""Span recorder for the traced benchmark pass.

Spans are recorded from the benchmark's side only: `install` replaces the
module attributes through which moirelines resolves its public functions at
call time (``from .tracer import trace_level_line`` binds one name per
importing module, so each importing module is patched), and every wrapper
records (name, start, end, parent, info) in memory.  `layer_metrics` turns
the spans into the per-layer metrics named in BENCHMARK.json.

Per-point calls (scalar potential evaluation) get no span: they are summed
into a count and a total time, and that time is charged to the enclosing
span as covered time, so self times stay the layer's own work.  Bookkeeping
done after a call returns (vertex de-duplication for the revisit ratio) is
charged the same way, so it never shows up as a parent layer's self time.

The traced pass runs in one process; spans of pool workers are not
collected, which is why the traced zones pass uses one worker.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import defaultdict

# (module, attribute, span name) for every call site the CLI pipeline uses.
_SPANNED = (
    ("tracer", "find_seeds", "tracer.find_seeds"),
    ("classifier", "find_seeds", "tracer.find_seeds"),
    ("cli", "find_seeds", "tracer.find_seeds"),
    ("tracer", "trace_level_line", "tracer.trace_level_line"),
    ("classifier", "trace_level_line", "tracer.trace_level_line"),
    ("cli", "trace_level_line", "tracer.trace_level_line"),
    ("classifier", "energy_interval", "tracer.energy_interval"),
    ("sweep", "energy_interval", "tracer.energy_interval"),
    ("cli", "energy_interval", "tracer.energy_interval"),
    ("classifier", "classify", "classifier.classify"),
    ("cli", "classify", "classifier.classify"),
    ("classifier", "classify_first_open", "classifier.classify_first_open"),
    ("sweep", "classify_first_open", "classifier.classify_first_open"),
    ("cli", "classify_first_open", "classifier.classify_first_open"),
    ("classifier", "recover_quadruple", "classifier.recover_quadruple"),
    ("cli", "sweep_angle", "sweep.sweep_angle"),
    ("cli", "detect_zones", "sweep.detect_zones"),
    # The per-angle sampler behind both the grid and zone refinement; it is
    # the unit a pool worker runs, so its durations are what workers wait on.
    ("sweep", "_sample_alpha", "sweep.sample"),
    ("cli", "load_config", "config.load_config"),
    ("cli", "write_text", "output.write_text"),
    ("cli", "lines_to_svg", "output.lines_to_svg"),
    ("cli", "stable_json", "output.stable_json"),
    ("cli", "run_manifest", "output.run_manifest"),
)
_EVAL_SITES = (("tracer", "eval_superposition"), ("cli", "eval_superposition"))
# Spans that start on fresh potentials: the revisit bookkeeping restarts
# there, which bounds its memory.
_SEEN_SCOPES = ("cli.main", "sweep.sample")

# Metrics that count work; they must repeat exactly between two passes.
COUNT_METRICS = (
    "potential.points_vector",
    "potential.calls_scalar",
    "tracer.chunks_filled",
    "tracer.seed_calls",
    "tracer.seed_cells",
    "tracer.traces",
    "tracer.vertices",
    "tracer.intervals",
    "tracer.probes",
    "classifier.classify_calls",
    "classifier.retraces",
    "classifier.first_open_attempts",
    "classifier.quad_calls",
    "sweep.points",
    "sweep.refine_points",
    "output.bytes",
)

UNITS = {
    "potential.points_vector": "count",
    "potential.ns_per_point_vector": "ns",
    "potential.calls_scalar": "count",
    "potential.us_per_call_scalar": "us",
    "tracer.chunks_filled": "count",
    "tracer.fill_s": "s",
    "tracer.seed_calls": "count",
    "tracer.seed_cells": "count",
    "tracer.seed_ms_per_call": "ms",
    "tracer.traces": "count",
    "tracer.vertices": "count",
    "tracer.walk_us_per_vertex": "us",
    "tracer.revisit_frac": "fraction",
    "tracer.intervals": "count",
    "tracer.probes": "count",
    "tracer.traces_per_probe": "ratio",
    "tracer.ms_per_probe": "ms",
    "tracer.interval_s": "s",
    "classifier.classify_calls": "count",
    "classifier.retraces": "count",
    "classifier.classify_self_ms": "ms",
    "classifier.first_open_attempts": "count",
    "classifier.quad_calls": "count",
    "classifier.ms_per_quad": "ms",
    "sweep.points": "count",
    "sweep.grid_s": "s",
    "sweep.refine_points": "count",
    "sweep.refine_s": "s",
    "sweep.s_per_point": "s",
    "sweep.point_max_over_median": "ratio",
    "output.bytes": "bytes",
    "output.s": "s",
    "cli.self_s": "s",
    "config.parse_ms": "ms",
    "bench.trace_overhead_s": "s",
    "bench.counter_mismatches": "count",
}


class Recorder:
    """In-memory spans plus aggregated per-point calls."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, info]
        self._stack: list[int] = []
        self.covered: defaultdict[int, float] = defaultdict(float)
        self.scalar_calls = 0
        self.scalar_s = 0.0
        self._seen: dict[tuple, set] = {}

    def _parent(self) -> int:
        return self._stack[-1] if self._stack else -1

    def wrap(self, name, fn, info=None):
        """fn wrapped in a span; info(args, kwargs, result) annotates it."""

        def wrapper(*args, **kwargs):
            parent = self._parent()
            if name in _SEEN_SCOPES:
                self._seen.clear()
            span = [name, 0.0, 0.0, parent, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
                self.covered[parent] += time.perf_counter() - span[2]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_eval(self, fn):
        """eval_superposition: spans for array calls, a tally for points."""
        array_call = self.wrap(
            "potential.eval_vector", fn, lambda a, k, r: {"points": int(r.size)}
        )

        def wrapper(s, p):
            if getattr(p, "ndim", 1) > 1:
                return array_call(s, p)
            t = time.perf_counter()
            result = fn(s, p)
            dt = time.perf_counter() - t
            self.scalar_calls += 1
            self.scalar_s += dt
            self.covered[self._parent()] += dt
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _trace_info(self, args, kwargs, line):
        # Vertices of a line that an earlier line on the same potential and
        # level already visited: the work a trace-once design would skip.
        s = args[0]
        t = s.transform
        key = (id(s.v), id(s.u), t.alpha, tuple(t.shift.tolist()), line.level)
        seen = self._seen.setdefault(key, set())
        verts = set(map(tuple, line.points.tolist()))
        revisits = len(verts & seen)
        seen |= verts
        return {"vertices": int(len(line.points)), "revisits": revisits}

    def install(self, modules: dict) -> None:
        """Patch every listed call site that exists in `modules`."""
        infos = {
            "tracer.trace_level_line": self._trace_info,
            "tracer.find_seeds": _seed_info,
            "tracer.energy_interval": lambda a, k, r: {"probes": int(r.n_probes)},
            "output.write_text": lambda a, k, r: {"bytes": len(a[1])},
        }
        wrappers: dict = {}
        for mod_name, attr, span_name in _SPANNED:
            mod = modules.get(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            key = (span_name, id(fn))
            if key not in wrappers:
                wrappers[key] = self.wrap(span_name, fn, infos.get(span_name))
            setattr(mod, attr, wrappers[key])
        cli = modules.get("cli")
        if cli is not None and hasattr(cli, "make_point_fn"):
            make = cli.make_point_fn

            def make_point_fn(*args, **kwargs):
                return self.wrap("sweep.point_fn", make(*args, **kwargs))

            cli.make_point_fn = make_point_fn
        evals: dict = {}
        for mod_name, attr in _EVAL_SITES:
            mod = modules.get(mod_name)
            fn = getattr(mod, attr, None)
            if fn is not None:
                if id(fn) not in evals:
                    evals[id(fn)] = self.wrap_eval(fn)
                setattr(mod, attr, evals[id(fn)])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "info"],
                    "spans": self.spans,
                    "scalar_eval": {"calls": self.scalar_calls, "s": self.scalar_s},
                },
                fh,
            )


def _seed_info(args, kwargs, result):
    window = args[2] if len(args) > 2 else kwargs["window"]
    h = args[3] if len(args) > 3 else kwargs["h"]
    cells = (math.ceil(window.x1 / h) - math.floor(window.x0 / h)) * (
        math.ceil(window.y1 / h) - math.floor(window.y0 / h)
    )
    return {"cells": cells}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics from one traced pass (times in the units named)."""
    spans = rec.spans
    child_s: defaultdict[int, float] = defaultdict(float)
    for name, t0, t1, parent, _ in spans:
        child_s[parent] += t1 - t0

    def dur(k: int) -> float:
        return spans[k][2] - spans[k][1]

    def self_s(k: int) -> float:
        return dur(k) - child_s[k] - rec.covered[k]

    def parent_is(k: int, name: str) -> bool:
        p = spans[k][3]
        return p >= 0 and spans[p][0] == name

    def under(k: int, name: str) -> bool:
        p = spans[k][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    by_name: defaultdict[str, list[int]] = defaultdict(list)
    for k, span in enumerate(spans):
        by_name[span[0]].append(k)

    def total(name: str) -> float:
        return sum(dur(k) for k in by_name[name])

    def info_sum(name: str, key: str) -> int:
        return sum(spans[k][4][key] for k in by_name[name] if spans[k][4])

    fill_s = total("potential.eval_vector")
    points_vector = info_sum("potential.eval_vector", "points")
    traces = by_name["tracer.trace_level_line"]
    vertices = info_sum("tracer.trace_level_line", "vertices")
    walk_s = sum(self_s(k) for k in traces)
    seed_calls = len(by_name["tracer.find_seeds"])
    probes = info_sum("tracer.energy_interval", "probes")
    interval_s = total("tracer.energy_interval")
    probe_traces = sum(1 for k in traces if under(k, "tracer.energy_interval"))
    quad_calls = len(by_name["classifier.recover_quadruple"])
    samples = [dur(k) for k in by_name["sweep.sample"]]
    grid_points = sum(1 for k in by_name["sweep.sample"] if under(k, "sweep.sweep_angle"))
    output_s = sum(
        dur(k) for k, span in enumerate(spans)
        if span[0].startswith("output.")
        and not (span[3] >= 0 and spans[span[3]][0].startswith("output."))
    )
    median = statistics.median(samples) if samples else 0.0
    return {
        "potential.points_vector": points_vector,
        "potential.ns_per_point_vector": 1e9 * _ratio(fill_s, points_vector),
        "potential.calls_scalar": rec.scalar_calls,
        "potential.us_per_call_scalar": 1e6 * _ratio(rec.scalar_s, rec.scalar_calls),
        "tracer.chunks_filled": len(by_name["potential.eval_vector"]),
        "tracer.fill_s": fill_s,
        "tracer.seed_calls": seed_calls,
        "tracer.seed_cells": info_sum("tracer.find_seeds", "cells"),
        "tracer.seed_ms_per_call": 1e3 * _ratio(total("tracer.find_seeds"), seed_calls),
        "tracer.traces": len(traces),
        "tracer.vertices": vertices,
        "tracer.walk_us_per_vertex": 1e6 * _ratio(walk_s, vertices),
        "tracer.revisit_frac": _ratio(info_sum("tracer.trace_level_line", "revisits"), vertices),
        "tracer.intervals": len(by_name["tracer.energy_interval"]),
        "tracer.probes": probes,
        "tracer.traces_per_probe": _ratio(probe_traces, probes),
        "tracer.ms_per_probe": 1e3 * _ratio(interval_s, probes),
        "tracer.interval_s": interval_s,
        "classifier.classify_calls": len(by_name["classifier.classify"]),
        "classifier.retraces": sum(1 for k in traces if parent_is(k, "classifier.classify")),
        "classifier.classify_self_ms": 1e3 * sum(self_s(k) for k in by_name["classifier.classify"]),
        "classifier.first_open_attempts": sum(
            1 for k in traces if parent_is(k, "classifier.classify_first_open")
        ),
        "classifier.quad_calls": quad_calls,
        "classifier.ms_per_quad": 1e3 * _ratio(total("classifier.recover_quadruple"), quad_calls),
        "sweep.points": grid_points,
        "sweep.grid_s": total("sweep.sweep_angle"),
        "sweep.refine_points": len(by_name["sweep.point_fn"]),
        "sweep.refine_s": total("sweep.detect_zones"),
        "sweep.s_per_point": _ratio(sum(samples), len(samples)),
        "sweep.point_max_over_median": _ratio(max(samples, default=0.0), median),
        "output.bytes": info_sum("output.write_text", "bytes"),
        "output.s": output_s,
        "cli.self_s": sum(self_s(k) for k in by_name["cli.main"]),
        "config.parse_ms": 1e3 * total("config.load_config"),
    }
