"""Command line interface.

Five subcommands cover the pipeline: ``eval`` prints potential values,
``trace`` writes level-line polylines, ``classify`` reports the type of one
open line, ``sweep`` classifies a whole angle grid, and ``zones`` reduces a
sweep to stability zones.  Every command reads the potential from a
definition file (see docs/formats.md), writes deterministic artifacts, and
drops a run manifest next to them.

Exit codes: 0 on success, 1 on any error (bad flags, malformed config,
failed computation), 2 when the computation succeeded but found nothing
(no seeds at the level, no open-line energy interval, no zones).
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import classification_to_dict, classify_potential
from .config import ConfigError, load_config
from .geometry import Rect
from .output import (
    FLOAT_SPEC,
    fmt_float,
    format_array,
    run_manifest,
    stable_json,
    svg_pieces,
    write_text,
)
from .potential import eval_superposition
from .sweep import (
    SweepConfig,
    detect_zones,
    make_point_fn,
    result_to_dict,
    shared_pool,
    sweep_angle,
    sweep_to_csv,
    zones_to_csv,
    zones_to_svg,
)
from .tracer import (
    CELLS_PER_PERIOD,
    LENGTH_PERIODS,
    ChunkedField,
    TraceBudget,
    find_seeds,
    trace_level_line,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EMPTY = 2


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_ERROR):
        super().__init__(message)
        self.code = code


def _finite(text: str) -> float:
    """argparse type of every float flag.  It raises ArgumentTypeError, not
    CliError: parse_args turns only the former into a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"needs a finite number, got {text!r}")
    return value


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise CliError(f"{what} needs {count} comma-separated numbers, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as err:
        raise CliError(f"{what}: {err}") from None
    if not all(math.isfinite(v) for v in values):
        raise CliError(f"{what} needs finite numbers, got {text!r}")
    return values


def _window_from(args, s) -> Rect:
    if args.window:
        x0, y0, x1, y1 = _parse_floats(args.window, 4, "--window")
        try:
            return Rect(x0, y0, x1, y1)
        except ValueError as err:
            raise CliError(str(err)) from None
    # Every command seeds over the sweep's default window.
    side = SweepConfig.window_periods * s.longest_period()
    return Rect.centered((0.0, 0.0), side)


def _budget_from(args, s) -> TraceBudget:
    return TraceBudget.for_potential(s, cell_size=args.cell_h, max_arc_length=args.budget_l)


class _Pieces:
    """An artifact's text as str pieces.  Like a str it has a len(), so the
    size of a written artifact can be read off it: the characters handed
    out so far, which is all of them once the artifact is written."""

    def __init__(self, pieces):
        self._pieces = pieces
        self._len = 0

    def __iter__(self):
        for piece in self._pieces:
            self._len += len(piece)
            yield piece

    def __len__(self):
        return self._len


def _emit(out: str, formats, files: dict, config_bytes: bytes, params: dict):
    """Write each file whose extension is in formats, then manifest.json,
    into the directory out.  files maps a name to a function building its
    text, a str or an iterable of pieces, so only the files written are
    built and a file need never be held whole."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, build in files.items():
        if name.rpartition(".")[2] in formats:
            text = build()
            write_text(out_dir / name, text if isinstance(text, str) else _Pieces(text))
    manifest = run_manifest(__version__, config_bytes, params)
    write_text(out_dir / "manifest.json", stable_json(manifest, indent=2))


def _load(args):
    try:
        return load_config(args.config)
    except FileNotFoundError:
        raise CliError(f"config file not found: {args.config}") from None
    except ConfigError as err:
        raise CliError(f"config: {err}") from None


# Rows evaluated and written at a time, so memory stays flat for any grid.
_EVAL_BLOCK = 4096


def cmd_eval(args) -> int:
    if not args.point and not args.grid:
        raise CliError("eval needs --point x,y (repeatable) and/or --grid nx,ny")
    s, _ = _load(args)
    points = [_parse_floats(p, 2, "--point") for p in args.point or ()]
    w = _window_from(args, s)
    xs = ys = np.empty(0)
    if args.grid:
        counts = _parse_floats(args.grid, 2, "--grid")
        if not all(v.is_integer() and v >= 1 for v in counts):
            raise CliError(f"--grid needs two positive whole counts, got {args.grid!r}")
        xs = np.linspace(w.x0, w.x1, int(counts[0]))
        ys = np.linspace(w.y0, w.y1, int(counts[1]))
    head = np.array(points, dtype=float).reshape(-1, 2)
    total = len(head) + len(xs) * len(ys)
    sys.stdout.write("x,y,f\n")
    for start in range(0, total, _EVAL_BLOCK):
        # Row r is point r, then grid node r - len(head) with x fastest.
        y_at, x_at = np.divmod(
            np.arange(max(start, len(head)), min(start + _EVAL_BLOCK, total)) - len(head),
            max(len(xs), 1),
        )
        block = np.concatenate([
            head[start : start + _EVAL_BLOCK],
            np.column_stack([xs[x_at], ys[y_at]]),
        ])
        # The middle axis makes every row its own (1,2) @ (2,k) product, the
        # same per-row BLAS call a single point gets, so the values equal
        # one-point evaluations bit for bit.  A flat (N,2) batch goes through
        # a matrix-matrix product and rounds differently in the last bit.
        vals = eval_superposition(s, block[:, None, :])[:, 0]
        rows = np.column_stack([block, vals])
        sys.stdout.write(format_array(rows, FLOAT_SPEC, (",", ",", "\n")))
    return EXIT_OK


def _polylines_csv(lines):
    # gnuplot-style: one x,y table per line, blocks separated by a blank row.
    yield "x,y\n"
    for k, ln in enumerate(lines):
        if k:
            yield "\n"
        yield format_array(ln.points, FLOAT_SPEC, (",", "\n"))


def _lines_json(lines) -> str:
    return stable_json([
        {
            "level": ln.level,
            "status": ln.status.value,
            "arc_length": ln.arc_length,
            "n_vertices": len(ln.points),
            "seed": [float(ln.seed[0]), float(ln.seed[1])],
            "jitter_scale": ln.jitter_scale,
        }
        for ln in lines
    ], indent=2)


def cmd_trace(args) -> int:
    if args.max_lines < 1:
        raise CliError("--max-lines must be at least 1")
    s, data = _load(args)
    budget = _budget_from(args, s)
    window = _window_from(args, s)
    field = ChunkedField(s, budget.cell_size)
    seeds = find_seeds(s, args.level, window, budget.cell_size, field)
    if not seeds:
        sys.stderr.write(f"no level-line seeds at level {args.level} in window\n")
        return EXIT_EMPTY
    seeds = seeds[: args.max_lines]
    lines = [
        trace_level_line(s, seed, args.level, budget, field=field) for seed in seeds
    ]
    del field  # writing the lines needs none of its chunks
    formats = sorted(set(args.format or ("csv", "svg")))
    files = {
        "lines.csv": lambda: _polylines_csv(lines),
        "lines.svg": lambda: svg_pieces(lines),
        "lines.json": lambda: _lines_json(lines),
    }
    _emit(args.out, formats, files, data, {
        "command": "trace",
        "level": args.level,
        "cell_size": budget.cell_size,
        "max_arc_length": budget.max_arc_length,
        "window": [window.x0, window.y0, window.x1, window.y1],
        "max_lines": args.max_lines,
        "formats": formats,
    })
    for k, ln in enumerate(lines):
        sys.stdout.write(
            f"line {k}: status={ln.status.value} arc_length={fmt_float(ln.arc_length)} "
            f"vertices={len(ln.points)}\n"
        )
    return EXIT_OK


def cmd_classify(args) -> int:
    s, data = _load(args)
    budget = _budget_from(args, s)
    window = _window_from(args, s)
    interval, level, c = classify_potential(s, window, budget, args.level, args.tol_eps)
    if level is None:
        sys.stderr.write("no open-line energy interval found\n")
        return EXIT_EMPTY
    if c is None:
        sys.stderr.write(f"no level-line seeds at level {fmt_float(level)}\n")
        return EXIT_EMPTY
    params = {
        "command": "classify",
        "level": level,
        "cell_size": budget.cell_size,
        "max_arc_length": budget.max_arc_length,
        "window": [window.x0, window.y0, window.x1, window.y1],
        "interval": None
        if interval is None
        else {"lo": interval.lo, "hi": interval.hi, "degenerate": interval.degenerate},
    }
    report = classification_to_dict(c, parameters=params)
    report["level"] = level
    text = stable_json(report, indent=2)
    _emit(args.out, {"json"}, {"classification.json": lambda: text}, data, params)
    sys.stdout.write(text)
    return EXIT_OK


def _sweep_config(args) -> SweepConfig:
    return SweepConfig(
        alpha_start=args.alpha_start,
        alpha_end=args.alpha_end,
        alpha_count=args.alpha_count,
        shifts_per_alpha=args.shifts,
        seed=args.seed,
        level=args.level,
        workers=args.workers,
        cell_h=args.cell_h,
        budget_arc=args.budget_l,
    )


def cmd_sweep(args) -> int:
    s, data = _load(args)
    config = _sweep_config(args)
    result = sweep_angle(s.v, s.u, config, s.combiner)
    files = {
        "sweep.csv": lambda: sweep_to_csv(result),
        "sweep.json": lambda: stable_json(result_to_dict(result), indent=2),
    }
    _emit(args.out, args.format or ("csv", "json"), files, data,
          {"command": "sweep", **config.to_params()})
    counts = Counter(sample.verdict for sample in result.samples)
    sys.stdout.write(
        "sweep: "
        + " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        + "\n"
    )
    return EXIT_OK


def cmd_zones(args) -> int:
    if args.refine_tol <= 0:
        raise CliError("--refine-tol must be positive")
    s, data = _load(args)
    config = _sweep_config(args)
    # Edge bisections (<= 2 per zone of 2+ angles) and verifies never outnumber the grid.
    with shared_pool(min(config.workers, config.alpha_count)):
        result = sweep_angle(s.v, s.u, config, s.combiner)
        point_fn = make_point_fn(s.v, s.u, config, s.combiner)
        zone_set = detect_zones(result, args.refine_tol, point_fn=point_fn)
    files = {
        "zones.csv": lambda: zones_to_csv(zone_set),
        "zones.json": lambda: stable_json(result_to_dict(result, zone_set), indent=2),
        "zones.svg": lambda: zones_to_svg(zone_set, config),
    }
    _emit(args.out, args.format or ("csv", "json", "svg"), files, data,
          {"command": "zones", "refine_tol": args.refine_tol, **config.to_params()})
    for z in zone_set.zones:
        label = ",".join(str(v) for v in z.quadruple.as_tuple())
        sys.stdout.write(
            f"zone [{fmt_float(z.alpha_lo)}, {fmt_float(z.alpha_hi)}] "
            f"quadruple=({label}) samples={len(z.sample_alphas)}\n"
        )
    if not zone_set.zones:
        sys.stderr.write("no stability zones detected\n")
        return EXIT_EMPTY
    return EXIT_OK


def _budget_options(periods: float) -> argparse.ArgumentParser:
    """--cell-h and --budget-L; the arc budget defaults to this many periods."""
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--cell-h", type=_finite, default=None, dest="cell_h",
                        help="marching grid spacing "
                        f"(default: shortest period / {CELLS_PER_PERIOD})")
    budget.add_argument("--budget-L", type=_finite, default=None, dest="budget_l",
                        help="arc-length budget for open lines "
                        f"(default: {periods:g} * longest period)")
    return budget


def _format_option(*choices: str) -> argparse.ArgumentParser:
    """--format, limited to the formats the command writes."""
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", action="append", choices=choices,
                     help="output formats (repeatable; each command has its own default set)")
    return fmt


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moirelines",
        description="Trace and classify level lines of superposed periodic potentials.",
    )
    parser.add_argument("--version", action="version", version=f"moirelines {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="potential definition file")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=".",
                     help="output directory (default: the current directory)")
    fmt = _format_option("csv", "json", "svg")

    window = f"(default: {SweepConfig.window_periods:g} longest periods around the origin)"
    budget = _budget_options(LENGTH_PERIODS)
    budget.add_argument("--window", default=None,
                        help="x0,y0,x1,y1 seeding window; write "
                        f"--window=x0,... when x0 is negative {window}")

    p_eval = sub.add_parser("eval", parents=[config], help="print potential values")
    p_eval.add_argument("--point", action="append", help="x,y (repeatable)")
    p_eval.add_argument("--grid", default=None, help="nx,ny samples over the window")
    p_eval.add_argument("--window", default=None, help=f"x0,y0,x1,y1 for --grid {window}")
    p_eval.set_defaults(func=cmd_eval)

    p_trace = sub.add_parser("trace", parents=[config, out, fmt, budget],
                             help="trace level lines")
    p_trace.add_argument("--level", type=_finite, required=True,
                         help="level E of f to trace (required)")
    p_trace.add_argument("--max-lines", type=int, default=20,
                         help="trace at most this many seeds, at least 1 "
                         "(default: 20)")
    p_trace.set_defaults(func=cmd_trace)

    p_classify = sub.add_parser("classify", parents=[config, out, budget],
                                help="classify one open line")
    p_classify.add_argument("--level", type=_finite, default=None,
                            help="default: midpoint of the open-line energy interval")
    p_classify.add_argument("--tol-eps", type=_finite, default=1e-3, dest="tol_eps",
                            help="energy-interval bracket tolerance (default: 1e-3)")
    p_classify.set_defaults(func=cmd_classify)

    sweep_common = argparse.ArgumentParser(add_help=False)
    sweep_common.add_argument("--alpha-start", type=_finite, required=True,
                              help="first twist angle in radians (required)")
    sweep_common.add_argument("--alpha-end", type=_finite, required=True,
                              help="last twist angle in radians (required)")
    sweep_common.add_argument("--alpha-count", type=int, required=True,
                              help="number of evenly spaced angles, at least 2 (required)")
    sweep_common.add_argument("--shifts", type=int, default=3,
                              help="random layer shifts classified per angle (default: 3)")
    sweep_common.add_argument("--seed", type=int, default=0,
                              help="seed of the per-angle shift samples (default: 0)")
    sweep_common.add_argument("--workers", type=int, default=1,
                              help="worker processes for the angle grid and, in "
                              "zones, the zone-edge bisections and verify samples; "
                              "at least 1, results do not depend on it (default: 1)")
    sweep_common.add_argument("--level", type=_finite, default=None,
                              help="fixed level (default: per-angle interval midpoint)")
    sweep_parents = [sweep_common, _budget_options(SweepConfig.length_periods)]

    # sweep writes no SVG.
    p_sweep = sub.add_parser("sweep", parents=[config, out, _format_option("csv", "json"),
                                               *sweep_parents], help="classify an angle grid")
    p_sweep.set_defaults(func=cmd_sweep)

    p_zones = sub.add_parser("zones", parents=[config, out, fmt, *sweep_parents],
                             help="sweep, then detect stability zones")
    p_zones.add_argument("--refine-tol", type=_finite, default=1e-3, dest="refine_tol",
                         help="zone-edge bisection stops at this angle width, "
                         "positive (default: 1e-3)")
    p_zones.set_defaults(func=cmd_zones)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors; fold into the error code.
        return EXIT_OK if err.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except CliError as err:
        sys.stderr.write(f"error: {err}\n")
        return err.code
    except Exception as err:  # surfaced, not swallowed: message + code 1
        sys.stderr.write(f"error: {type(err).__name__}: {err}\n")
        return EXIT_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
