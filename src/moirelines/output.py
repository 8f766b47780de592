"""Deterministic text output: numbers, CSV, canonical JSON, SVG, manifests.

Everything written here is a pure function of its inputs.  Floats are
rendered with 17 significant digits (enough to round-trip a double; SVG
path coordinates get 8), the bulk of them by format_array.  JSON objects
are emitted with sorted keys and no locale- or hash-order-dependent
parts, and CSV always uses \\n regardless of platform.  Timestamps exist
only inside run manifests, never inside data files, so rerunning a command
with the same inputs reproduces the data files byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone

import numpy as np

from . import _walk

FLOAT_SPEC = ".17g"  # the format spec of every float written in full
SVG_SPEC = ".8g"  # the format spec of SVG path coordinates


def fmt_float(x) -> str:
    """17 significant digits; exact round-trip for IEEE doubles."""
    return format(float(x), FLOAT_SPEC)


def format_array(values, spec: str, seps: tuple[str, ...]) -> str:
    """format(float(x), spec) of every value in C order, value k followed
    by seps[k % len(seps)]; spec is ".Pg" with 1 <= P <= 17.  The bytes are
    the same whether the compiled library writes them or Python does."""
    precision = int(spec[1:-1])
    if spec != f".{precision}g" or not 1 <= precision <= 17:
        raise ValueError(f"format spec must be .Pg with 1 <= P <= 17, got {spec!r}")
    return _walk.format_floats(values, precision, seps)


def stable_json(obj, indent: int = 0) -> str:
    """Canonical JSON: sorted keys, fmt_float numbers, trailing newline."""

    def render(o, depth: int) -> str:
        pad = " " * (indent * (depth + 1))
        close_pad = " " * (indent * depth)
        sep = ",\n" + pad if indent else ","
        nl = "\n" + pad if indent else ""
        end = "\n" + close_pad if indent else ""
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, str):
            return json.dumps(o, ensure_ascii=True)
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            f = float(o)
            if not np.isfinite(f):
                return "null"
            return fmt_float(f)
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [
                f"{json.dumps(str(k), ensure_ascii=True)}: {render(v, depth + 1)}"
                for k, v in sorted(o.items(), key=lambda kv: str(kv[0]))
            ]
            return "{" + nl + sep.join(items) + end + "}"
        if isinstance(o, (list, tuple, np.ndarray)):
            seq = list(o)
            if not seq:
                return "[]"
            return "[" + nl + sep.join(render(v, depth + 1) for v in seq) + end + "]"
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return render(obj, 0) + "\n"


def write_text(path, text):
    """Write text, a str or an iterable of str pieces, to path as ASCII.

    The pieces go into a temporary file beside path, which replaces path
    only after the last one, so an error leaves path as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# SVG

_PALETTE_SATURATION = 65
_PALETTE_LIGHTNESS = 42


def color_for_key(key: str) -> str:
    """Stable, readable color derived from a hash of the key."""
    hue = int(hashlib.md5(key.encode()).hexdigest()[:8], 16) % 360
    return f"hsl({hue},{_PALETTE_SATURATION}%,{_PALETTE_LIGHTNESS}%)"


def _path_data(points: np.ndarray, mapper, closed: bool) -> str:
    # "Mx0 y0 Lx1 y1 L...": every pair ends in " L", the last one dropped.
    d = "M" + format_array(np.column_stack(mapper(points)), SVG_SPEC, (" ", " L"))[:-2]
    return d + " Z" if closed else d


def lines_to_svg(lines) -> str:
    """Render traced lines as one SVG path each.

    Each path carries data-level, data-status and data-arc-length attributes
    so the geometry stays machine-readable.  Coordinates are presentational
    (8 significant digits); the attributes use full precision.
    """
    return "".join(svg_pieces(lines))


def svg_pieces(lines):
    """lines_to_svg's text piece by piece: the header, one path per line
    and the closing tag."""
    if not lines:
        raise ValueError("no lines to render")
    lo = np.min([ln.points.min(axis=0) for ln in lines], axis=0)
    hi = np.max([ln.points.max(axis=0) for ln in lines], axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = 0.04 * float(span.max())  # margin, as a fraction of the span
    lo = lo - pad
    hi = hi + pad
    span = hi - lo
    width = 800  # pixels; the height follows the aspect ratio
    height = int(round(width * span[1] / span[0]))
    scale = width / span[0]

    def mapper(p):
        # Whole columns: the same IEEE operations as on each vertex alone.
        return ((p[:, 0] - lo[0]) * scale, (hi[1] - p[:, 1]) * scale)

    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
    )
    for ln in lines:
        closed = ln.status.value == "closed"
        d = _path_data(ln.points, mapper, closed)
        color = color_for_key(f"level:{fmt_float(ln.level)}")
        yield (
            f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.2" '
            f'data-level="{fmt_float(ln.level)}" data-status="{ln.status.value}" '
            f'data-arc-length="{fmt_float(ln.arc_length)}"/>\n'
        )
    yield "</svg>\n"


# ---------------------------------------------------------------------------
# Run manifests

TOOL_NAME = "moirelines"


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_manifest(version: str, config_bytes: bytes, parameters: dict) -> dict:
    """Describe a run: tool, config hash, resolved parameters, wall time.

    Two manifests describe the same computation exactly when everything but
    the timestamps matches; see manifests_equivalent.
    """
    now = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return {
        "tool": TOOL_NAME,
        "version": version,
        "config_sha256": sha256_hex(config_bytes),
        "parameters": parameters,
        "created_utc": now,
    }


def manifests_equivalent(a: dict, b: dict) -> bool:
    drop = {"created_utc", "finished_utc"}
    ka = {k: v for k, v in a.items() if k not in drop}
    kb = {k: v for k, v in b.items() if k not in drop}
    return stable_json(ka) == stable_json(kb)
