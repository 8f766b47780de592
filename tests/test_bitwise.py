"""Bit-for-bit regression pins for tracing, the energy interval, classify
and the routines built on them.

The line digests were recorded before the marching-squares walker was
rewritten for speed; any change to a traced vertex, an arc length, a stop
status or a jitter flag changes them.  Every line is traced twice: with the
plain budget and with a cell cap that stops it early, so every stop rule of
the walk is covered.

The potential is the README example: V = cos x + cos y, U = 0.3 cos x',
alpha = 0.7.  The CLI classify, shift-family and sweep pins were recorded
before those three callers were made to share one classification routine;
they cover the all-loops classify fallback, the degenerate-interval
midpoint, per-shift intervals and sweeps with and without a fixed level.
The zones pin, with the list of angles zone refinement sampled, was recorded
before the edge bisections and verify samples moved onto the worker pool.
The CLI eval and trace pins were recorded before ``eval`` evaluated its
points in blocks and the CSV and SVG writers formatted whole arrays.

Every pin holds with and without the compiled library: each test runs
once as it is, with the library's walk kernel and float formatter where it
can be built, and once more, with the suffix ``_python_walker``, with the
whole library set aside, so that the walks run in Python, the seed scans
in NumPy, and the CLI eval and trace pins hold the Python formatter's text
(tests/test_format.py::test_python_walker_formats_in_python shows that it
takes that path).
"""

import functools
import hashlib
import math
import struct

import pytest

from moirelines.classifier import (
    Regular,
    classification_to_dict,
    classify,
    classify_family,
    classify_first_open,
)
from moirelines.cli import main
from moirelines.geometry import Rect
from moirelines.output import stable_json
from moirelines.potential import (
    FourierTerm,
    PeriodicPotential,
    square_lattice,
    two_cosine_potential,
)
from moirelines.sweep import (
    SweepConfig,
    detect_zones,
    make_point_fn,
    result_to_dict,
    sweep_angle,
    sweep_to_csv,
    zones_to_csv,
)
from moirelines.tracer import (
    ChunkedField,
    TraceBudget,
    energy_interval,
    find_seeds,
    trace_level_line,
)

from families import single_harmonic_sum

TWO_PI = 2.0 * math.pi
MAX_SEEDS = 8

# Level name -> SHA-256 over every traced line at that level.
LINE_DIGESTS = {
    "open": "eab375071b2d50f78ce1565eb314e047248ea78ff009af1165ed4b345f337c09",
    "closed": "27f34aa70bc3de0e81323860136b3c9952ce2b92de8752bcb09d1b5452d026dd",
    "corner": "9deef65b38331115f04fd2b71c7a949d767e0683a844ed8040d3c6e7ebba50e4",
}
INTERVAL = (-0.205078125, 0.189453125, True, False)  # lo, hi, found, degenerate
CLASSIFY_WIDTHS = (
    (188.5451292411248, 8.71259395665267),
    (377.40760372719376, 8.876343331668917),
    (754.3783069408164, 9.420186199978012),
)
CLASSIFY_QUADRUPLE = (1, 1, -1, 0)


def _setup():
    s = single_harmonic_sum(delta=0.3, alpha=0.7)
    budget = TraceBudget.for_potential(s, length_periods=30.0)
    window = Rect.centered((0.0, 0.0), 3 * TWO_PI)
    return s, budget, window


def _levels(field):
    # "corner" sits exactly on a grid value, so the residual nudge fires.
    return {"open": 0.05, "closed": 0.9, "corner": float(field.corner(5, 3))}


def _feed(h, line):
    h.update(line.points.astype("<f8").tobytes())
    h.update(struct.pack("<dd", line.arc_length, line.jitter_scale))
    h.update(line.status.value.encode())


def _level_digest(s, budget, window, field, level):
    h = hashlib.sha256()
    capped = TraceBudget(budget.cell_size, budget.max_arc_length, 40)
    jittered = 0
    for seed in find_seeds(s, level, window, budget.cell_size, field)[:MAX_SEEDS]:
        for b in (budget, capped):
            line = trace_level_line(s, seed, level, b, field=field)
            _feed(h, line)
            jittered += line.jitter_scale > 0
    return h.hexdigest(), jittered


def test_traced_lines_bitwise():
    s, budget, window = _setup()
    field = ChunkedField(s, budget.cell_size)
    digests = {}
    for name, level in _levels(field).items():
        digests[name], jittered = _level_digest(s, budget, window, field, level)
        if name == "corner":
            assert jittered > 0
    assert digests == LINE_DIGESTS


def test_interval_and_classify_bitwise():
    s, budget, window = _setup()
    iv = energy_interval(s, window, budget, -1.0, 1.0, tol_eps=5e-3)
    assert (iv.lo, iv.hi, iv.found, iv.degenerate) == INTERVAL
    level = 0.5 * (iv.lo + iv.hi)
    field = ChunkedField(s, budget.cell_size)
    line, c = classify_first_open(s, level, window, budget, field=field)
    assert isinstance(c, Regular)
    assert c.widths_by_length == CLASSIFY_WIDTHS
    assert c.quadruple.as_tuple() == CLASSIFY_QUADRUPLE
    # classify on the line alone walks its seed anew and must agree exactly.
    again = classify(s, line, budget)
    assert isinstance(again, Regular)
    assert again.widths_by_length == c.widths_by_length
    assert again.quadruple == c.quadruple
    assert again.direction.tobytes() == c.direction.tobytes()
    assert (again.strip_width, again.residual) == (c.strip_width, c.residual)


# The unperturbed two-cosine field f = cos x + cos y as a CLI config.
TWO_COS_CFG = """\
[v.lattice]
e1 = 6.283185307179586 0.0
e2 = 0.0 6.283185307179586
[v.terms]
term = 1 0 1.0
term = 0 1 1.0
[u.lattice]
e1 = 6.283185307179586 0.0
e2 = 0.0 6.283185307179586
[u.terms]
term = 1 0 0.0
"""

# SHA-256 over stdout then classification.json of one `classify` run.
CLI_CLASSIFY_DIGESTS = {
    "all-loops": "4f81790b3a1a4fc40b9fb562a33a2a3c8748f218663e13d31730bec16459f701",
    "degenerate-midpoint": "01fcea3e4fbdafe7716b29eb14a958ca73343486580cb69fdc2463b0ba15f1cc",
}
SHIFT_FAMILY_DIGEST = "1716170ebcdee79750198c3f7c98ce44603a012146c57948ca0d55af9c30946a"
# SHA-256 over sweep_to_csv then the JSON of result_to_dict.
SWEEP_DIGESTS = {
    "interval": "264a093d8d0d8d7bf5ff5c53a1fcd17f996b6de64d8c290df85582cde791f9bf",
    "fixed-level": "ac237f22ed2bdff73ec67d0b2209207f19b05367cfc0a20e307b6a64b3f73737",
    "all-loops": "50a9e0864510b6d56d6de2a185e9b19f5949aa16683f0f5095fd60f4e865b7b6",
}


def _sha256(*texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "name, args",
    [
        # Every seed at level 0.5 closes: the first loop is reported.
        ("all-loops", ["--level", "0.5", "--budget-L", str(40.0 * TWO_PI)]),
        # The interval collapses onto the critical level; its midpoint is used.
        ("degenerate-midpoint", [
            "--budget-L", str(20.0 * TWO_PI), "--window=-12.6,-12.6,12.6,12.6",
        ]),
    ],
)
def test_cli_classify_bitwise(name, args, tmp_path, capsys):
    cfg = tmp_path / "twocos.cfg"
    cfg.write_text(TWO_COS_CFG)
    out = tmp_path / "run"
    code = main(["classify", "--config", str(cfg), *args, "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    report = (out / "classification.json").read_text()
    assert _sha256(stdout, report) == CLI_CLASSIFY_DIGESTS[name]


def test_shift_family_bitwise():
    v = two_cosine_potential(TWO_PI)
    u = PeriodicPotential(square_lattice(TWO_PI), (FourierTerm(1, 0, 0.3),))
    budget = TraceBudget(TWO_PI / 16, 30.0 * TWO_PI, int(8 * 30 * 16) + 64)
    window = Rect.centered((0.0, 0.0), 3 * TWO_PI)
    report = classify_family(
        v, u, 0.7, [(0.0, 0.0), (2.0, 1.0)], window, budget,
        tol_eps=1e-2, search_each_shift=True,
    )
    summary = {
        "classifications": [classification_to_dict(c) for c in report.classifications],
        "intervals": [
            [iv.lo, iv.hi, iv.found, iv.degenerate, iv.n_probes]
            for iv in report.intervals
        ],
        "levels": list(report.levels),
    }
    assert _sha256(stable_json(summary, indent=2)) == SHIFT_FAMILY_DIGEST


# At level 0.9 every line is a loop: each shift reports no open line.
@pytest.mark.parametrize(
    "name, level", [("interval", None), ("fixed-level", 0.0), ("all-loops", 0.9)]
)
def test_sweep_bitwise(name, level):
    s, _, _ = _setup()
    config = SweepConfig(
        alpha_start=0.62, alpha_end=0.67, alpha_count=3, shifts_per_alpha=2,
        seed=9, level=level, length_periods=30.0,
    )
    result = sweep_angle(s.v, s.u, config, s.combiner)
    assert all(sample.verdict != "error" for sample in result.samples)
    text = stable_json(result_to_dict(result), indent=2)
    assert _sha256(sweep_to_csv(result), text) == SWEEP_DIGESTS[name]


# SHA-256 over zones_to_csv then the JSON of result_to_dict with zones, for
# the zones-3freq inputs of the benchmark run with one worker.
ZONES_DIGEST = "f558f10cd84d3e6e7e00304e152e320704790c28d6e103758053f0abb48d8955"
# Every angle zone refinement sampled: the two inner edges bisected twice
# each, then one fresh verify angle per zone.
ZONES_REFINE_ALPHAS = [
    0.6211529872081877, 0.6325000000000001, 0.635,
    0.6525000000000001, 0.655, 0.6587162917764643,
]


def test_zones_bitwise():
    s, _, _ = _setup()
    config = SweepConfig(
        alpha_start=0.62, alpha_end=0.67, alpha_count=6, shifts_per_alpha=2, seed=9,
    )
    result = sweep_angle(s.v, s.u, config, s.combiner)
    sample = make_point_fn(s.v, s.u, config, s.combiner)
    sampled = []

    def point_fn(alpha):
        sampled.append(alpha)
        return sample(alpha)

    zone_set = detect_zones(result, 0.005, point_fn=point_fn)
    text = stable_json(result_to_dict(result, zone_set), indent=2)
    assert _sha256(zones_to_csv(zone_set), text) == ZONES_DIGEST
    assert sorted(sampled) == ZONES_REFINE_ALPHAS


# The README potential (alpha 0.7) and a weighted sum over a hexagonal
# layer with phased terms, shifted, as CLI configs.
README_CFG = """\
[v.lattice]
e1 = 6.283185307179586 0.0
e2 = 0.0 6.283185307179586
[v.terms]
term = 1 0 1.0
term = 0 1 1.0
[u.lattice]
e1 = 6.283185307179586 0.0
e2 = 0.0 6.283185307179586
[u.terms]
term = 1 0 0.3
[transform]
alpha = 0.7
"""
WEIGHTED_HEX_CFG = """\
[v.lattice]
e1 = 6.283185307179586 0.0
e2 = 3.141592653589793 5.441398092702653
[v.terms]
term = 1 0 1.0 0.3
term = 0 1 0.8 -1.1
term = 1 1 0.6 2.5
[u.lattice]
e1 = 4.0 0.5
e2 = -1.0 5.0
[u.terms]
term = 1 0 0.7 0.9
term = 2 -1 0.25 -0.4
[transform]
alpha = 0.37
shift = 0.4 -1.1
[combiner]
kind = weighted
c1 = 1.3
c2 = -0.45
"""

# SHA-256 of `eval` stdout: two --points, then a 7x5 grid.
CLI_EVAL_DIGESTS = {
    "readme": "3d6a2c50dc51c3ee9dbc551fe903376507adda69f533a33401a2a039d43eb8a7",
    "weighted-hex": "e088090fd1e8ca2fbc9d90b6bdd24fde32bb8dd950b672b4c1e6b6a2805efef2",
}
# SHA-256 of lines.csv, lines.svg and lines.json of one `trace` run: 5
# closed loops and 7 open lines at level 0.1 of the README potential.
CLI_TRACE_DIGESTS = {
    "lines.csv": "b61377a167643a78d3f052ea5af628c51cdc4890628747d2b6d53aa693ae2c95",
    "lines.svg": "0e64b7a317a7e98ace0aaad8ffea8596c8e6ce70d8bca5e31c7746790b236a21",
    "lines.json": "5f3d0782cc18c2772a22719fb76337689d7e1ea3055491a5fba352671aa88220",
}


@pytest.mark.parametrize("name", ["readme", "weighted-hex"])
def test_cli_eval_bitwise(name, tmp_path, capsys):
    cfg = tmp_path / "pot.cfg"
    cfg.write_text({"readme": README_CFG, "weighted-hex": WEIGHTED_HEX_CFG}[name])
    code = main([
        "eval", "--config", str(cfg), "--point", "0.3,0.4", "--point=-1.25,2.5",
        "--grid", "7,5", "--window=-3,-2,4,3",
    ])
    assert code == 0
    assert _sha256(capsys.readouterr().out) == CLI_EVAL_DIGESTS[name]


def test_cli_trace_bitwise(tmp_path, capsys):
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(README_CFG)
    out = tmp_path / "run"
    code = main([
        "trace", "--config", str(cfg), "--level", "0.1", "--budget-L", "60",
        "--window=-8,-8,8,8", "--max-lines", "12", "--out", str(out),
        "--format", "csv", "--format", "svg", "--format", "json",
    ])
    assert code == 0
    assert capsys.readouterr().out.count("status=closed") == 5
    digests = {name: _sha256((out / name).read_text()) for name in CLI_TRACE_DIGESTS}
    assert digests == CLI_TRACE_DIGESTS


def _on_python_walker(test):
    """A copy of test that runs under the python_walker fixture."""
    @functools.wraps(test)
    def twin(*args, **kwargs):
        return test(*args, **kwargs)

    return pytest.mark.usefixtures("python_walker")(twin)


for _name, _test in list(globals().items()):
    if _name.startswith("test_"):
        globals()[f"{_name}_python_walker"] = _on_python_walker(_test)
