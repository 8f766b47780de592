import argparse
import contextlib
import json
import math
import re
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from moirelines import cli, sweep
from moirelines.cli import EXIT_EMPTY, build_parser, main
from moirelines.output import FLOAT_SPEC, fmt_float, format_array, manifests_equivalent
from moirelines.potential import eval_superposition
from moirelines.config import parse_config

import oracles

TWO_PI = 2.0 * math.pi

THREEQ_CFG = """\
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

ARC_45 = str(45.0 * TWO_PI)
ARC_40 = str(40.0 * TWO_PI)


@pytest.fixture(scope="module")
def cfg_threeq(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "threeq.cfg"
    p.write_text(THREEQ_CFG)
    return str(p)


@pytest.fixture(scope="module")
def cfg_twocos(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "twocos.cfg"
    p.write_text(TWO_COS_CFG)
    return str(p)


class TestEval:
    def test_single_point(self, cfg_twocos, capsys):
        code = main(["eval", "--config", cfg_twocos, "--point", "0.3,0.4"])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "x,y,f"
        x, y, f = (float(v) for v in out[1].split(","))
        assert (x, y) == (0.3, 0.4)
        assert f == pytest.approx(math.cos(0.3) + math.cos(0.4), abs=1e-15)

    def test_points_and_grid(self, cfg_twocos, capsys):
        code = main([
            "eval", "--config", cfg_twocos,
            "--point", "0,0", "--point", "1,1",
            "--grid", "3,4", "--window", "0,0,1,1",
        ])
        assert code == 0
        rows = capsys.readouterr().out.strip().split("\n")
        assert len(rows) == 1 + 2 + 12

    def test_grid_values_match_library(self, cfg_threeq, capsys):
        # Every row equals a one-point library call bit for bit, in order:
        # the points, then the grid with x fastest.  There are more rows
        # than one evaluation block, so a block edge is crossed.
        code = main(["eval", "--config", cfg_threeq, "--point", "0.3,0.4",
                     "--point=-7.5,2", "--grid", "70,60", "--window=-9,-8,11,5"])
        assert code == 0
        rows = capsys.readouterr().out.split("\n")
        assert rows[0] == "x,y,f" and rows[-1] == ""
        s = parse_config(THREEQ_CFG)
        xs, ys = np.linspace(-9, 11, 70), np.linspace(-8, 5, 60)
        want = [[0.3, 0.4], [-7.5, 2.0]]
        want += [[float(x), float(y)] for y in ys for x in xs]
        assert len(rows) == 2 + len(want) > 4096
        for row, (x, y) in zip(rows[1:], want):
            f = eval_superposition(s, np.array([x, y]))
            assert row == f"{fmt_float(x)},{fmt_float(y)},{fmt_float(f)}"

    def test_memory_does_not_grow_with_the_grid(self, cfg_threeq):
        # 90,000 grid rows; building the whole grid first peaked at 4.2 MiB.
        class Sink:
            def write(self, text):
                pass

        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(Sink()):
                assert main(["eval", "--config", cfg_threeq, "--grid", "300,300"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_needs_some_points(self, cfg_twocos, capsys):
        code = main(["eval", "--config", cfg_twocos])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["--grid", "2.9,1.5"], "--grid needs two positive whole counts"),
        (["--grid", "0,3"], "--grid needs two positive whole counts"),
        (["--grid", "nan,3"], "--grid needs finite numbers"),
        (["--point", "nan,1"], "--point needs finite numbers"),
        (["--point", "1e400,0"], "--point needs finite numbers"),
        (["--point", "0,0", "--window", "0,0,inf,1"], "--window needs finite numbers"),
        (["--grid", "3,3", "--window", "0,nan,1,1"], "--window needs finite numbers"),
    ], ids=["grid-fraction", "grid-zero", "grid-nan", "point-nan", "point-overflow",
            "window-inf", "grid-window-nan"])
    def test_bad_input_fails_before_evaluating(
        self, cfg_twocos, capsys, monkeypatch, args, message
    ):
        monkeypatch.setattr(cli, "eval_superposition", _no_eval)
        code = main(["eval", "--config", cfg_twocos, *args])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message}")


class TestTrace:
    def test_closed_loop_artifacts(self, cfg_twocos, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "trace", "--config", cfg_twocos, "--level", "0.5",
            "--window=-3,-3,3,3", "--budget-L", ARC_40,
            "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "line 0: status=closed" in stdout
        csv = (out / "lines.csv").read_text()
        assert csv.startswith("x,y\n")
        svg = (out / "lines.svg").read_text()
        assert svg.count("<path") == stdout.count("line ")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "moirelines"
        assert manifest["parameters"]["command"] == "trace"
        assert not (out / "lines.json").exists()

    def test_blocks_separated_by_blank_rows(self, cfg_twocos, tmp_path):
        out = tmp_path / "run"
        code = main([
            "trace", "--config", cfg_twocos, "--level", "0.5",
            "--window=-9,-9,9,9", "--budget-L", ARC_40,
            "--out", str(out),
        ])
        assert code == 0
        csv = (out / "lines.csv").read_text()
        blocks = csv[len("x,y\n"):].rstrip("\n").split("\n\n")
        assert len(blocks) > 1
        for block in blocks:
            for row in block.split("\n"):
                assert len(row.split(",")) == 2

    def test_max_lines(self, cfg_twocos, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "trace", "--config", cfg_twocos, "--level", "0.5",
            "--window=-9,-9,9,9", "--budget-L", ARC_40,
            "--max-lines", "1", "--out", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().out.count("line ") == 1

    def test_json_format_opt_in(self, cfg_twocos, tmp_path):
        out = tmp_path / "run"
        code = main([
            "trace", "--config", cfg_twocos, "--level", "0.5",
            "--window=-3,-3,3,3", "--budget-L", ARC_40,
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "lines.json").read_text())
        assert payload[0]["status"] == "closed"
        assert payload[0]["n_vertices"] > 10
        assert not (out / "lines.csv").exists()
        assert not (out / "lines.svg").exists()

    def test_no_seeds_exits_empty(self, cfg_twocos, tmp_path, capsys):
        code = main([
            "trace", "--config", cfg_twocos, "--level", "2.5",
            "--out", str(tmp_path),
        ])
        assert code == 2
        assert "no level-line seeds" in capsys.readouterr().err

    def test_deterministic_artifacts(self, cfg_twocos, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "trace", "--config", cfg_twocos, "--level", "0.5",
                "--window=-3,-3,3,3", "--budget-L", ARC_40,
                "--out", str(out),
            ]) == 0
            outs.append(out)
        a, b = outs
        assert (a / "lines.csv").read_bytes() == (b / "lines.csv").read_bytes()
        assert (a / "lines.svg").read_bytes() == (b / "lines.svg").read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        assert manifests_equivalent(ma, mb)


    def test_writing_memory_is_bounded_by_a_line(
        self, cfg_twocos, tmp_path, monkeypatch, capsys, make_polyline
    ):
        # 24 open lines of 6,000 vertices, 5.6 MB of CSV.  Joining every
        # line's text, then encoding it whole, peaked at about twice that.
        rng = np.random.default_rng(24)
        lines = [make_polyline(rng.normal(scale=50.0, size=(6000, 2)), level=0.5)
                 for _ in range(24)]
        largest = max(len(format_array(ln.points, FLOAT_SPEC, (",", "\n")))
                      for ln in lines)
        traced = iter(lines)
        monkeypatch.setattr(cli, "find_seeds", lambda *args: [ln.seed for ln in lines])
        monkeypatch.setattr(cli, "trace_level_line", lambda *args, **kwargs: next(traced))
        out = tmp_path / "run"
        tracemalloc.start()
        try:
            assert main(["trace", "--config", cfg_twocos, "--level", "0.5",
                         "--max-lines", "24", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out.count("line ") == 24
        total = (out / "lines.csv").stat().st_size
        assert total > 20 * largest
        assert (out / "lines.svg").read_text().count("<path") == 24
        assert peak < 6 * largest + 2**20


class TestClassify:
    def test_regular_line_reported(self, cfg_threeq, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "classify", "--config", cfg_threeq, "--level", "0.0",
            "--budget-L", ARC_40, "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "classification.json").read_text())
        assert report["status"] == "regular"
        assert tuple(report["quadruple"]) == oracles.THREEQ_QUADRUPLE
        assert report["strip_width"] > 0
        assert report["level"] == 0.0
        stdout = capsys.readouterr().out
        assert '"status": "regular"' in stdout

    def test_closed_fallback(self, cfg_twocos, tmp_path):
        out = tmp_path / "run"
        code = main([
            "classify", "--config", cfg_twocos, "--level", "0.5",
            "--budget-L", ARC_40, "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "classification.json").read_text())
        assert report["status"] == "closed"
        assert report["diameter"] > 0

    def test_level_from_interval_midpoint(self, cfg_twocos, tmp_path):
        # Unperturbed field: the interval collapses onto the critical level
        # and every line there is a loop.
        out = tmp_path / "run"
        code = main([
            "classify", "--config", cfg_twocos,
            "--budget-L", str(20.0 * TWO_PI),
            "--window=-12.6,-12.6,12.6,12.6",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "classification.json").read_text())
        assert report["status"] == "closed"
        assert abs(report["level"]) < 2e-3
        interval = report["parameters"]["interval"]
        assert interval["degenerate"] is True

    def test_no_seeds_exits_empty(self, cfg_twocos, tmp_path, capsys):
        code = main([
            "classify", "--config", cfg_twocos, "--level", "2.5",
            "--out", str(tmp_path),
        ])
        assert code == 2
        assert "no level-line seeds" in capsys.readouterr().err


class TestSweepAndZones:
    ARGS = [
        "--alpha-start", "0.70", "--alpha-end", "0.74", "--alpha-count", "2",
        "--shifts", "1", "--seed", "3", "--level", "0.0",
        "--budget-L", ARC_45,
    ]

    def test_sweep_artifacts(self, cfg_threeq, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["sweep", "--config", cfg_threeq, *self.ARGS,
                     "--out", str(out)])
        assert code == 0
        assert "regular=2" in capsys.readouterr().out
        csv = (out / "sweep.csv").read_text()
        lines = csv.strip().split("\n")
        assert lines[0].startswith("alpha,verdict,")
        assert len(lines) == 3
        assert all(",regular," in ln for ln in lines[1:])
        payload = json.loads((out / "sweep.json").read_text())
        assert len(payload["samples"]) == 2
        assert payload["parameters"]["alpha_count"] == 2

    def test_zones_detect_and_render(self, cfg_threeq, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["zones", "--config", cfg_threeq, *self.ARGS,
                     "--refine-tol", "0.02", "--out", str(out)])
        assert code == 0
        assert "zone [" in capsys.readouterr().out
        csv = (out / "zones.csv").read_text().strip().split("\n")
        assert len(csv) == 2
        fields = csv[1].split(",")
        assert tuple(int(v) for v in fields[2:6]) == oracles.THREEQ_QUADRUPLE
        payload = json.loads((out / "zones.json").read_text())
        assert len(payload["zones"]) == 1
        assert payload["zones"][0]["verified"] is True
        assert (out / "zones.svg").read_text().count('data-role="zone"') == 1

    def test_zones_pool_starts_at_most_one_worker_per_angle(
        self, cfg_threeq, tmp_path, capsys, pool_sizes
    ):
        out = tmp_path / "run"
        code = main(["zones", "--config", cfg_threeq, *self.ARGS,
                     "--refine-tol", "0.02", "--workers", "64", "--out", str(out)])
        assert code == 0
        assert "zone [" in capsys.readouterr().out
        # One pool for the two grid angles, the edge bisections and the verify.
        assert pool_sizes == [2]
        payload = json.loads((out / "zones.json").read_text())
        assert payload["parameters"]["workers"] == 64
        assert payload["zones"][0]["verified"] is True

    def test_zones_empty_exits_two(self, cfg_threeq, tmp_path, capsys):
        # At a level far outside the open-line band everything is a loop.
        args = [a if a != "0.0" else "0.9" for a in self.ARGS]
        code = main(["zones", "--config", cfg_threeq, *args,
                     "--out", str(tmp_path)])
        assert code == 2
        assert "no stability zones" in capsys.readouterr().err


class TestZonesWorkers:
    # The zones benchmark inputs: both inner zone edges are bisected and
    # both zones verified, so every pool phase runs with two jobs.
    ARGS = [
        "--alpha-start", "0.62", "--alpha-end", "0.67", "--alpha-count", "6",
        "--shifts", "2", "--seed", "9", "--refine-tol", "0.005",
    ]

    def _run(self, cfg, out, workers, capsys):
        code = main(["zones", "--config", cfg, *self.ARGS,
                     "--workers", str(workers), "--out", str(out)])
        assert code == 0
        return capsys.readouterr().out

    def test_output_does_not_depend_on_worker_count(
        self, cfg_threeq, tmp_path, capsys, monkeypatch
    ):
        with monkeypatch.context() as m:
            # One worker runs in-process: any pool would raise here.
            m.setattr(sweep, "ProcessPoolExecutor", _no_pool)
            stdout1 = self._run(cfg_threeq, tmp_path / "w1", 1, capsys)
        pools = []

        def counted_pool(*args, **kwargs):
            pools.append(kwargs)
            return ProcessPoolExecutor(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(sweep, "ProcessPoolExecutor", counted_pool)
            stdout2 = self._run(cfg_threeq, tmp_path / "w2", 2, capsys)
        # The grid, the edge bisections and the verify samples share a pool.
        assert pools == [{"max_workers": 2}]
        assert stdout1 == stdout2
        assert stdout1.count("zone [") == 2
        for name in ("zones.csv", "zones.svg"):
            assert (tmp_path / "w1" / name).read_bytes() == (
                tmp_path / "w2" / name).read_bytes()
        one, two = (json.loads((tmp_path / w / "zones.json").read_text())
                    for w in ("w1", "w2"))
        assert (one["parameters"].pop("workers"), two["parameters"].pop("workers")) == (1, 2)
        assert one == two
        assert [z["verified"] for z in one["zones"]] == [True, True]


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def _no_sweep(*args, **kwargs):
    raise AssertionError("the sweep ran")


def _no_eval(*args, **kwargs):
    raise AssertionError("the potential was evaluated")


def _no_sample(*args, **kwargs):
    raise AssertionError("an angle was sampled")


def _no_seeds(*args, **kwargs):
    raise AssertionError("seeds were searched")


def _no_classify(*args, **kwargs):
    raise AssertionError("the potential was classified")


# Every (subcommand, option) pair the CLI accepts, "" being the top level;
# argparse's own --help is left out.  A new, renamed or dropped flag shows
# up here as a one-line diff.
OPTIONS = [
    ("", "--version"),
    ("classify", "--budget-L"),
    ("classify", "--cell-h"),
    ("classify", "--config"),
    ("classify", "--level"),
    ("classify", "--out"),
    ("classify", "--tol-eps"),
    ("classify", "--window"),
    ("eval", "--config"),
    ("eval", "--grid"),
    ("eval", "--point"),
    ("eval", "--window"),
    ("sweep", "--alpha-count"),
    ("sweep", "--alpha-end"),
    ("sweep", "--alpha-start"),
    ("sweep", "--budget-L"),
    ("sweep", "--cell-h"),
    ("sweep", "--config"),
    ("sweep", "--format"),
    ("sweep", "--level"),
    ("sweep", "--out"),
    ("sweep", "--seed"),
    ("sweep", "--shifts"),
    ("sweep", "--workers"),
    ("trace", "--budget-L"),
    ("trace", "--cell-h"),
    ("trace", "--config"),
    ("trace", "--format"),
    ("trace", "--level"),
    ("trace", "--max-lines"),
    ("trace", "--out"),
    ("trace", "--window"),
    ("zones", "--alpha-count"),
    ("zones", "--alpha-end"),
    ("zones", "--alpha-start"),
    ("zones", "--budget-L"),
    ("zones", "--cell-h"),
    ("zones", "--config"),
    ("zones", "--format"),
    ("zones", "--level"),
    ("zones", "--out"),
    ("zones", "--refine-tol"),
    ("zones", "--seed"),
    ("zones", "--shifts"),
    ("zones", "--workers"),
]

# The options that take one real number; every one of them is checked by
# TestErrors.test_non_finite_number_fails_before_any_work.
FLOAT_OPTIONS = [
    ("classify", "--budget-L"),
    ("classify", "--cell-h"),
    ("classify", "--level"),
    ("classify", "--tol-eps"),
    ("sweep", "--alpha-end"),
    ("sweep", "--alpha-start"),
    ("sweep", "--budget-L"),
    ("sweep", "--cell-h"),
    ("sweep", "--level"),
    ("trace", "--budget-L"),
    ("trace", "--cell-h"),
    ("trace", "--level"),
    ("zones", "--alpha-end"),
    ("zones", "--alpha-start"),
    ("zones", "--budget-L"),
    ("zones", "--cell-h"),
    ("zones", "--level"),
    ("zones", "--refine-tol"),
]


def _option_actions():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    for name, sub in [("", parser), *commands.choices.items()]:
        for action in sub._actions:
            if action.option_strings and action.dest != "help":
                yield name, action.option_strings[-1], action


def test_options_are_pinned():
    assert sorted((name, flag) for name, flag, _ in _option_actions()) == OPTIONS


def test_float_options_are_listed():
    floats = sorted((name, flag) for name, flag, a in _option_actions()
                    if a.type in (float, cli._finite))
    assert floats == FLOAT_OPTIONS
    assert not [flag for _, flag, a in _option_actions() if a.type is float]


class TestHelp:
    def test_every_option_has_help_stating_its_default(self):
        checked = 0
        for name, flag, action in _option_actions():
            assert action.help and action.help.strip(), (name, flag)
            if action.default not in (None, argparse.SUPPRESS):
                assert "default" in action.help, (name, flag)
            checked += 1
        assert checked == len(OPTIONS)

    def test_stated_defaults_are_the_resolved_ones(
        self, cfg_twocos, tmp_path, monkeypatch, capsys
    ):
        # A default run records the budget and window its help states.
        monkeypatch.setattr(cli, "sweep_angle",
                            lambda v, u, config, combiner: sweep.SweepResult(config, ()))
        s = parse_config(TWO_COS_CFG)
        short, long = s.shortest_period(), s.longest_period()
        helps = {(n, flag): a.help for n, flag, a in _option_actions()}

        def stated(name, flag, pattern):
            return float(re.search(pattern, helps[name, flag]).group(1))

        window = r"default: ([\d.]+) longest periods around the origin\)"
        # eval writes no manifest: its 2x2 grid spans the window's corners.
        half = stated("eval", "--window", window) * long / 2
        assert main(["eval", "--config", cfg_twocos, "--grid", "2,2"]) == 0
        rows = capsys.readouterr().out.split("\n")[1:5]
        assert [row.rsplit(",", 1)[0] for row in rows] == [
            f"{fmt_float(x)},{fmt_float(y)}" for y in (-half, half) for x in (-half, half)
        ]
        angles = ["--alpha-start", "0.7", "--alpha-end", "0.8", "--alpha-count", "2"]
        runs = {"trace": ["--level", "0.5"], "classify": ["--level", "0.5"],
                "sweep": angles, "zones": angles}
        for name, args in runs.items():
            cells = stated(name, "--cell-h", r"default: shortest period / ([\d.]+)\)")
            periods = stated(name, "--budget-L", r"default: ([\d.]+) \* longest period\)")
            out = tmp_path / name
            code = main([name, "--config", cfg_twocos, *args, "--out", str(out)])
            assert code == (EXIT_EMPTY if name == "zones" else 0)  # zones: no samples
            params = json.loads((out / "manifest.json").read_text())["parameters"]
            if name in ("trace", "classify"):
                half = stated(name, "--window", window) * long / 2
                assert params["cell_size"] == short / cells
                assert params["max_arc_length"] == periods * long
                assert params["window"] == [-half, -half, half, half]
            else:
                assert params["cells_per_period"] == cells
                assert params["length_periods"] == periods
                assert params["cell_h"] is None and params["budget_arc"] is None


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["eval", "--config", str(tmp_path / "nope.cfg"),
                     "--point", "0,0"])
        assert code == 1
        assert "config file not found" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(TWO_COS_CFG.replace("term = 1 0 1.0", "term = one 0 1.0"))
        code = main(["eval", "--config", str(p), "--point", "0,0"])
        assert code == 1
        err = capsys.readouterr().err
        assert "config:" in err and "line" in err

    @pytest.mark.parametrize("args", [["eval", "--point", "0,0"],
                                      ["trace", "--level", "0.1", "--out"]],
                             ids=["eval", "trace"])
    def test_amplitudes_whose_sum_overflows_fail_on_their_line(self, tmp_path, capsys, args):
        text = TWO_COS_CFG.replace("term = 1 0 0.0", "term = 1 0 1e308\nterm = 0 1 1e308")
        lineno = text.splitlines().index("term = 0 1 1e308") + 1
        p = tmp_path / "huge.cfg"
        p.write_text(text)
        out = tmp_path / "run"
        argv = [args[0], "--config", str(p), *args[1:]] + ([str(out)] if "--out" in args else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: config: line {lineno}: u.terms: the absolute "
                                "amplitudes sum beyond the float range\n")
        assert not out.exists()

    @pytest.mark.parametrize("args", [["eval", "--point", "0,0"],
                                      ["trace", "--level", "0.1", "--out"]],
                             ids=["eval", "trace"])
    def test_combined_bound_that_overflows_fails_on_its_line(self, tmp_path, capsys, args):
        text = TWO_COS_CFG.replace("term = 1 0 1.0\nterm = 0 1 1.0", "term = 1 0 1e308")
        text = text.replace("term = 1 0 0.0", "term = 1 0 1e308")
        lineno = len(text.splitlines())
        p = tmp_path / "huge.cfg"
        p.write_text(text)
        out = tmp_path / "run"
        argv = [args[0], "--config", str(p), *args[1:]] + ([str(out)] if "--out" in args else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: config: line {lineno}: combiner: the Sum combiner's "
                                "bound on |f| overflows the float range\n")
        assert not out.exists()

    def test_usage_error_is_exit_one(self, capsys):
        assert main(["trace", "--no-such-flag"]) == 1
        assert main(["no-such-command"]) == 1

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "moirelines" in capsys.readouterr().out

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one(self, cfg_threeq, tmp_path, capsys, workers):
        code = main(["sweep", "--config", cfg_threeq, *TestSweepAndZones.ARGS,
                     "--workers", workers, "--out", str(tmp_path)])
        assert code == 1
        assert "workers must be at least 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("max_lines", ["0", "-1"])
    def test_max_lines_below_one(self, cfg_threeq, tmp_path, capsys, max_lines):
        out = tmp_path / "run"
        code = main(["trace", "--config", cfg_threeq, "--level", "0.1",
                     f"--max-lines={max_lines}", "--out", str(out)])
        assert code == 1
        assert "--max-lines must be at least 1" in capsys.readouterr().err
        assert not (out / "lines.csv").exists()

    @pytest.mark.parametrize("refine_tol", ["0", "-1e-3"])
    def test_refine_tol_not_positive_fails_before_the_sweep(
        self, cfg_threeq, tmp_path, capsys, monkeypatch, refine_tol
    ):
        monkeypatch.setattr(cli, "sweep_angle", _no_sweep)
        code = main(["zones", "--config", cfg_threeq, *TestSweepAndZones.ARGS,
                     f"--refine-tol={refine_tol}", "--out", str(tmp_path)])
        assert code == 1
        assert "--refine-tol must be positive" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, flag", FLOAT_OPTIONS)
    def test_non_finite_number_fails_before_any_work(
        self, cfg_threeq, tmp_path, capsys, command, flag, value
    ):
        base = {
            "trace": ["--level", "0.1"],
            "classify": [],
            "sweep": TestSweepAndZones.ARGS,
            "zones": TestSweepAndZones.ARGS,
        }[command]
        out = tmp_path / "run"
        code = main([command, "--config", cfg_threeq, *base, f"{flag}={value}",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: needs a finite number, got '{value}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "zones"])
    def test_too_coarse_cell_fails_before_any_sample(
        self, cfg_threeq, tmp_path, capsys, monkeypatch, command
    ):
        # The same BudgetError trace reports, raised before the first angle.
        code = main(["trace", "--config", cfg_threeq, "--level", "0.1",
                     "--cell-h", "10", "--out", str(tmp_path / "trace")])
        assert code == 1
        trace_err = capsys.readouterr().err
        assert trace_err.startswith("error: BudgetError: cell size 10.0 too coarse")
        monkeypatch.setattr(sweep, "_sample_alpha", _no_sample)
        out = tmp_path / "run"
        code = main([command, "--config", cfg_threeq, *TestSweepAndZones.ARGS,
                     "--cell-h", "10", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == trace_err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, flag, value, message", [
        ("trace", "--cell-h", "0", "cell_size must be positive, got 0.0"),
        ("classify", "--budget-L", "1e308",
         "max_arc_length 1e+308 at cell_size 0.39269908169872414 overflows the cell cap"),
        # Finite cap, but not once scaled to the interval probes' depth.
        ("classify", "--budget-L", "5e306",
         "max_arc_length 5e+306 at cell_size 0.39269908169872414 overflows the cell cap"),
        ("sweep", "--cell-h", "1e-320",
         "max_arc_length 282.7433388230814 at cell_size 1e-320 overflows the cell cap"),
        ("zones", "--budget-L", "1e308",
         "max_arc_length 1e+308 at cell_size 0.39269908169872414 overflows the cell cap"),
        # Finite even when scaled, but beyond what any walk could finish.
        ("trace", "--budget-L", "1e7",
         "max_arc_length 10000000.0 at cell_size 0.39269908169872414 needs a cell cap "
         "of 8.149e+08 at depth 4, over the ceiling of 134217728"),
    ], ids=["trace-cell-h-0", "classify-budget-L-1e308", "classify-budget-L-5e306",
            "sweep-cell-h-1e-320", "zones-budget-L-1e308", "trace-budget-L-1e7"])
    def test_budget_out_of_range_fails_before_any_work(
        self, cfg_threeq, tmp_path, capsys, monkeypatch, command, flag, value, message
    ):
        monkeypatch.setattr(cli, "find_seeds", _no_seeds)
        monkeypatch.setattr(cli, "classify_potential", _no_classify)
        monkeypatch.setattr(sweep, "_sample_alpha", _no_sample)
        base = {
            "trace": ["--level", "0.1"],
            "classify": [],
            "sweep": TestSweepAndZones.ARGS,
            "zones": TestSweepAndZones.ARGS,
        }[command]
        out = tmp_path / "run"
        code = main([command, "--config", cfg_threeq, *base, flag, value,
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: BudgetError: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["eval", "--point", "1,2", "--out", "run"],
        ["eval", "--point", "1,2", "--format", "svg"],
        ["classify", "--out", "run", "--format", "csv"],
    ], ids=["eval-out", "eval-format", "classify-format"])
    def test_option_the_command_ignores_is_refused(
        self, cfg_threeq, tmp_path, capsys, monkeypatch, argv
    ):
        monkeypatch.setattr(cli, "eval_superposition", _no_eval)
        monkeypatch.setattr(cli, "classify_potential", _no_classify)
        monkeypatch.chdir(tmp_path)
        code = main([argv[0], "--config", cfg_threeq, *argv[1:]])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
        assert not list(tmp_path.iterdir())

    def test_sweep_refuses_svg_before_any_angle_is_sampled(
        self, cfg_threeq, tmp_path, capsys, monkeypatch
    ):
        # sweep writes no SVG, so --format svg would leave only manifest.json.
        monkeypatch.setattr(sweep, "_sample_alpha", _no_sample)
        out = tmp_path / "run"
        code = main(["sweep", "--config", cfg_threeq, *TestSweepAndZones.ARGS,
                     "--format", "svg", "--out", str(out)])
        assert code == 1
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert "argument --format: invalid choice: 'svg'" in err
        assert not out.exists()

    def test_bad_window_spec(self, cfg_twocos, capsys):
        code = main(["trace", "--config", cfg_twocos, "--level", "0.5",
                     "--window", "1,2,3"])
        assert code == 1
        assert "--window" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["--level", "abc"], "argument --level: invalid float value: 'abc'"),
        (["--level", "0.5", "--window", "a,b,c,d"],
         "error: --window: could not convert string to float: 'a'"),
        (["--level", "0.5", "--window=1,1,0,0"],
         "error: empty rectangle: Rect(x0=1.0, y0=1.0, x1=0.0, y1=0.0)"),
    ], ids=["level-word", "window-words", "window-empty"])
    def test_bad_trace_input_fails_before_any_work(
        self, cfg_twocos, tmp_path, capsys, monkeypatch, args, message
    ):
        monkeypatch.setattr(cli, "find_seeds", _no_seeds)
        out = tmp_path / "run"
        code = main(["trace", "--config", cfg_twocos, *args, "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
