import json
import math

import numpy as np
import pytest

from moirelines.config import ConfigError, load_config, parse_config
from moirelines.output import (
    color_for_key,
    fmt_float,
    lines_to_svg,
    manifests_equivalent,
    run_manifest,
    sha256_hex,
    stable_json,
    write_text,
)
from moirelines.potential import Product, Sum, WeightedSum, eval_superposition
from moirelines.tracer import LineStatus

TWO_PI = 2.0 * math.pi

BASE_CONFIG = """\
# two square layers, one weak and twisted
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
term = 1 0 0.05 0.25
[transform]
alpha = 0.7
shift = 0.1 -0.2
"""


class TestParseConfig:
    def test_full_round_trip(self):
        s = parse_config(BASE_CONFIG)
        assert len(s.v.terms) == 2
        assert len(s.u.terms) == 1
        assert s.u.terms[0].amplitude == 0.05
        assert s.u.terms[0].phase == 0.25
        assert s.transform.alpha == pytest.approx(0.7)
        assert np.allclose(s.transform.shift, (0.1, -0.2))
        assert isinstance(s.combiner, Sum)
        assert eval_superposition(s, (0.3, 0.4)) == pytest.approx(
            math.cos(0.3) + math.cos(0.4)
            + 0.05 * math.cos(
                math.cos(0.7) * 0.3 + math.sin(0.7) * 0.4 + 0.1 + 0.25),
            abs=1e-12,
        )

    def test_defaults(self):
        minimal = "\n".join(
            line for line in BASE_CONFIG.splitlines()
            if not line.startswith(("alpha", "shift", "[transform"))
        )
        s = parse_config(minimal)
        assert s.transform.alpha == 0.0
        assert np.allclose(s.transform.shift, (0.0, 0.0))
        assert isinstance(s.combiner, Sum)

    def test_combiner_kinds(self):
        s = parse_config(BASE_CONFIG + "[combiner]\nkind = product\n")
        assert isinstance(s.combiner, Product)
        s = parse_config(
            BASE_CONFIG + "[combiner]\nkind = weighted\nc1 = 2.0\nc2 = 0.5\n")
        comb = s.combiner
        assert isinstance(comb, WeightedSum)
        assert (comb.c1, comb.c2) == (2.0, 0.5)

    @pytest.mark.parametrize(
        "mutation,needle",
        [
            (lambda t: t.replace("[u.terms]\nterm = 1 0 0.05 0.25\n",
                                 "[u.terms]\n"), "u.terms"),
            (lambda t: t.replace("e2 = 0.0 6.283185307179586\n"
                                 "[v.terms]",
                                 "[v.terms]"), "v.lattice.e2"),
        ],
    )
    def test_missing_required(self, mutation, needle):
        with pytest.raises(ConfigError) as err:
            parse_config(mutation(BASE_CONFIG))
        assert needle in str(err.value)

    def test_errors_carry_line_numbers(self):
        bad = BASE_CONFIG.replace("alpha = 0.7", "alpha = fast")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        lineno = BASE_CONFIG.splitlines().index("alpha = 0.7") + 1
        assert f"line {lineno}:" in str(err.value)

    @pytest.mark.parametrize("old, new, message", [
        ("e1 = 6.283185307179586 0.0", "e1 = 1e400 0.0", "v.lattice.e1: '1e400'"),
        ("alpha = 0.7", "alpha = nan", "transform.alpha: 'nan'"),
        ("shift = 0.1 -0.2", "shift = inf 0", "transform.shift: 'inf'"),
        ("term = 1 0 0.05 0.25", "term = 1 0 nan", "u.terms.term: 'nan'"),
        ("term = 1 0 0.05 0.25", "term = 1 0 0.05 -inf", "u.terms.term: '-inf'"),
        ("c1 = 2.0", "c1 = nan", "combiner.c1: 'nan'"),
    ], ids=["lattice", "alpha", "shift", "term-amplitude", "term-phase", "weight"])
    def test_non_finite_numbers_are_refused_with_their_line(self, old, new, message):
        text = BASE_CONFIG + "[combiner]\nkind = weighted\nc1 = 2.0\nc2 = 0.5\n"
        lineno = text.splitlines().index(old) + 1
        with pytest.raises(ConfigError) as err:
            parse_config(text.replace(old, new, 1))
        assert str(err.value) == f"line {lineno}: {message} is not a finite number"

    def test_amplitudes_whose_sum_overflows_are_refused_with_their_line(self):
        text = BASE_CONFIG.replace("term = 1 0 1.0\nterm = 0 1 1.0",
                                   "term = 1 0 1.0\nterm = 0 1 1e308\nterm = 1 1 -1e308\n"
                                   "term = 2 0 1.0")
        lineno = text.splitlines().index("term = 1 1 -1e308") + 1
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == (
            f"line {lineno}: v.terms: the absolute amplitudes sum beyond the float range")

    @pytest.mark.parametrize("combiner, line", [
        ("", "term = 1 0 1e308 0.25"),
        ("[combiner]\nkind = sum\n", "kind = sum"),
        ("[combiner]\nkind = product\n", "kind = product"),
    ], ids=["default-sum", "sum", "product"])
    def test_combined_bound_that_overflows_is_refused_with_its_line(self, combiner, line):
        text = BASE_CONFIG.replace("term = 1 0 1.0\nterm = 0 1 1.0", "term = 1 0 1e308")
        text = text.replace("term = 1 0 0.05 0.25", "term = 1 0 1e308 0.25") + combiner
        lineno = text.splitlines().index(line) + 1
        name = "Product" if "product" in combiner else "Sum"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == (
            f"line {lineno}: combiner: the {name} combiner's bound on |f| "
            "overflows the float range")

    def test_duplicate_key_rejected(self):
        bad = BASE_CONFIG + "[transform]\nalpha = 0.8\n"
        with pytest.raises(ConfigError) as err:
            parse_config(bad + "")
        assert "twice" in str(err.value)

    def test_unknown_section_and_key(self):
        with pytest.raises(ConfigError):
            parse_config(BASE_CONFIG + "[widgets]\nknob = 1\n")
        with pytest.raises(ConfigError):
            parse_config(BASE_CONFIG.replace("shift = 0.1 -0.2",
                                             "offset = 0.1 -0.2"))

    def test_degenerate_lattice_reported(self):
        bad = BASE_CONFIG.replace(
            "[v.lattice]\ne1 = 6.283185307179586 0.0\n"
            "e2 = 0.0 6.283185307179586",
            "[v.lattice]\ne1 = 1.0 1.0\ne2 = 2.0 2.0")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "v.lattice" in str(err.value)

    def test_term_arity(self):
        with pytest.raises(ConfigError):
            parse_config(BASE_CONFIG.replace("term = 1 0 0.05 0.25",
                                             "term = 1 0"))

    def test_load_config_returns_exact_bytes(self, tmp_path):
        path = tmp_path / "pot.cfg"
        path.write_text(BASE_CONFIG)
        s, raw_bytes = load_config(path)
        assert raw_bytes == BASE_CONFIG.encode()
        assert s.transform.alpha == pytest.approx(0.7)


class TestStableJson:
    def test_sorted_keys_and_trailing_newline(self):
        s = stable_json({"b": 1, "a": 2})
        assert s == '{"a": 2,"b": 1}\n'

    def test_float_formatting_17g(self):
        s = stable_json({"x": 0.1})
        assert '"x": 0.10000000000000001' in s
        assert fmt_float(0.1) == "0.10000000000000001"

    def test_non_finite_becomes_null(self):
        s = stable_json({"x": float("nan"), "y": float("inf")})
        assert s == '{"x": null,"y": null}\n'

    def test_nested_and_indent(self):
        s = stable_json({"a": [1, {"c": True, "b": None}]}, indent=2)
        parsed = json.loads(s)
        assert parsed == {"a": [1, {"b": None, "c": True}]}
        assert s.endswith("\n")

    def test_numpy_scalars_accepted(self):
        s = stable_json({"x": np.float64(1.5), "n": np.int64(3)})
        assert json.loads(s) == {"x": 1.5, "n": 3}

    def test_unknown_types_rejected(self):
        with pytest.raises(TypeError):
            stable_json({"x": object()})

    def test_ascii_only(self):
        s = stable_json({"note": "α angle"})
        assert s == '{"note": "\\u03b1 angle"}\n'
        assert s.encode("ascii")

    def test_byte_identical_across_calls(self):
        obj = {"alpha": 0.7, "values": [1e-17, 2.5, -0.0]}
        assert stable_json(obj) == stable_json(obj)


def _broken_pieces():
    yield "a,b\n"
    raise RuntimeError("broken piece")


class TestCsvAndFiles:
    def test_write_text_exact_bytes(self, tmp_path):
        p = tmp_path / "out.csv"
        write_text(p, "a,b\n1,2\n")
        assert p.read_bytes() == b"a,b\n1,2\n"

    def test_write_text_rejects_non_ascii(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            write_text(tmp_path / "bad.txt", "café\n")

    def test_write_text_joins_pieces(self, tmp_path):
        p = tmp_path / "out.csv"
        write_text(p, iter(["a,b\n", "", "1,2\n"]))
        assert p.read_bytes() == b"a,b\n1,2\n"

    def test_write_text_writes_a_str_whole(self, tmp_path):
        class Whole(str):
            def __iter__(self):
                raise AssertionError("a str was iterated")

        write_text(tmp_path / "out.csv", Whole("a,b\n"))
        assert (tmp_path / "out.csv").read_bytes() == b"a,b\n"

    def test_write_text_gives_a_plain_open_file_mode(self, tmp_path):
        with open(tmp_path / "plain.txt", "w"):
            pass
        write_text(tmp_path / "out.txt", "x\n")
        assert (tmp_path / "out.txt").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode

    @pytest.mark.parametrize("text, error", [
        (_broken_pieces, RuntimeError),
        (lambda: "café\n", UnicodeEncodeError),
    ], ids=["pieces", "non-ascii"])
    def test_failed_write_keeps_the_earlier_file(self, tmp_path, text, error):
        p = tmp_path / "out.csv"
        p.write_bytes(b"x,y\n0,1\n")
        with pytest.raises(error):
            write_text(p, text())
        assert p.read_bytes() == b"x,y\n0,1\n"
        assert [q.name for q in tmp_path.iterdir()] == ["out.csv"]


class TestColorAndSvg:
    def test_color_deterministic_and_distinct(self):
        a = color_for_key("level:0")
        assert a == color_for_key("level:0")
        assert a != color_for_key("level:1")
        assert a.startswith("hsl(")

    def test_lines_to_svg(self, make_polyline):
        t = np.linspace(0.0, TWO_PI, 120)
        loop = make_polyline(np.c_[np.cos(t), np.sin(t)],
                             status=LineStatus.CLOSED, level=0.25)
        open_line = make_polyline(np.c_[t, 0.3 * np.sin(t)], level=-0.5)
        svg = lines_to_svg([loop, open_line])
        assert svg.startswith("<svg")
        assert svg.count("<path") == 2
        assert 'data-status="closed"' in svg
        assert 'data-status="open-budget-exhausted"' in svg
        assert f'data-level="{fmt_float(0.25)}"' in svg
        # Closed loops render as closed path data.
        assert '"M' in svg and "Z" in svg

    def test_lines_to_svg_empty_rejected(self):
        with pytest.raises(ValueError):
            lines_to_svg([])


class TestManifest:
    def test_contents(self):
        m = run_manifest("0.1.0", b"abc", {"level": 0.5})
        assert m["tool"] == "moirelines"
        assert m["version"] == "0.1.0"
        assert m["config_sha256"] == sha256_hex(b"abc")
        assert m["parameters"] == {"level": 0.5}
        assert "created_utc" in m

    def test_equivalence_ignores_timestamps(self):
        a = run_manifest("0.1.0", b"abc", {"level": 0.5})
        b = dict(a, created_utc="2001-01-01T00:00:00+00:00")
        assert manifests_equivalent(a, b)
        c = dict(a)
        c["parameters"] = {"level": 0.6}
        assert not manifests_equivalent(a, c)

    def test_sha256_known_value(self):
        assert sha256_hex(b"") == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
