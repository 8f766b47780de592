"""output.format_array: the compiled formatter and its Python fallback.

Both must write format(float(x), spec) for every value, byte for byte, for
the two specs the outputs use: FLOAT_SPEC (.17g) for CLI eval and
lines.csv, SVG_SPEC (.8g) for SVG path data.
"""

import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moirelines import _walk
from moirelines.cli import main
from moirelines.output import FLOAT_SPEC, SVG_SPEC, format_array

SPECS = (FLOAT_SPEC, SVG_SPEC)

needs_kernel = pytest.mark.skipif(shutil.which(_walk.CC) is None,
                                  reason="no C compiler to build the library")


def _expected(values, spec, seps):
    return "".join(format(float(x), spec) + seps[k % len(seps)]
                   for k, x in enumerate(values))


def _fallback(values, spec, seps):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_walk, "kernel", lambda: None)
        return format_array(values, spec, seps)


def _check(values, spec, seps=(",", "\n")):
    """The kernel and the fallback both write what format writes."""
    values = np.array(values, dtype=np.float64)
    want = _expected(values, spec, seps)
    assert format_array(values, spec, seps) == want
    assert _fallback(values, spec, seps) == want


# Any float64: subnormals, both zeros, both infinities, NaN of either sign.
any_double = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
# Magnitudes across both ends of the range format_g writes itself.
wide_double = st.builds(lambda m, e: m * 10.0**e,
                        st.floats(-10.0, 10.0, allow_nan=False), st.integers(-40, 60))
# Exact ties of the rounding: 18 significant digits ending in 5 at .17g
# ((2j + 1) / 2^17 in [1, 10)), 9 ending in 5 at .8g.
tie_17 = st.integers(2**16, 5 * 2**17 - 1).map(lambda j: (2 * j + 1) * 2.0**-17)
tie_8 = st.one_of(st.integers(10**7, 10**8 - 1).map(lambda n: n + 0.5),
                  st.integers(2**7, 5 * 2**8 - 1).map(lambda j: (2 * j + 1) * 2.0**-8))


@needs_kernel
class TestFormatArray:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(any_double, max_size=40), st.sampled_from(SPECS))
    def test_any_bit_pattern(self, values, spec):
        _check(values, spec)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(wide_double, max_size=40), st.sampled_from(SPECS))
    def test_wide_magnitudes(self, values, spec):
        _check(values, spec)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(tie_17, min_size=1, max_size=40), st.lists(tie_8, min_size=1, max_size=40))
    def test_half_way_cases_round_half_even(self, ties_17, ties_8):
        _check(ties_17, FLOAT_SPEC)
        _check(ties_8, SVG_SPEC)

    @pytest.mark.parametrize("spec", SPECS)
    def test_edge_values(self, spec):
        _check([0.0, -0.0, 0.1, 12345678.5, 99999999.5, 0.5, 2.5, 9.5, 1e16, 1e17, 1e-4,
                1e-5, 5e-324, -1e-310, 1e-17, 1e300, -np.inf, np.inf, np.nan, -np.nan,
                2.0**-53, 2.0**-83, 2.0**159, 2.0**172, 123456789012345678.0], spec)

    @pytest.mark.parametrize("values, seps, text", [
        ([], (",", "\n"), ""),
        ([1.5], (",", "\n"), "1.5,"),
        ([1.0, 2.0, 3.0, 4.0], (" ", " L"), "1 2 L3 4 L"),
        ([1.0, 2.0, 3.0, 4.0], (",", ",", "\n"), "1,2,3\n4,"),
        ([0.25, np.nan, -np.inf, 0.5, 1e-300], (",", ",", "\n"), "0.25,nan,-inf\n0.5,1e-300,"),
    ])
    def test_separator_layout(self, values, seps, text):
        assert format_array(np.array(values), SVG_SPEC, seps) == text
        assert _fallback(np.array(values), SVG_SPEC, seps) == text

    def test_kernel_formats_in_c(self, monkeypatch):
        monkeypatch.setattr(_walk, "format_python", None)
        assert format_array(np.array([0.1, 2.0]), FLOAT_SPEC, (",",)) == "0.10000000000000001,2,"


@pytest.mark.parametrize("spec", [".18g", ".0g", ".8f", "8g"])
def test_unsupported_spec_is_refused(spec):
    with pytest.raises(ValueError):
        format_array(np.array([1.0]), spec, (",",))


def test_python_walker_formats_in_python(python_walker, monkeypatch, tmp_path, capsys):
    calls = []
    python = _walk.format_python
    monkeypatch.setattr(_walk, "format_python", lambda *a: calls.append(a) or python(*a))
    cfg = tmp_path / "pot.cfg"
    cfg.write_text("[v.lattice]\ne1 = 1 0\ne2 = 0 1\n[v.terms]\nterm = 1 0 1.0\n"
                   "[u.lattice]\ne1 = 1 0\ne2 = 0 1\n[u.terms]\nterm = 0 1 0.5\n"
                   "[transform]\nalpha = 0.3\n")
    assert main(["eval", "--config", str(cfg), "--grid", "3,2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 7
    assert len(calls) == 1
