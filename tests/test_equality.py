"""== compares values on every dataclass that holds arrays.

Equal copies with distinct arrays compare equal, a changed field compares
unequal, and == returns a bool in both cases; the generated dataclass ==
raised ValueError on the array instead.
"""

import copy
import dataclasses

import numpy as np
import pytest

from moirelines.classifier import DirectionFit, FamilyVerdict, Quadruple, Regular, Undetermined
from moirelines.geometry import EuclideanTransform, Lattice2, fields_equal
from moirelines.potential import TableLookup
from moirelines.tracer import LevelLine, LineStatus

from families import single_harmonic_sum


def _line(x0=0.0):
    pts = np.array([[x0, 0.0], [1.0, 0.5], [2.0, 0.25]])
    return LevelLine(level=0.1, points=pts, status=LineStatus.CLOSED, arc_length=2.4,
                     seed=pts[0].copy())


def _regular(width=3.5):
    return Regular(quadruple=Quadruple(1, 1, -1, 0), direction=np.array([0.6, 0.8]),
                   strip_width=width, residual=0.01, widths_by_length=((10.0, 3.4),))


def _verdict(shift=0.25):
    return FamilyVerdict(alpha=0.7, shifts=(np.zeros(2), np.array([shift, 1.0])),
                         intervals=(None, None), levels=(0.1, 0.1),
                         classifications=(_regular(), Undetermined(reason="none")),
                         quadruple=None, mean_width=None, verdict="undetermined",
                         commensurate=False)


# (name, build, build with one field changed)
CASES = [
    ("Lattice2", lambda: Lattice2(np.array([1.0, 0.0]), np.array([0.0, 2.0])),
     lambda: Lattice2(np.array([1.0, 0.0]), np.array([0.0, 3.0]))),
    ("EuclideanTransform", lambda: EuclideanTransform(0.7, np.array([0.1, -0.2])),
     lambda: EuclideanTransform(0.7, np.array([0.1, 0.2]))),
    ("DirectionFit", lambda: DirectionFit(np.array([0.6, 0.8]), 0.01),
     lambda: DirectionFit(np.array([0.8, 0.6]), 0.01)),
    ("Regular", _regular, lambda: _regular(width=3.6)),
    ("LevelLine", _line, lambda: _line(x0=0.5)),
    ("FamilyVerdict", _verdict, lambda: _verdict(shift=0.5)),
    ("TableLookup", lambda: TableLookup(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.eye(2)),
     lambda: TableLookup(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 2 * np.eye(2))),
    ("SuperpositionPotential", lambda: single_harmonic_sum(0.3, 0.7),
     lambda: single_harmonic_sum(0.3, 0.7, shift=(0.1, 0.0))),
]


@pytest.mark.parametrize("build, changed", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_equal_values_compare_equal(build, changed):
    a, b = build(), build()
    assert (a == b) is True and (a != b) is False
    assert (a == copy.deepcopy(a)) is True
    assert (a == changed()) is False and (a != changed()) is True
    assert a != "not a dataclass"


@dataclasses.dataclass(frozen=True)
class _Noted:
    values: np.ndarray
    note: object = dataclasses.field(default=None, compare=False)

    __eq__ = fields_equal


def test_uncompared_fields_are_ignored():
    a = _Noted(np.array([1.0, 2.0]), note="a")
    assert a == _Noted(np.array([1.0, 2.0]), note=object())
    assert a != _Noted(np.array([1.0, 2.5]), note="a")
