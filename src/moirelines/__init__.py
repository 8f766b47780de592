"""Level lines of quasi-periodic superpositions of two periodic potentials.

The package builds a planar potential by superposing two doubly periodic
layers, the second one rotated and shifted, then traces its level lines over
arbitrarily large regions, classifies the open ones, recovers the integer
quadruple labelling the regular ones, and maps out the stability zones of
that label over the twist angle.

`import moirelines` loads none of its modules: each public name imports the
module that defines it on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# Each module and the public names it defines, in the order of __all__.
_PUBLIC = {
    "geometry": (
        "DegenerateLatticeError",
        "EuclideanTransform",
        "Lattice2",
        "Rect",
        "apply_transform",
        "embed",
        "reciprocal_basis",
        "rot90",
    ),
    "potential": (
        "Combiner",
        "CombinerRangeError",
        "FourierTerm",
        "PeriodicPotential",
        "Product",
        "Sum",
        "SuperpositionPotential",
        "TableLookup",
        "WeightedSum",
        "eval_periodic",
        "eval_superposition",
        "hexagonal_lattice",
        "is_commensurate",
        "lift_F",
        "period_generators",
        "square_lattice",
        "three_cosine_potential",
        "two_cosine_potential",
    ),
    "tracer": (
        "BudgetError",
        "ChunkedField",
        "EnergyInterval",
        "LevelLine",
        "LineStatus",
        "SeedNotOnLevelError",
        "TraceBudget",
        "energy_interval",
        "find_seeds",
        "trace_level_line",
    ),
    "classifier": (
        "Chaotic",
        "Classification",
        "Closed",
        "DirectionFit",
        "FamilyVerdict",
        "LineFitError",
        "Quadruple",
        "Regular",
        "Undetermined",
        "ZeroAnnihilatorError",
        "classification_to_dict",
        "classify",
        "classify_family",
        "classify_first_open",
        "classify_potential",
        "direction_from_quadruple",
        "fit_direction",
        "quadruple_basis",
        "recover_quadruple",
        "strip_width",
    ),
    "sweep": (
        "StabilityZone",
        "SweepConfig",
        "SweepResult",
        "ZoneSet",
        "detect_zones",
        "make_point_fn",
        "result_to_dict",
        "sample_shifts",
        "sweep_angle",
        "sweep_to_csv",
        "zones_to_csv",
        "zones_to_svg",
    ),
    "config": (
        "ConfigError",
        "load_config",
        "parse_config",
    ),
    "output": (
        "fmt_float",
        "lines_to_svg",
        "manifests_equivalent",
        "run_manifest",
        "stable_json",
        "write_text",
    ),
}

_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    """Import the module that defines the public name on its first use and
    bind the name here, so that later reads find it directly."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
