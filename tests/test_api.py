"""Every value a caller can set through the public API, pinned.

A settable value is a defaulted parameter (or **kwargs) of a function or
public method named in moirelines.__all__, or a defaulted init field of a
dataclass named there.  Adding, removing or renaming one changes the list
below, so every new knob shows up as a one-line diff.  The package's
only runtime dependency is NumPy, which a fresh import also checks, a
fresh import loads no module of the package, no module imports a name it
never uses, no private module-level name goes unread, and only _walk
loads the compiled library.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import moirelines

SETTABLE = [
    ("EuclideanTransform", "shift"),
    ("FamilyVerdict", "error"),
    ("FourierTerm", "phase"),
    ("LevelLine", "jitter_scale"),
    ("StabilityZone", "verified"),
    ("StabilityZone", "verify_alpha"),
    ("SuperpositionPotential", "combiner"),
    ("SweepConfig", "budget_arc"),
    ("SweepConfig", "cell_h"),
    ("SweepConfig", "length_periods"),
    ("SweepConfig", "level"),
    ("SweepConfig", "seed"),
    ("SweepConfig", "shifts_per_alpha"),
    ("SweepConfig", "tol_eps"),
    ("SweepConfig", "window_periods"),
    ("SweepConfig", "workers"),
    ("TraceBudget.for_potential", "cell_size"),
    ("TraceBudget.for_potential", "length_periods"),
    ("TraceBudget.for_potential", "max_arc_length"),
    ("Undetermined", "widths_by_length"),
    ("classification_to_dict", "parameters"),
    ("classify_family", "combiner"),
    ("classify_family", "level"),
    ("classify_family", "search_each_shift"),
    ("classify_family", "tol_eps"),
    ("classify_first_open", "field"),
    ("classify_potential", "level"),
    ("classify_potential", "tol_eps"),
    ("detect_zones", "point_fn"),
    ("detect_zones", "refine_tol"),
    ("energy_interval", "field"),
    ("find_seeds", "field"),
    ("is_commensurate", "bound"),
    ("is_commensurate", "tol"),
    ("make_point_fn", "combiner"),
    ("recover_quadruple", "bound"),
    ("recover_quadruple", "tol"),
    ("result_to_dict", "zone_set"),
    ("stable_json", "indent"),
    ("sweep_angle", "combiner"),
    ("three_cosine_potential", "amplitude"),
    ("trace_level_line", "field"),
    ("two_cosine_potential", "amplitude"),
]


def _defaulted(fn, label):
    return [
        (label, p.name)
        for p in inspect.signature(fn).parameters.values()
        if p.kind is p.VAR_KEYWORD or p.default is not p.empty
    ]


def settable_values():
    out = []
    for name in moirelines.__all__:
        obj = getattr(moirelines, name)
        if inspect.isfunction(obj):
            out += _defaulted(obj, name)
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                out += [
                    (name, f.name)
                    for f in dataclasses.fields(obj)
                    if f.init
                    and (f.default is not dataclasses.MISSING
                         or f.default_factory is not dataclasses.MISSING)
                ]
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    out += _defaulted(member, f"{name}.{attr}")
    return sorted(out)


def test_settable_values_are_pinned():
    assert settable_values() == SETTABLE
    assert len(SETTABLE) == 43


def _run_fresh(code, cache):
    src = str(Path(moirelines.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src, "XDG_CACHE_HOME": str(cache)})


def test_import_loads_numpy_only(tmp_path):
    # Every public name and _walk loaded, still no SciPy, and no walk
    # kernel built or loaded: the first walk does that.
    _run_fresh("from moirelines import *; from moirelines import _walk; import sys; "
               "assert 'scipy' not in sys.modules; "
               "assert _walk.kernel.cache_info().currsize == 0", tmp_path)
    assert not any(tmp_path.iterdir())


def test_import_loads_no_submodule(tmp_path):
    _run_fresh("import moirelines, sys; "
               "assert [m for m in sys.modules if m.startswith('moirelines.')] == []", tmp_path)


def test_each_public_name_is_its_modules_object():
    assert moirelines.__all__ == ["__version__", *(
        name for names in moirelines._PUBLIC.values() for name in names)]
    for module, names in moirelines._PUBLIC.items():
        defining = importlib.import_module(f"moirelines.{module}")
        for name in names:
            assert getattr(moirelines, name) is getattr(defining, name), name
            assert vars(moirelines)[name] is getattr(defining, name), name
    assert set(moirelines.__all__) <= set(dir(moirelines))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        moirelines.no_such_name


def test_submodules_still_import_by_name():
    from moirelines import _walk, sweep

    assert sweep is sys.modules["moirelines.sweep"]
    assert _walk is sys.modules["moirelines._walk"]


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and neither reads nor lists in __all__."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            # Its literal entries: the package's names past __version__
            # come from its table of modules, which imports nothing.
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_every_import_is_used():
    package = Path(moirelines.__file__).parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert unused == {}


def test_unused_import_check_sees_each_kind():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "import os.path\n"
        "from .geometry import Rect, as_vec2 as v\n"
        "__all__ = ['Rect']\n"
        "np.zeros(1)\n"
    )
    assert _unused_imports(tree) == ["os (line 3)", "v (line 4)"]


def _dead_private_names(modules: dict[str, ast.Module]) -> list[str]:
    """Private functions, classes and assigned names defined at the top of
    a module that no module of the package reads."""
    defined = {}
    read = set()
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[f"{module}.{name}"] = (name, node.lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{key} (line {line})" for key, (name, line) in defined.items()
                  if name not in read)


def test_every_private_name_is_read():
    package = Path(moirelines.__file__).parent
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(package.glob("*.py"))}
    assert _dead_private_names(modules) == []


def test_dead_private_name_check_sees_each_kind():
    modules = {
        "a": ast.parse(
            "_USED = 1\n"
            "_SHARED: int = 2\n"
            "_PAIR, _LEFT = 3, _USED\n"
            "__version__ = '0'\n"
            "def _called(): pass\n"
            "def _lost(): pass\n"
            "class _Kept: pass\n"
            "class _Gone: pass\n"
            "_called(), _Kept, _PAIR\n"
        ),
        "b": ast.parse("from .a import _SHARED\nimport a\na._LEFT\n_SHARED\n"),
    }
    assert _dead_private_names(modules) == ["a._Gone (line 8)", "a._lost (line 6)"]


def _library_reads(modules: dict[str, ast.Module]) -> list[str]:
    """Where a module other than _walk imports ctypes, and where one other
    than _walk and sweep (which builds the library before it forks) reads
    the name kernel."""
    found = []
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").partition(".")[0]]
                if "kernel" in (alias.name for alias in node.names):
                    names.append("kernel")
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names = ["kernel"] if node.id == "kernel" else []
            elif isinstance(node, ast.Attribute):
                names = ["kernel"] if node.attr == "kernel" else []
            else:
                continue
            if "ctypes" in names and module != "_walk":
                found.append(f"{module} imports ctypes (line {node.lineno})")
            if "kernel" in names and module not in ("_walk", "sweep"):
                found.append(f"{module} reads kernel (line {node.lineno})")
    return sorted(found)


def test_only_walk_loads_the_compiled_library():
    package = Path(moirelines.__file__).parent
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(package.glob("*.py"))}
    assert _library_reads(modules) == []


def test_library_read_check_sees_each_kind():
    modules = {
        "a": ast.parse(
            "import ctypes.util\n"
            "from ctypes import c_int\n"
            "from ._walk import kernel\n"
            "_walk.kernel()\n"
            "kernel = None\n"
            "print(kernel)\n"
        ),
        "_walk": ast.parse("import ctypes\nkernel()\n"),
        "sweep": ast.parse("import os\n_walk.kernel()\n"),
        "b": ast.parse("import os, ctypes as c\nfrom . import output\n"),
    }
    assert _library_reads(modules) == [
        "a imports ctypes (line 1)", "a imports ctypes (line 2)", "a reads kernel (line 3)",
        "a reads kernel (line 4)", "a reads kernel (line 6)", "b imports ctypes (line 1)",
    ]
