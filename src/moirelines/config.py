"""Potential definition files: a small sectioned key-value format.

The CLI and the tests parse potentials through this one module so a file
means exactly the same thing everywhere.  The format is line oriented:

    # comment
    [v.lattice]
    e1 = 6.283185307179586 0.0
    e2 = 0.0 6.283185307179586
    [v.terms]
    term = 1 0 1.0 0.0        # n1 n2 amplitude [phase]
    [u.lattice]
    e1 = 6.283185307179586 0.0
    e2 = 0.0 6.283185307179586
    [u.terms]
    term = 1 0 0.05
    [transform]
    alpha = 0.7
    shift = 0.0 0.0
    [combiner]
    kind = sum                 # sum | weighted | product
    # weighted only:
    # c1 = 1.0
    # c2 = 0.5

``term`` may repeat; every other key may not.  Unknown sections or keys and
numbers that are not finite are errors, and every error message carries the
offending line number.  Table combiners are API-only: a sampled table has
no faithful flat-text form.

``parse_config`` turns the text into a ``SuperpositionPotential``;
``load_config`` reads a file and also returns its bytes, which run
manifests hash.
"""

from __future__ import annotations

import itertools
import math

from .geometry import EuclideanTransform, Lattice2
from .potential import (
    Combiner,
    FourierTerm,
    PeriodicPotential,
    Product,
    Sum,
    SuperpositionPotential,
    WeightedSum,
)

_KNOWN = {
    "v.lattice": {"e1", "e2"},
    "u.lattice": {"e1", "e2"},
    "v.terms": {"term"},
    "u.terms": {"term"},
    "transform": {"alpha", "shift"},
    "combiner": {"kind", "c1", "c2"},
}

# Every key of the lattice and term sections must be given.
_REQUIRED_KEYS = [
    (section, key)
    for section in ("v.lattice", "u.lattice", "v.terms", "u.terms")
    for key in sorted(_KNOWN[section])
]


class ConfigError(ValueError):
    """Malformed potential definition; message includes the line number."""

    def __init__(self, lineno: int | None, message: str):
        self.lineno = lineno
        where = f"line {lineno}: " if lineno is not None else ""
        super().__init__(f"{where}{message}")


def _parse_lines(text: str) -> list[tuple[int, str, str, list[str]]]:
    """(lineno, section, key, value tokens) for every assignment."""
    entries = []
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(lineno, f"unterminated section header {rawline!r}")
            section = line[1:-1].strip()
            if section not in _KNOWN:
                raise ConfigError(
                    lineno,
                    f"unknown section [{section}]; expected one of "
                    + ", ".join(sorted(_KNOWN)),
                )
            continue
        if "=" not in line:
            raise ConfigError(lineno, f"expected 'key = values', got {rawline!r}")
        if section is None:
            raise ConfigError(lineno, "assignment before any [section] header")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in _KNOWN[section]:
            raise ConfigError(
                lineno,
                f"unknown key {key!r} in [{section}]; expected one of "
                + ", ".join(sorted(_KNOWN[section])),
            )
        entries.append((lineno, section, key, rhs.split()))
    return entries


def _number(lineno, name, token) -> float:
    """The finite float a token spells, else ConfigError."""
    try:
        value = float(token)
    except ValueError as err:
        raise ConfigError(lineno, f"{name}: {err}") from None
    if not math.isfinite(value):
        raise ConfigError(lineno, f"{name}: {token!r} is not a finite number")
    return value


def _floats(lineno, section, key, tokens, count) -> list[float]:
    if len(tokens) != count:
        raise ConfigError(
            lineno, f"{section}.{key} needs {count} numbers, got {len(tokens)}"
        )
    return [_number(lineno, f"{section}.{key}", t) for t in tokens]


def _term(lineno, section, tokens) -> FourierTerm:
    if len(tokens) not in (3, 4):
        raise ConfigError(
            lineno,
            f"{section}.term needs 'n1 n2 amplitude [phase]', got {len(tokens)} fields",
        )
    try:
        n1, n2 = int(tokens[0]), int(tokens[1])
    except ValueError as err:
        raise ConfigError(lineno, f"{section}.term: {err}") from None
    amp = _number(lineno, f"{section}.term", tokens[2])
    phase = _number(lineno, f"{section}.term", tokens[3]) if len(tokens) == 4 else 0.0
    return FourierTerm(n1, n2, amp, phase)


def parse_config(text: str) -> SuperpositionPotential:
    """The potential a definition text describes."""
    entries = _parse_lines(text)
    singles: dict[tuple[str, str], tuple[int, list[str]]] = {}
    terms: dict[str, list[tuple[int, FourierTerm]]] = {"v.terms": [], "u.terms": []}

    for lineno, section, key, tokens in entries:
        if key == "term":
            terms[section].append((lineno, _term(lineno, section, tokens)))
            continue
        if (section, key) in singles:
            raise ConfigError(
                lineno,
                f"{section}.{key} given twice (first on line {singles[(section, key)][0]})",
            )
        singles[(section, key)] = (lineno, tokens)

    for section, key in _REQUIRED_KEYS:
        given = terms[section] if key == "term" else (section, key) in singles
        if not given:
            raise ConfigError(None, f"missing required {section}.{key}")

    def numbers(section, key, count, default=None) -> list[float]:
        got = singles.get((section, key))
        return default if got is None else _floats(got[0], section, key, got[1], count)

    def lattice(prefix: str) -> Lattice2:
        section = f"{prefix}.lattice"
        e1, e2 = (numbers(section, key, 2) for key in ("e1", "e2"))
        try:
            return Lattice2(e1, e2)
        except ValueError as err:
            lineno = singles[(section, "e2")][0]
            raise ConfigError(lineno, f"{section}: {err}") from None

    def layer(prefix: str) -> PeriodicPotential:
        section = f"{prefix}.terms"
        lat = lattice(prefix)
        try:
            return PeriodicPotential(lat, tuple(term for _, term in terms[section]))
        except ValueError as err:
            # The term that takes the running sum of |amplitude| past the
            # float range.
            sums = itertools.accumulate(abs(term.amplitude) for _, term in terms[section])
            lineno = next((n for (n, _), total in zip(terms[section], sums)
                           if not math.isfinite(total)), terms[section][-1][0])
            raise ConfigError(lineno, f"{section}: {err}") from None

    v = layer("v")
    u = layer("u")

    (alpha,) = numbers("transform", "alpha", 1, [0.0])
    shift = numbers("transform", "shift", 2, [0.0, 0.0])

    kind = "sum"
    if (got := singles.get(("combiner", "kind"))) is not None:
        if len(got[1]) != 1:
            raise ConfigError(got[0], "combiner.kind needs exactly one word")
        kind = got[1][0].lower()
    combiner: Combiner
    if kind == "sum":
        combiner = Sum()
    elif kind == "product":
        combiner = Product()
    elif kind == "weighted":
        (c1,) = numbers("combiner", "c1", 1, [1.0])
        (c2,) = numbers("combiner", "c2", 1, [1.0])
        combiner = WeightedSum(c1, c2)
    else:
        lineno = singles[("combiner", "kind")][0]
        raise ConfigError(lineno, f"unknown combiner kind {kind!r}")

    try:
        return SuperpositionPotential(v, u, EuclideanTransform(alpha, shift), combiner)
    except ValueError as err:
        # Only the combined bound is left to fail.
        got = singles.get(("combiner", "kind"))
        lineno = terms["u.terms"][-1][0] if got is None else got[0]
        raise ConfigError(lineno, f"combiner: {err}") from None


def load_config(path) -> tuple[SuperpositionPotential, bytes]:
    """Parse a potential definition file; also return its bytes, which run
    manifests hash."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(None, f"not a UTF-8 text file: {err}") from None
    return parse_config(text), data
