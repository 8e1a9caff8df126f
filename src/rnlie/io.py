"""Algebra file format: JSON with 1-based indices and string scalars.

The on-disk shape is {"dim": n, "scalars": "rational" | "float",
"brackets": [[i, j, [[k, "c"], ...]], ...]} where each [i, j, ...] row
groups the nonzero targets of [e_i, e_j].  Scalars are strings so the
round trip is bit-stable: rationals as "p/q", floats with 17 significant
digits.  Only i < j rows are accepted.
"""

import json
import math
from fractions import Fraction

from .brackets import FLOAT, RATIONAL, Bracket
from .errors import PreconditionError


def _format_scalar(c, kind: str) -> str:
    if kind == RATIONAL:
        return str(Fraction(c))
    return format(float(c), ".17g")


def _parse_scalar(text, kind: str, where: str):
    if not isinstance(text, str):
        raise PreconditionError(f"{where}: scalar must be a string, got "
                                f"{type(text).__name__}")
    try:
        c = Fraction(text) if kind == RATIONAL else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"{where}: bad scalar {text!r}: {exc}") from exc
    if not math.isfinite(c):
        raise PreconditionError(f"{where}: scalar {text!r} is not finite")
    return c


def dumps_algebra(b: Bracket) -> str:
    """Serialize a bracket; deterministic (sorted keys and rows)."""
    rows: dict = {}
    for (i, j, k), c in sorted(b.constants.items()):
        rows.setdefault((i + 1, j + 1), []).append(
            [k + 1, _format_scalar(c, b.scalar_kind)])
    payload = {
        "dim": b.dim,
        "scalars": b.scalar_kind,
        "brackets": [[i, j, targets] for (i, j), targets in sorted(rows.items())],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def loads_algebra(text: str) -> Bracket:
    """Parse the JSON algebra format, with field-level diagnostics."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PreconditionError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(payload, dict):
        raise PreconditionError("top level must be an object")
    for field in ("dim", "scalars", "brackets"):
        if field not in payload:
            raise PreconditionError(f"missing field {field!r}")
    dim = payload["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise PreconditionError(f"dim: expected a positive integer, got {dim!r}")
    kind = payload["scalars"]
    if kind not in (RATIONAL, FLOAT):
        raise PreconditionError(
            f"scalars: expected {RATIONAL!r} or {FLOAT!r}, got {kind!r}")
    rows = payload["brackets"]
    if not isinstance(rows, list):
        raise PreconditionError("brackets: expected a list")
    constants: dict = {}
    for r, row in enumerate(rows):
        where = f"brackets[{r}]"
        if (not isinstance(row, list) or len(row) != 3
                or not isinstance(row[2], list)):
            raise PreconditionError(f"{where}: expected [i, j, targets]")
        i, j, targets = row
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (i, j)):
            raise PreconditionError(f"{where}: indices must be integers")
        if not 1 <= i <= dim or not 1 <= j <= dim:
            raise PreconditionError(f"{where}: index out of range 1..{dim}")
        if i >= j:
            raise PreconditionError(
                f"{where}: requires i < j, got i={i}, j={j}")
        for s, entry in enumerate(targets):
            spot = f"{where}.targets[{s}]"
            if not isinstance(entry, list) or len(entry) != 2:
                raise PreconditionError(f"{spot}: expected [k, scalar]")
            k, text_c = entry
            if not isinstance(k, int) or isinstance(k, bool):
                raise PreconditionError(f"{spot}: k must be an integer")
            if not 1 <= k <= dim:
                raise PreconditionError(f"{spot}: k out of range 1..{dim}")
            key = (i - 1, j - 1, k - 1)
            if key in constants:
                raise PreconditionError(f"{spot}: duplicate entry for "
                                        f"[{i}, {j}] -> {k}")
            c = _parse_scalar(text_c, kind, spot)
            if c != 0:
                constants[key] = c
    return Bracket(dim, constants, kind)


def save_algebra(b: Bracket, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_algebra(b))


def load_algebra(path) -> Bracket:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_algebra(fh.read())
