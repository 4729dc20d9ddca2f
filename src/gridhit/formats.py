"""JSON wire formats for scalars, shapes and instance files; the module
imports only ``geometry``, ``exactnum`` and ``errors``.

Scalars are encoded losslessly: integers as JSON ints, other rationals as
"p/q" strings, and quadratic irrationals as {"a","b","s"} objects.  The
encodings are canonical, so serialize(parse(serialize(x))) is byte-equal
to serialize(x).

An instance file is JSON lines: a header record {"d","N","alpha",...}
followed by one shape record per line, in arrival order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from gridhit import geometry
from gridhit.errors import InstanceFormatError
from gridhit.exactnum import Scalar, SqrtExt, sqrt_exact
from gridhit.geometry import Ball, Box, Cube, FatObject, GridSpec


def scalar_to_json(x: Scalar):
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, SqrtExt):
        return {"a": scalar_to_json(x.a), "b": scalar_to_json(x.b),
                "s": scalar_to_json(x.s)}
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _rational_from_json(v) -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise InstanceFormatError(f"expected an int or 'p/q' string, got {v!r}")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceFormatError(f"bad rational {v!r}: {exc}") from None


def scalar_from_json(v) -> Scalar:
    if isinstance(v, dict):
        missing = {"a", "b", "s"} - set(v)
        if missing:
            raise InstanceFormatError(f"scalar object missing fields {missing}")
        a = _rational_from_json(v["a"])
        b = _rational_from_json(v["b"])
        s = _rational_from_json(v["s"])
        return a + b * sqrt_exact(s)
    return _rational_from_json(v)


def parse_scalar_text(text: str) -> Scalar:
    """Parse CLI-style scalars: '2', '3/2', 'sqrt(2)', 'sqrt(9/8)'."""
    text = text.strip()
    if text.startswith("sqrt(") and text.endswith(")"):
        return sqrt_exact(_rational_from_json(text[5:-1].strip()))
    return _rational_from_json(text)


def scalar_to_text(x: Scalar) -> str:
    if isinstance(x, SqrtExt):
        if x.a == 0 and x.b == 1:
            return f"sqrt({x.s})"
        return str(x)
    v = scalar_to_json(x)
    return str(v)


def shape_to_json(o: FatObject) -> dict:
    if isinstance(o, Cube):
        return {"shape": "cube",
                "corner": [scalar_to_json(c) for c in o.corner],
                "width": scalar_to_json(o.width)}
    if isinstance(o, Ball):
        return {"shape": "ball",
                "center": [scalar_to_json(c) for c in o.center],
                "radius": scalar_to_json(o.radius)}
    if isinstance(o, Box):
        return {"shape": "box",
                "corner": [scalar_to_json(c) for c in o.corner],
                "widths": [scalar_to_json(w) for w in o.widths]}
    raise InstanceFormatError(f"cannot serialize shape {type(o).__name__}")


def shape_from_json(rec) -> FatObject:
    if not isinstance(rec, dict) or "shape" not in rec:
        raise InstanceFormatError(f"bad shape record {rec!r}")
    kind = rec["shape"]
    try:
        if kind == "cube":
            return Cube(tuple(scalar_from_json(c) for c in rec["corner"]),
                        scalar_from_json(rec["width"]))
        if kind == "ball":
            return Ball(tuple(scalar_from_json(c) for c in rec["center"]),
                        scalar_from_json(rec["radius"]))
        if kind == "box":
            return Box(tuple(scalar_from_json(c) for c in rec["corner"]),
                       tuple(scalar_from_json(w) for w in rec["widths"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceFormatError(f"bad {kind} record: {exc}") from None
    raise InstanceFormatError(f"unknown shape kind {kind!r}")


def dumps(obj) -> str:
    """Canonical compact JSON used for every emitted record."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=False)


@dataclass
class InstanceFile:
    """A parsed instance: grid, declared family fatness, arrival order."""

    grid: GridSpec
    fatness: Scalar
    objects: list[FatObject]
    seed: Optional[int] = None

    def header(self) -> dict:
        h = {"d": self.grid.d, "N": self.grid.N,
             "alpha": scalar_to_json(self.fatness),
             "count": len(self.objects)}
        if self.seed is not None:
            h["seed"] = self.seed
        return h


def serialize_instance(inst: InstanceFile) -> str:
    lines = [dumps(inst.header())]
    lines.extend(dumps(shape_to_json(o)) for o in inst.objects)
    return "\n".join(lines) + "\n"


def write_instance(inst: InstanceFile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(inst))


def parse_instance(text: str) -> InstanceFile:
    lines = text.splitlines()
    if not lines:
        raise InstanceFormatError("empty instance file: missing header")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"line 1: bad JSON: {exc}") from None
    for key in ("d", "N", "alpha"):
        if key not in header:
            raise InstanceFormatError(f"line 1: header missing {key!r}")
    grid = GridSpec(header["d"], header["N"])
    for key in ("count", "seed"):
        if key in header and type(header[key]) is not int:
            raise InstanceFormatError(
                f"line 1: {key} must be an integer, got {header[key]!r}")
    fatness = scalar_from_json(header["alpha"])
    if not fatness >= 1:
        raise InstanceFormatError(f"line 1: alpha must be >= 1, got {fatness}")
    fat_sq = fatness * fatness

    objects = []
    for no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"line {no}: bad JSON: {exc}") from None
        o = shape_from_json(rec)
        try:
            geometry.validate_in_grid(o, grid)
            geometry.validate_fatness(o, fat_sq)
        except Exception as exc:
            raise InstanceFormatError(f"line {no}: {exc}") from None
        if not geometry.has_grid_point(o):
            raise InstanceFormatError(
                f"line {no}: object contains no grid point")
        objects.append(o)
    if "count" in header and header["count"] != len(objects):
        raise InstanceFormatError(
            f"header count {header['count']} != {len(objects)} object lines")
    return InstanceFile(grid, fatness, objects, header.get("seed"))


def read_instance(path) -> InstanceFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())
