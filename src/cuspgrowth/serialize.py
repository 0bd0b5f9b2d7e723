"""JSON wire formats of tower specs and reports.

Conventions: integer matrices travel as arrays of arrays of decimal
strings (arbitrary precision preserved), invariant-factor lists as
arrays of decimal strings (integers accepted on input).  Emitted
documents are canonical: sorted keys, two-space indent, trailing
newline; reports round-trip byte-identically.  The dm reports, whose
rationals travel as "p/q" strings, are built in the CLI and written by
`dumps_canonical`.

`dumps_canonical` writes any document through `json.dumps`, whose
indented form runs the pure-Python encoder.  `dumps_tower_report` and
`dumps_d_tower` write a tower report and a `congruence dtower` series
one f-string per level or row, with the bytes of `dumps_canonical`.
The CLI builds a family C report from its table rows.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from math import prod
from typing import Any, Optional, Sequence

from .errors import ResourceLimitError, ValidationError, quoted
from .lattice import AbelianHom, FiniteAbelianGroup, IntMatrix
from .towers import (
    DEFAULT_DECK_BITS_CAP,
    HIRZEBRUCH,
    BaseSpace,
    CuspData,
    FibrationData,
    TowerReport,
    TowerSpec,
)

#: JSON sentinel for a level with no applicable b1 bound.
UNBOUNDED = "UNBOUNDED_BY_METHOD"


def dumps_canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _parse_int(x: Any, what: str) -> int:
    """An int, or a decimal string; a refusal quotes at most the first
    32 characters of a string and names the type of any other value."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        try:
            return int(x.strip(), 10)
        except ValueError as exc:
            raise ValidationError(f"{what}: cannot parse integer from {quoted(x)}") from exc
    raise ValidationError(f"{what}: expected an integer or decimal string, "
                          f"got {type(x).__name__}")


def _array(data: Any, what: str) -> list:
    if not isinstance(data, list):
        raise ValidationError(f"{what}: expected a JSON array, got {type(data).__name__}")
    return data


def _member(data: Any, key: str, what: str, kind: type = object) -> Any:
    """`data[key]`, where `data` must be a JSON object holding a `kind` at `key`."""
    if not isinstance(data, dict):
        raise ValidationError(f"{what}: expected a JSON object, got {type(data).__name__}")
    if key not in data:
        raise ValidationError(f"{what}.{key}: missing")
    if not isinstance(data[key], kind):
        raise ValidationError(f"{what}.{key}: expected {kind.__name__}, "
                              f"got {type(data[key]).__name__}")
    return data[key]


def _int_member(data: Any, key: str, what: str) -> int:
    return _parse_int(_member(data, key, what), f"{what}.{key}")


def matrix_to_json(m: IntMatrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in m.entries]


def matrix_from_json(data: Any, cols: Optional[int] = None, what: str = "matrix") -> IntMatrix:
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise ValidationError(f"{what} must be a JSON array of arrays of decimal strings")
    rows = [tuple(_parse_int(x, what) for x in row) for row in data]
    if not rows and cols is None:
        raise ValidationError(f"{what} with no rows needs an explicit column count")
    return IntMatrix.from_rows(rows, cols)


def hom_to_json(rho: AbelianHom) -> dict:
    return {
        "invariant_factors": [str(d) for d in rho.target.invariant_factors],
        "images": matrix_to_json(rho.images),
    }


def hom_from_json(
    data: Any, ambient_rank: int, what: str = "level", cap: int = DEFAULT_DECK_BITS_CAP
) -> AbelianHom:
    """Parse a level as written: invariant factors d_1 | d_2 | ... and one
    `images` row per listed factor, row i read modulo d_i.  A factor 1
    is dropped with its row, which is zero modulo 1.

    The deck group is refused before any row is parsed when its order
    has more than `cap` bits.  The order has at least
    sum(bits(d_i) - 1) + 1 bits over the d_i above 1; when that bound is
    above the cap it is what the refusal reports, and the exact bit
    length is taken only below it.  Each such d_i adds at least one bit,
    so the cap also bounds the rank."""
    moduli_what = f"{what}.invariant_factors"
    moduli = [_parse_int(x, moduli_what)
              for x in _array(_member(data, "invariant_factors", what), moduli_what)]
    factors = [m for m in moduli if m > 1]
    bits = sum(m.bit_length() - 1 for m in factors) + 1
    exact = bits <= cap
    if exact:
        bits = prod(factors).bit_length()
    if bits > cap:
        raise ResourceLimitError(
            f"{what}: the deck group has an order of {'' if exact else 'at least '}"
            f"{bits} bits, above the cap of {cap} bits",
            bits,
            cap,
        )
    try:
        target = FiniteAbelianGroup(tuple(moduli))
    except ValidationError as exc:
        raise ValidationError(f"{moduli_what}: {exc}") from exc
    images = matrix_from_json(_member(data, "images", what), cols=ambient_rank,
                              what=f"{what}.images")
    if images.rows != len(moduli):
        raise ValidationError(f"{what}.images: expected one row per listed invariant "
                              f"factor, {len(moduli)} rows, got {images.rows}")
    if 1 in moduli:
        images = IntMatrix(tuple(row for m, row in zip(moduli, images.entries) if m != 1),
                           ambient_rank)
    return AbelianHom(target, images)


def base_to_json(base: BaseSpace) -> Any:
    if base is HIRZEBRUCH:
        return "hirzebruch"
    return {
        "rank": base.ambient_rank,
        "cusps": [
            {"name": c.name, "sublattice": matrix_to_json(c.sublattice)}
            for c in base.cusps
        ],
        "fibrations": [
            {
                "name": f.name,
                "kernel_sublattice": matrix_to_json(f.kernel_sublattice),
                "target_rank": f.target_rank,
                "fiber_genus": f.fiber_genus,
                "fiber_punctures": f.fiber_punctures,
            }
            for f in base.fibrations
        ],
    }


def base_from_json(data: Any) -> BaseSpace:
    """Parse a base; every shape error names its path, e.g. `base.cusps[0].name`."""
    if data == "hirzebruch":
        return HIRZEBRUCH
    if not isinstance(data, dict):
        raise ValidationError(
            "base must be the string 'hirzebruch' or an object with "
            "rank, cusps, and fibrations"
        )
    rank = _parse_int(data.get("rank"), "base.rank")
    if rank < 0:
        raise ValidationError(f"base.rank: must be >= 0, got {rank}")
    cusps = []
    for i, c in enumerate(_array(data.get("cusps", []), "base.cusps")):
        what = f"base.cusps[{i}]"
        cusps.append(
            CuspData(_member(c, "name", what, str),
                     matrix_from_json(_member(c, "sublattice", what),
                                      what=f"{what}.sublattice"))
        )
    fibrations = []
    for i, f in enumerate(_array(data.get("fibrations", []), "base.fibrations")):
        what = f"base.fibrations[{i}]"
        fibrations.append(
            FibrationData(
                _member(f, "name", what, str),
                matrix_from_json(_member(f, "kernel_sublattice", what),
                                 what=f"{what}.kernel_sublattice"),
                target_rank=_int_member(f, "target_rank", what),
                fiber_genus=_int_member(f, "fiber_genus", what),
                fiber_punctures=_int_member(f, "fiber_punctures", what),
            )
        )
    return BaseSpace(rank, tuple(cusps), tuple(fibrations))


def tower_spec_to_json(spec: TowerSpec) -> dict:
    return {
        "base": base_to_json(spec.base),
        "levels": [hom_to_json(rho) for rho in spec.levels],
    }


def tower_spec_from_json(data: Any, cap: int = DEFAULT_DECK_BITS_CAP) -> TowerSpec:
    """Parse a spec; refuse a level whose deck-group order has more than
    `cap` bits (see `hom_from_json`)."""
    if not isinstance(data, dict):
        raise ValidationError("a tower spec must be a JSON object")
    base = base_from_json(data.get("base"))
    levels = tuple(
        hom_from_json(lv, base.ambient_rank, f"levels[{i}]", cap)
        for i, lv in enumerate(_array(data.get("levels", []), "levels"))
    )
    return TowerSpec(base, levels)


_DISCONNECTED_NOTE = (
    "cover is disconnected; the total cusp count is only defined per component"
)


def tower_report_to_json(report: TowerReport) -> dict:
    """The report as a JSON document, for `dumps_canonical`; a
    disconnected level carries a note."""
    return {"levels": [{
        "degree": lv.degree,
        "connected": lv.connected,
        "cusp_multiplicities": dict(sorted(lv.cusp_multiplicities.items())),
        "total_cusps": lv.total_cusps,
        "b1_bound": lv.b1_bound if lv.b1_bound is not None else UNBOUNDED,
        "factoring_fibration": lv.factoring_fibration,
        **({} if lv.connected else {"note": _DISCONNECTED_NOTE}),
    } for lv in report.levels]}


def dumps_tower_report(report: TowerReport) -> str:
    """`dumps_canonical(tower_report_to_json(report))`, written one
    f-string per level instead of through the indented encoder.

    The cusp names are sorted and quoted once for each run of levels
    with the same names, and each degree is converted to decimal once,
    for the degree and for every cusp whose multiplicity equals it."""
    if not report.levels:
        return '{\n  "levels": []\n}\n'
    quote = encode_basestring_ascii
    unbounded = quote(UNBOUNDED)
    note = f'      "note": {quote(_DISCONNECTED_NOTE)},\n'
    names = keys = None
    levels = []
    for lv in report.levels:
        multiplicities = lv.cusp_multiplicities
        if multiplicities.keys() != keys:
            keys = multiplicities.keys()
            names = [(name, f"        {quote(name)}: ") for name in sorted(keys)]
        degree = str(lv.degree)
        cusps = ",\n".join([
            key + (degree if (m := multiplicities[name]) == lv.degree else str(m))
            for name, key in names])
        cusps = f"{{\n{cusps}\n      }}" if cusps else "{}"
        via = lv.factoring_fibration
        levels.append(
            f'    {{\n      "b1_bound": {unbounded if lv.b1_bound is None else lv.b1_bound},\n'
            f'      "connected": {"true" if lv.connected else "false"},\n'
            f'      "cusp_multiplicities": {cusps},\n'
            f'      "degree": {degree},\n'
            f'      "factoring_fibration": {"null" if via is None else quote(via)},\n'
            f'{"" if lv.connected else note}'
            f'      "total_cusps": {"null" if lv.total_cusps is None else lv.total_cusps}\n    }}')
    return '{\n  "levels": [\n' + ",\n".join(levels) + "\n  ]\n}\n"


def dumps_d_tower(n: int, genus: int, columns: Sequence[Sequence[int]]) -> str:
    """`dumps_canonical` of {"n", "genus", "series": [{"q", "vol", "b1",
    "cusps"}, ...]}, written directly from the columns q, vol, b1 and
    cusps of `counts.d_tower_columns`."""
    rows = ",\n".join(
        f'    {{\n      "b1": {b1},\n      "cusps": {cusps},\n'
        f'      "q": {q},\n      "vol": {vol}\n    }}' for q, vol, b1, cusps in zip(*columns))
    rows = f"[\n{rows}\n  ]" if rows else "[]"
    return f'{{\n  "genus": {genus},\n  "n": {n},\n  "series": {rows}\n}}\n'

