"""JSON wire formats.

Conventions: exact rationals travel as "p/q" strings, integer matrices
as arrays of arrays of decimal strings (arbitrary precision preserved),
invariant-factor lists as arrays of decimal strings (integers accepted
on input).  Emitted documents are canonical: sorted keys, two-space
indent, trailing newline; reports round-trip byte-identically.

`dumps_canonical` writes any document through `json.dumps`, whose
indented form runs the pure-Python encoder.  `dumps_tower_report` and
`dumps_d_tower` write the fixed shapes of a tower report and of a
`congruence dtower` series directly, with the same bytes as
`dumps_canonical` of those documents.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import prod
from typing import Any, Optional, Sequence

from .errors import ResourceLimitError, ValidationError
from .lattice import AbelianHom, FiniteAbelianGroup, IntMatrix
from .towers import (
    DEFAULT_DECK_BITS_CAP,
    HIRZEBRUCH,
    BaseSpace,
    CuspData,
    CTowerLevel,
    FibrationData,
    LevelReport,
    TowerReport,
    TowerSpec,
)
from .weights import IntStatus, PairWitness, WeightTuple

#: JSON sentinel for a level with no applicable b1 bound.
UNBOUNDED = "UNBOUNDED_BY_METHOD"


def dumps_canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def fraction_to_json(x: Fraction) -> str:
    return str(x)


def weights_to_json(mu: WeightTuple) -> list[str]:
    return mu.as_strings()


def int_status_to_json(status: IntStatus) -> dict:
    def witness(w: PairWitness) -> dict:
        return {"i": w.i, "j": w.j, "value": fraction_to_json(w.value)}

    return {
        "verdict": status.verdict.value,
        "half_integral_witnesses": [witness(w) for w in status.half_witnesses],
        "fail_witnesses": [witness(w) for w in status.fail_witnesses],
    }


def _parse_int(x: Any, what: str) -> int:
    if isinstance(x, bool):
        raise ValidationError(f"{what}: expected an integer, got {x!r}")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            return int(x.strip(), 10)
        except ValueError as exc:
            raise ValidationError(f"{what}: cannot parse integer from {x!r}") from exc
    raise ValidationError(f"{what}: expected an integer or decimal string, got {x!r}")


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


def group_to_json(g: FiniteAbelianGroup) -> list[str]:
    return [str(d) for d in g.invariant_factors]


def hom_to_json(rho: AbelianHom) -> dict:
    return {
        "invariant_factors": group_to_json(rho.target),
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


def level_report_to_json(report: LevelReport) -> dict:
    doc = {
        "degree": report.degree,
        "connected": report.connected,
        "cusp_multiplicities": dict(sorted(report.cusp_multiplicities.items())),
        "total_cusps": report.total_cusps,
        "b1_bound": report.b1_bound if report.b1_bound is not None else UNBOUNDED,
        "factoring_fibration": report.factoring_fibration,
    }
    if not report.connected:
        doc["note"] = _DISCONNECTED_NOTE
    return doc


def tower_report_to_json(report: TowerReport) -> dict:
    return {"levels": [level_report_to_json(lv) for lv in report.levels]}


def _level_head(names: tuple[str, ...]) -> tuple[tuple[str, ...], str]:
    """The sorted cusp names, and the %-template of an indented level
    object with these cusps up to its `factoring_fibration` line; the
    multiplicities fill in sorted name order."""
    order = tuple(sorted(names))
    cusps = ",\n".join(f"        {json.dumps(name).replace('%', '%%')}: %s"
                        for name in order)
    cusps = "{\n" + cusps + "\n      }" if order else "{}"
    return order, (
        "    {\n"
        '      "b1_bound": %s,\n'
        '      "connected": %s,\n'
        '      "cusp_multiplicities": ' + cusps + ",\n"
        '      "degree": %s,\n'
        '      "factoring_fibration": %s,\n'
    )


def dumps_tower_report(report: TowerReport) -> str:
    """`dumps_canonical(tower_report_to_json(report))`, written from one
    template per set of cusp names instead of through the indented
    encoder."""
    if not report.levels:
        return '{\n  "levels": []\n}\n'
    note = f'      "note": {json.dumps(_DISCONNECTED_NOTE)},\n'
    unbounded = json.dumps(UNBOUNDED)
    heads: dict[tuple[str, ...], tuple[tuple[str, ...], str]] = {}
    fibrations: dict[Optional[str], str] = {None: "null"}
    levels = []
    for lv in report.levels:
        mults = lv.cusp_multiplicities
        names = tuple(mults)
        if names not in heads:
            heads[names] = _level_head(names)
        order, head = heads[names]
        via = lv.factoring_fibration
        if via not in fibrations:
            fibrations[via] = json.dumps(via)
        text = head % (
            unbounded if lv.b1_bound is None else lv.b1_bound,
            "true" if lv.connected else "false",
            *[mults[name] for name in order],
            lv.degree,
            fibrations[via],
        )
        if not lv.connected:
            text += note
        total = "null" if lv.total_cusps is None else lv.total_cusps
        levels.append(f'{text}      "total_cusps": {total}\n    }}')
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


def c_tower_report_to_json(levels: list[CTowerLevel]) -> dict:
    return {
        "levels": [
            {
                "level": lv.level,
                "degree": lv.degree,
                "b1_surface": lv.b1_surface,
                "total_cusps": lv.total_cusps,
            }
            for lv in levels
        ]
    }
