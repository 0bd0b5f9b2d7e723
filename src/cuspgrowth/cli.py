"""Command-line interface and report assembly.

Subcommands:

* ``dm check|contract|find-contraction|enumerate`` -- weight-tuple
  integrality and contraction search;
* ``tower run|analyze`` -- covering-tower reports, either for the
  built-in families (A, B over the four-cusped base; C over a genus-g
  curve) or for a tower spec read from JSON;
* ``congruence orders|exponents|dtower`` -- classical group orders and
  congruence-tower growth exponents.

Exit codes: 0 success, 2 validation error, 3 resource refusal.  Errors,
argument-parsing errors included, are emitted as one-line JSON records
on stderr.  The parser is built once per process, on the first `main`
call.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager
from functools import cache, partial
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

from . import counts, weights
from .counts import GroupFamily
from .errors import ResourceLimitError, ValidationError
from .fitting import exponent_checks
from .serialize import (
    UNBOUNDED,
    c_tower_report_to_json,
    dumps_canonical,
    dumps_d_tower,
    dumps_tower_report,
    int_status_to_json,
    tower_spec_from_json,
    tower_spec_to_json,
    weights_to_json,
)
from .towers import (
    TowerReport,
    analyze_tower,
    build_a_tower,
    build_b_tower,
    c_tower_report,
)
from .weights import ContractionPartition, WeightTuple


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _render_csv(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def _parse_blocks(text: str) -> ContractionPartition:
    blocks = []
    for chunk in text.split("|"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            blocks.append(tuple(int(x) for x in chunk.split(",")))
        except ValueError as exc:
            raise ValidationError(
                f"cannot parse block {chunk!r}; blocks look like '0,1|2|3|4' "
                "(0-based indices)"
            ) from exc
    if not blocks:
        raise ValidationError("no blocks given")
    return ContractionPartition(tuple(blocks))


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ValidationError(f"cannot parse {what} from {text!r}") from exc


# ---------------------------------------------------------------------------
# Handlers: each leaf subparser names its own with `set_defaults`.  A
# handler reads the parsed namespace and returns the JSON document and a
# text view, which is either (headers, rows), rendered as a table or as
# CSV, or a fixed text that has no CSV form.  A handler may instead hand
# over zero-argument callables that write the JSON text or build the
# (headers, rows), so that only the requested format is produced.

Table = tuple[list[str], list[list[Any]]]
Rendered = tuple[Union[dict, Callable[[], str]], Union[str, Table, Callable[[], Table]]]


def _cap(ns: argparse.Namespace) -> dict[str, int]:
    """`--cap` as the keyword of a guarded library call; without it the
    call keeps its own default."""
    return {} if ns.cap is None else {"cap": ns.cap}


def _dm_check(ns: argparse.Namespace) -> Rendered:
    mu = WeightTuple.parse(ns.tuple)
    status = weights.check_int(mu)
    doc = {"weights": weights_to_json(mu), **int_status_to_json(status)}
    lines = [f"weights: {', '.join(mu.as_strings())}", f"verdict: {status.verdict.value}"]
    for w in status.half_witnesses:
        lines.append(f"half-integral pair ({w.i},{w.j}): value {w.value}")
    for w in status.fail_witnesses:
        lines.append(f"failing pair ({w.i},{w.j}): value {w.value}")
    return doc, "\n".join(lines) + "\n"


def _dm_contract(ns: argparse.Namespace) -> Rendered:
    mu = WeightTuple.parse(ns.tuple)
    partition = _parse_blocks(ns.blocks)
    result = weights.contract(mu, partition)
    doc = {
        "source": weights_to_json(mu),
        "blocks": [list(b) for b in partition.blocks],
        "block_sums": [str(s) for s in partition.block_sums(mu)],
        "result": weights_to_json(result),
    }
    text = (
        f"source: {', '.join(mu.as_strings())}\n"
        f"blocks: {' | '.join(','.join(map(str, b)) for b in partition.blocks)}\n"
        f"result: {', '.join(result.as_strings())}\n"
    )
    return doc, text


def _dm_find_contraction(ns: argparse.Namespace) -> Rendered:
    mu = WeightTuple.parse(ns.tuple)
    nu = WeightTuple.parse(ns.target)
    partition = weights.find_contraction(mu, nu, **_cap(ns))
    if partition is None:
        doc = {"found": False, "source": weights_to_json(mu), "target": weights_to_json(nu)}
        return doc, "no admissible contraction\n"
    doc = {
        "found": True,
        "source": weights_to_json(mu),
        "target": weights_to_json(nu),
        "blocks": [list(b) for b in partition.blocks],
        "block_sums": [str(s) for s in partition.block_sums(mu)],
    }
    text = "blocks: " + " | ".join(",".join(map(str, b)) for b in partition.blocks) + "\n"
    return doc, text


def _dm_enumerate(ns: argparse.Namespace) -> Rendered:
    found = weights.enumerate_tuples(ns.length, ns.max_denominator, **_cap(ns))
    doc = {
        "length": ns.length,
        "max_denominator": ns.max_denominator,
        "count": len(found),
        "tuples": [
            {"weights": weights_to_json(mu), "verdict": status.verdict.value}
            for mu, status in found
        ],
    }
    rows = [[" ".join(mu.as_strings()), status.verdict.value] for mu, status in found]
    return doc, (["weights", "verdict"], rows)


def _tower_table(report: TowerReport) -> Table:
    cusp_names = sorted(report.levels[0].cusp_multiplicities) if report.levels else []
    headers = (
        ["level", "degree", "connected"]
        + cusp_names
        + ["total_cusps", "b1_bound", "fibration"]
    )
    rows = []
    for j, lv in enumerate(report.levels, start=1):
        rows.append(
            [j, lv.degree, lv.connected]
            + [lv.cusp_multiplicities[name] for name in cusp_names]
            + [
                lv.total_cusps if lv.total_cusps is not None else "n/a",
                lv.b1_bound if lv.b1_bound is not None else UNBOUNDED,
                lv.factoring_fibration or "-",
            ]
        )
    return headers, rows


def _tower_views(report: TowerReport) -> Rendered:
    return partial(dumps_tower_report, report), partial(_tower_table, report)


def _tower_run(ns: argparse.Namespace) -> Rendered:
    family = ns.family.upper()
    if family == "C":
        if ns.genus is None or ns.divisors is None:
            raise ValidationError("family C needs --genus and --divisors")
        divisors = _parse_int_list(ns.divisors, "divisors")
        levels = c_tower_report(ns.genus, divisors, ns.depth, **_cap(ns))
        rows = [[lv.level, lv.degree, lv.b1_surface, lv.total_cusps] for lv in levels]
        return (c_tower_report_to_json(levels),
                (["level", "degree", "b1_surface", "total_cusps"], rows))
    if ns.prime is None:
        raise ValidationError(f"family {family} needs --prime")
    if family == "A":
        build = build_a_tower
    elif family == "B":
        build = build_b_tower
    else:
        raise ValidationError(f"unknown family {family!r}; expected A, B, or C")
    spec = build(ns.prime, ns.depth, **_cap(ns))
    if ns.emit_spec:
        with _any_int_digits():
            _write(ns.emit_spec, dumps_canonical(tower_spec_to_json(spec)))
    return _tower_views(analyze_tower(spec))


def _tower_analyze(ns: argparse.Namespace) -> Rendered:
    path = ns.spec
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read tower spec {path!r}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, undecodable bytes, overlong ints
        raise ValidationError(f"malformed tower spec JSON in {path!r}: {exc}") from exc
    return _tower_views(analyze_tower(tower_spec_from_json(data, **_cap(ns))))


def _congruence_orders(ns: argparse.Namespace) -> Rendered:
    family = ns.family.upper()
    if family not in GroupFamily.__members__:
        raise ValidationError(
            f"unknown family {family!r}; expected one of {', '.join(GroupFamily.__members__)}"
        )
    family = GroupFamily[family]
    m, q = ns.m, ns.q
    results = []
    if ns.method in ("formula", "both"):
        results.append(counts.order_formula(family, m, q, **_cap(ns)))
    if ns.method in ("brute", "both"):
        results.append(counts.brute_force_order(family, m, q, **_cap(ns)))
    doc: dict[str, Any] = {
        "family": family.value,
        "m": m,
        "q": q,
        "results": [{"method": r.method.value, "order": r.order} for r in results],
    }
    if len(results) == 2:
        doc["agree"] = results[0].order == results[1].order
    rows = [[family.value, m, q, r.method.value, r.order] for r in results]
    return doc, (["family", "m", "q", "method", "order"], rows)


def _congruence_exponents(ns: argparse.Namespace) -> Rendered:
    lo, hi = ns.prime_min, ns.prime_max
    records = exponent_checks(ns.n, ns.genus, lo, hi, ns.tolerance, **_cap(ns))
    doc = {
        "n": ns.n,
        "genus": ns.genus,
        "primes": {"min": lo, "max": hi, "count": records[0]["points"]},
        "checks": records,
    }
    rows = [
        [r["name"], f"{r['slope']:.4f}", f"{r['target']:.4f}", r["tolerance"],
         r["verdict"] + ("" if "stated_rate_verdict" not in r
                          else f" ({r['stated_rate_verdict']} vs {r['stated_rate']})")]
        for r in records
    ]
    return doc, (["name", "slope", "target", "tolerance", "verdict"], rows)


def _congruence_dtower(ns: argparse.Namespace) -> Rendered:
    columns = counts.d_tower_columns(ns.n, ns.genus, ns.prime_min, ns.prime_max,
                                     **_cap(ns))[:4]
    return (partial(dumps_d_tower, ns.n, ns.genus, columns),
            lambda: (["q", "vol", "b1", "cusps"], list(zip(*columns))))


def _render(ns: argparse.Namespace, rendered: Rendered) -> str:
    doc, view = rendered
    if ns.format == "json":
        return doc() if callable(doc) else dumps_canonical(doc)
    if callable(view):
        view = view()
    if isinstance(view, str):
        if ns.format == "csv":
            raise ValidationError(
                f"csv output is not defined for `{ns.command} {ns.subcommand}`"
            )
        return view
    return (_render_table if ns.format == "table" else _render_csv)(*view)


@contextmanager
def _any_int_digits():
    """Lift the interpreter's limit on int-to-decimal conversion (4300
    digits by default; absent before Python 3.10.7) for the block.

    Only output is rendered inside it, so a result that was computed is
    also printed, while input parsing keeps the limit as its guard
    against slow conversions of huge decimal strings.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _emit(ns: argparse.Namespace, rendered: Rendered) -> None:
    with _any_int_digits():
        text = _render(ns, rendered)
    if ns.out:
        _write(ns.out, text)
    else:
        sys.stdout.write(text)


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path!r}: {exc}") from exc


def _error_record(kind: str, message: str, **extra: Any) -> None:
    record = {"error": {"type": kind, "message": message, **extra}}
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise `ValidationError`, so they end
    as a JSON error record with exit 2 instead of usage text.  Subparsers
    are built from the same class."""

    def error(self, message: str):
        raise ValidationError(f"{self.prog}: {message}")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole argument tree; built on the first call and then shared,
    which is safe as parsing keeps no state in the parser."""
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "table"], default="table",
                        help="output format (default: table)")
    common.add_argument("--cap", type=int, default=None,
                        help="resource cap: raw candidates for dm enumerate and "
                             "brute-force orders, search nodes for dm find-contraction, "
                             "the largest --prime-max for congruence exponents and "
                             "dtower, the bits of the largest deck-group order for tower "
                             "run A/B and tower analyze, the largest --depth for tower "
                             "run C, and the bits of a formula order for congruence "
                             "orders")
    common.add_argument("--out", default=None, help="write output to this file")

    parser = _Parser(
        prog="cuspgrowth",
        description="Exact arithmetic for weight-tuple integrality, covering-tower "
                    "cusp counts, classical group orders, and growth exponents.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    dm = top.add_parser("dm", help="weight-tuple integrality and contractions")
    dm_sub = dm.add_subparsers(dest="subcommand", required=True)
    p = dm_sub.add_parser("check", parents=[common],
                          help="classify a tuple as INT / HALF_INT / FAIL")
    p.set_defaults(handler=_dm_check)
    p.add_argument("--tuple", required=True, help="comma-separated rationals, e.g. 2/6,2/6,3/6,4/6,1/6")
    p = dm_sub.add_parser("contract", parents=[common], help="contract along a partition")
    p.set_defaults(handler=_dm_contract)
    p.add_argument("--tuple", required=True)
    p.add_argument("--blocks", required=True,
                   help="partition blocks as 0-based indices, e.g. '0,1|2|3|4'")
    p = dm_sub.add_parser("find-contraction", parents=[common],
                          help="search for a partition contracting one tuple onto another")
    p.set_defaults(handler=_dm_find_contraction)
    p.add_argument("--tuple", required=True)
    p.add_argument("--target", required=True)
    p = dm_sub.add_parser("enumerate", parents=[common],
                          help="enumerate all INT / HALF_INT tuples with bounded denominator")
    p.set_defaults(handler=_dm_enumerate)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--max-denominator", type=int, required=True)

    tower = top.add_parser("tower", help="covering-tower reports")
    tower_sub = tower.add_subparsers(dest="subcommand", required=True)
    p = tower_sub.add_parser("run", parents=[common], help="analyze a built-in family")
    p.set_defaults(handler=_tower_run)
    p.add_argument("--family", required=True, help="A, B, or C")
    p.add_argument("--prime", type=int, help="prime p for families A and B")
    p.add_argument("--depth", type=int, required=True, help="number of levels")
    p.add_argument("--genus", type=int, help="base-curve genus for family C")
    p.add_argument("--divisors", help="family C cusp divisors, e.g. '0,2'")
    p.add_argument("--emit-spec", default=None,
                   help="also write the generated tower spec JSON to this path")
    p = tower_sub.add_parser("analyze", parents=[common],
                             help="analyze a tower spec from JSON ('-' reads stdin)")
    p.set_defaults(handler=_tower_analyze)
    p.add_argument("--spec", required=True)

    cong = top.add_parser("congruence", help="group orders and growth exponents")
    cong_sub = cong.add_subparsers(dest="subcommand", required=True)
    p = cong_sub.add_parser("orders", parents=[common], help="one classical group order")
    p.set_defaults(handler=_congruence_orders)
    p.add_argument("--family", required=True,
                   help="SL2_ZN, SL, U, SU, or UNITRIANGULAR_U")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True,
                   help="prime power (the modulus N for SL2_ZN)")
    p.add_argument("--method", choices=["formula", "brute", "both"], default="formula")
    p = cong_sub.add_parser("exponents", parents=[common],
                            help="fit growth exponents over a prime range")
    p.set_defaults(handler=_congruence_exponents)
    p.add_argument("--n", type=int, required=True, help="2 or 3")
    p.add_argument("--genus", type=int, default=2)
    p.add_argument("--prime-min", type=int, required=True)
    p.add_argument("--prime-max", type=int, required=True)
    p.add_argument("--tolerance", type=float, default=None,
                   help="override the per-check match tolerance")
    p = cong_sub.add_parser("dtower", parents=[common],
                            help="emit the per-prime (q, vol, b1, cusps) series")
    p.set_defaults(handler=_congruence_dtower)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--genus", type=int, default=2)
    p.add_argument("--prime-min", type=int, required=True)
    p.add_argument("--prime-max", type=int, required=True)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse `argv`, run its handler and emit the output; returns the
    process exit code."""
    try:
        ns = _build_parser().parse_args(argv)
        if ns.cap is not None and ns.cap < 1:
            raise ValidationError("resource caps must be positive")
        _emit(ns, ns.handler(ns))
        return 0
    except ResourceLimitError as exc:
        _error_record("resource", str(exc), space=exc.space, cap=exc.cap)
        return 3
    except ValidationError as exc:
        _error_record("validation", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
