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
on stderr.  The parser tree is built once per process, on the first
`main` call.  `main` parses an argv whose first two words name a leaf
(``dm check``, ``tower run``, ...) with that leaf's parser alone, and
any other argv, or one the leaf rejects, with the whole tree, so every
message, help text and exit code is the tree's own.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager
from functools import cache, partial
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

# Every family up front: bench/tracing.py wraps the modules `import cuspgrowth.cli` loads.
from . import counts, weights
from .counts import GroupFamily
from .errors import ResourceLimitError, ValidationError, quoted
from .fitting import exponent_checks
from .serialize import (
    UNBOUNDED,
    dumps_canonical,
    dumps_d_tower,
    dumps_tower_report,
    tower_spec_from_json,
    tower_spec_to_json,
)
from .towers import (
    TowerReport,
    a_tower_report,
    analyze_tower,
    b_tower_report,
    build_a_tower,
    build_b_tower,
    c_tower_report,
)
from .weights import ContractionPartition, WeightTuple


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Left-aligned columns two spaces apart, each as wide as its widest
    cell, under a dash rule of the same widths, with trailing whitespace
    stripped from each line.  One `str.format` template pads every row;
    `{:<w}` pads a string exactly as `str.ljust(w)` does, so the bytes
    are those of padding each cell with `ljust`."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    template = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [template.format(*row).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _render_csv(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """The rows as `csv.writer(buf, lineterminator="\\n")` writes them.

    A row whose cells, joined with commas, hold exactly one comma per
    separator and none of `"`, CR, LF or NUL, and which holds no None
    and joins to a non-empty text, needs no quoting, so the joined text
    is the writer's line.  Every other row goes through `csv.writer`,
    which keeps the running interpreter's own quoting (3.13 quotes a
    lone CR, 3.10-3.12 do not).  A row it cannot write (3.10 refuses a
    NUL) is a `ValidationError`.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    lines = []
    for row in chain([headers], rows):
        text = ",".join(map(str, row))
        if (not text or text.count(",") >= len(row) or '"' in text or "\r" in text
                or "\n" in text or "\0" in text or None in row):
            try:
                writer.writerow(row)
            except csv.Error as exc:
                raise ValidationError(f"cannot write the row as csv: {exc}") from exc
            text = buf.getvalue()[:-1]
            buf.seek(0)
            buf.truncate()
        lines.append(text)
    lines.append("")
    return "\n".join(lines)


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
                f"cannot parse block {quoted(chunk)}; blocks look like '0,1|2|3|4' "
                "(0-based indices)"
            ) from exc
    if not blocks:
        raise ValidationError("no blocks given")
    return ContractionPartition(tuple(blocks))


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ValidationError(f"cannot parse {what} from {quoted(text)}") from exc


# ---------------------------------------------------------------------------
# Handlers: each leaf subparser names its own with `set_defaults`.  A
# handler reads the parsed namespace and returns the JSON document and a
# text view, which is either (headers, rows), rendered as a table or as
# CSV, or a fixed text that has no CSV form.  A handler may instead hand
# over zero-argument callables that write the JSON text or build the
# text view, so that only the requested format is produced.

Table = tuple[list[str], list[list[Any]]]
Rendered = tuple[Union[dict, Callable[[], str]],
                 Union[str, Table, Callable[[], Union[str, Table]]]]


def _cap(ns: argparse.Namespace) -> dict[str, int]:
    """`--cap` as the keyword of a guarded library call; without it the
    call keeps its own default."""
    return {} if ns.cap is None else {"cap": ns.cap}


def _dm_check(ns: argparse.Namespace) -> Rendered:
    mu = WeightTuple.parse(ns.tuple)
    status = weights.check_int(mu)
    strings = mu.as_strings()

    def doc() -> str:
        return dumps_canonical({
            "weights": strings,
            "verdict": status.verdict.value,
            "half_integral_witnesses": [{"i": w.i, "j": w.j, "value": str(w.value)}
                                        for w in status.half_witnesses],
            "fail_witnesses": [{"i": w.i, "j": w.j, "value": str(w.value)}
                               for w in status.fail_witnesses],
        })

    def text() -> str:
        lines = [f"weights: {', '.join(strings)}", f"verdict: {status.verdict.value}"]
        lines += [f"half-integral pair ({w.i},{w.j}): value {w.value}"
                  for w in status.half_witnesses]
        lines += [f"failing pair ({w.i},{w.j}): value {w.value}" for w in status.fail_witnesses]
        return "\n".join(lines) + "\n"

    return doc, text


def _dm_contract(ns: argparse.Namespace) -> Rendered:
    mu = WeightTuple.parse(ns.tuple)
    partition = _parse_blocks(ns.blocks)
    result = weights.contract(mu, partition)
    doc = {
        "source": mu.as_strings(),
        "blocks": [list(b) for b in partition.blocks],
        "block_sums": [str(s) for s in partition.block_sums(mu)],
        "result": result.as_strings(),
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
        doc = {"found": False, "source": mu.as_strings(), "target": nu.as_strings()}
        return doc, "no admissible contraction\n"
    doc = {
        "found": True,
        "source": mu.as_strings(),
        "target": nu.as_strings(),
        "blocks": [list(b) for b in partition.blocks],
        "block_sums": [str(s) for s in partition.block_sums(mu)],
    }
    text = "blocks: " + " | ".join(",".join(map(str, b)) for b in partition.blocks) + "\n"
    return doc, text


def _dm_enumerate(ns: argparse.Namespace) -> Rendered:
    found = [(mu.as_strings(), status.verdict.value) for mu, status in
             weights.enumerate_tuples(ns.length, ns.max_denominator, **_cap(ns))]
    doc = {
        "length": ns.length,
        "max_denominator": ns.max_denominator,
        "count": len(found),
        "tuples": [{"weights": strings, "verdict": verdict} for strings, verdict in found],
    }
    rows = [[" ".join(strings), verdict] for strings, verdict in found]
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
        # A cusp that splits completely has the degree as multiplicity:
        # its cell reuses the degree's decimal string.
        degree = str(lv.degree)
        rows.append(
            [j, degree, lv.connected]
            + [degree if (m := lv.cusp_multiplicities[name]) == lv.degree else m
               for name in cusp_names]
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
        if ns.emit_spec is not None:
            raise ValidationError("--emit-spec is defined for families A and B only")
        if ns.genus is None or ns.divisors is None:
            raise ValidationError("family C needs --genus and --divisors")
        divisors = _parse_int_list(ns.divisors, "divisors")
        levels = c_tower_report(ns.genus, divisors, ns.depth, **_cap(ns))
        headers = ["level", "degree", "b1_surface", "total_cusps"]
        rows = [[lv.level, lv.degree, lv.b1_surface, lv.total_cusps] for lv in levels]
        return {"levels": [dict(zip(headers, row)) for row in rows]}, (headers, rows)
    if ns.prime is None:
        raise ValidationError(f"family {family} needs --prime")
    if family == "A":
        build, report = build_a_tower, a_tower_report
    elif family == "B":
        build, report = build_b_tower, b_tower_report
    else:
        raise ValidationError(f"unknown family {quoted(family)}; expected A, B, or C")
    if ns.emit_spec:
        spec = build(ns.prime, ns.depth, **_cap(ns))
        with _any_int_digits():
            _write(ns.emit_spec, dumps_canonical(tower_spec_to_json(spec)))
    return _tower_views(report(ns.prime, ns.depth, **_cap(ns)))


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
    # ValueError: JSONDecodeError, undecodable bytes, overlong ints;
    # RecursionError: arrays or objects nested past the recursion limit.
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed tower spec JSON in {path!r}: {exc}") from exc
    return _tower_views(analyze_tower(tower_spec_from_json(data, **_cap(ns))))


def _congruence_orders(ns: argparse.Namespace) -> Rendered:
    family = ns.family.upper()
    if family not in GroupFamily.__members__:
        raise ValidationError(f"unknown family {quoted(family)}; "
                              f"expected one of {', '.join(GroupFamily.__members__)}")
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
    as a JSON error record with exit 2 instead of usage text, and whose
    messages quote a value through `quoted`.  Subparsers are built from
    the same class."""

    #: The tree's leaf parsers by (command, subcommand), set on the root.
    leaves: dict[tuple[str, str], _Parser]

    def error(self, message: str):
        raise ValidationError(f"{self.prog}: {message}")

    def parse_args(self, args=None, namespace=None):
        # argparse joins the leftover words whole into this message.
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            text = " ".join(extras)
            self.error(f"unrecognized arguments: {text if len(text) <= 32 else quoted(text)}")
        return args

    def _get_values(self, action, arg_strings):
        try:
            return super()._get_values(action, arg_strings)
        except argparse.ArgumentError as exc:
            # An invalid int, float or choice is quoted whole with %r.
            for text in arg_strings:
                exc.message = exc.message.replace(repr(text), quoted(text))
            raise


@cache
def _build_parser() -> _Parser:
    """The whole argument tree; built on the first call and then shared,
    which is safe as parsing keeps no state in the parser.  Its `leaves`
    map each (command, subcommand) to the leaf parser the tree holds for
    it, the object `add_parser` returned, so `_parse` can parse with the
    leaf alone."""
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "table"], default="table",
                        help="output format (default: table)")
    common.add_argument("--cap", type=int, default=None,
                        help="resource cap: raw candidates for dm enumerate and "
                             "brute-force orders, search nodes for dm find-contraction, "
                             "the largest --prime-max for congruence exponents and "
                             "dtower, the bits of the largest deck-group order for tower "
                             "run A/B and tower analyze, the largest --depth for tower "
                             "run C, and the lower estimate m(m-1)/2*(bits(q)-1)+1 of "
                             "the bits of a formula order for congruence orders")
    common.add_argument("--out", default=None, help="write output to this file")

    parser = _Parser(
        prog="cuspgrowth",
        description="Exact arithmetic for weight-tuple integrality, covering-tower "
                    "cusp counts, classical group orders, and growth exponents.",
    )
    parser.leaves = {}
    top = parser.add_subparsers(dest="command", required=True)

    def family(command: str, help: str) -> Callable[..., _Parser]:
        """Add a command and return a function that adds its leaves, each
        with the common options and its handler, recorded in `leaves`."""
        sub = top.add_parser(command, help=help).add_subparsers(dest="subcommand",
                                                                 required=True)

        def leaf(subcommand: str, handler: Callable[[argparse.Namespace], Rendered],
                 help: str) -> _Parser:
            p = sub.add_parser(subcommand, parents=[common], help=help)
            p.set_defaults(handler=handler)
            parser.leaves[command, subcommand] = p
            return p

        return leaf

    leaf = family("dm", "weight-tuple integrality and contractions")
    p = leaf("check", _dm_check, "classify a tuple as INT / HALF_INT / FAIL")
    p.add_argument("--tuple", required=True, help="comma-separated rationals, e.g. 2/6,2/6,3/6,4/6,1/6")
    p = leaf("contract", _dm_contract, "contract along a partition")
    p.add_argument("--tuple", required=True)
    p.add_argument("--blocks", required=True,
                   help="partition blocks as 0-based indices, e.g. '0,1|2|3|4'")
    p = leaf("find-contraction", _dm_find_contraction,
             "search for a partition contracting one tuple onto another")
    p.add_argument("--tuple", required=True)
    p.add_argument("--target", required=True)
    p = leaf("enumerate", _dm_enumerate,
             "enumerate all INT / HALF_INT tuples with bounded denominator")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--max-denominator", type=int, required=True)

    leaf = family("tower", "covering-tower reports")
    p = leaf("run", _tower_run, "analyze a built-in family")
    p.add_argument("--family", required=True, help="A, B, or C")
    p.add_argument("--prime", type=int, help="prime p for families A and B")
    p.add_argument("--depth", type=int, required=True, help="number of levels")
    p.add_argument("--genus", type=int, help="base-curve genus for family C")
    p.add_argument("--divisors", help="family C cusp divisors, e.g. '0,2'")
    p.add_argument("--emit-spec", default=None,
                   help="families A and B: also write the generated tower spec JSON "
                        "to this path")
    p = leaf("analyze", _tower_analyze, "analyze a tower spec from JSON ('-' reads stdin)")
    p.add_argument("--spec", required=True)

    leaf = family("congruence", "group orders and growth exponents")
    p = leaf("orders", _congruence_orders, "one classical group order")
    p.add_argument("--family", required=True,
                   help="SL2_ZN, SL, U, SU, or UNITRIANGULAR_U")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True,
                   help="prime power (the modulus N for SL2_ZN)")
    p.add_argument("--method", choices=["formula", "brute", "both"], default="formula")
    p = leaf("exponents", _congruence_exponents, "fit growth exponents over a prime range")
    p.add_argument("--n", type=int, required=True, help="2 or 3")
    p.add_argument("--genus", type=int, default=2)
    p.add_argument("--prime-min", type=int, required=True)
    p.add_argument("--prime-max", type=int, required=True)
    p.add_argument("--tolerance", type=float, default=None,
                   help="override the per-check match tolerance")
    p = leaf("dtower", _congruence_dtower, "emit the per-prime (q, vol, b1, cusps) series")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--genus", type=int, default=2)
    p.add_argument("--prime-min", type=int, required=True)
    p.add_argument("--prime-max", type=int, required=True)

    return parser


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The namespace the whole tree parses from `argv`.

    A leaf parses the words after its (command, subcommand) to the same
    namespace as the tree, for about a quarter of the tree's cost (the
    tree walks three parsers), so an argv that starts with a leaf's two
    words is parsed by that leaf.  An argv that starts otherwise (``-h``,
    a bare command, an unknown word), or that the leaf rejects, is parsed
    by the tree, so that the tree words the error: an unrecognized
    argument is reported under the prog ``cuspgrowth``, not the leaf's.
    """
    parser = _build_parser()
    leaf = parser.leaves.get(tuple(argv[:2]))
    if leaf is not None:
        try:
            ns = leaf.parse_args(argv[2:])
        except ValidationError:
            pass
        else:
            ns.command, ns.subcommand = argv[0], argv[1]
            return ns
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse `argv` (default ``sys.argv[1:]``) through `_parse`, run its
    handler and emit the output; returns the process exit code."""
    try:
        ns = _parse(sys.argv[1:] if argv is None else argv)
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
