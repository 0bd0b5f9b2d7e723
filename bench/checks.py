"""Output checkers, independent of the package under test.

Each checker parses one job's captured stdout (json, csv or table) and
compares it with a value computed here from the job's parameters,
without importing cuspgrowth: integer-numerator integrality tests, a
subset-sum certificate, a recount of the enumeration, closed forms for
the A/B/C tower families, subgroup enumeration in small deck groups,
closed-form group orders, a prime sieve and a least-squares fit.

`check(job, rc, out)` returns None when the output is right and a
one-line reason otherwise.  `corruptions(job, out)` returns deliberately
damaged copies of a right output; the self-test requires the checker to
reject every one of them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Optional

from workloads import HIRZEBRUCH_CUSPS, HIRZEBRUCH_FIBRATIONS, Job, subset_sums

UNBOUNDED = "UNBOUNDED_BY_METHOD"


class Mismatch(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# Parsing the three output formats


def table_rows(text: str) -> tuple[list[str], list[list[str]]]:
    """Headers and rows of a fixed-width table; the dash line gives widths."""
    lines = text.rstrip("\n").split("\n")
    expect(len(lines) >= 2, "table has no header")
    spans, pos = [], 0
    for dashes in lines[1].split("  "):
        spans.append((pos, pos + len(dashes)))
        pos += len(dashes) + 2
    cut = lambda line: [line[a:b].strip() for a, b in spans]  # noqa: E731
    return cut(lines[0]), [cut(line) for line in lines[2:]]


def csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    expect(len(rows) >= 1, "csv has no header")
    return rows[0], rows[1:]


def text_rows(fmt: str, text: str, headers: list[str]) -> list[dict]:
    got_headers, rows = (table_rows if fmt == "table" else csv_rows)(text)
    expect(got_headers == headers, f"headers {got_headers} != {headers}")
    return [dict(zip(headers, row)) for row in rows]


# ---------------------------------------------------------------------------
# dm: integrality, contraction, enumeration


def pair_witnesses(nums: list[int], den: int) -> tuple[list, list]:
    """(half, fail) witnesses (i, j, value) of an integer-numerator tuple:
    a pair with a + b < den has value den / (den - a - b), which must be
    an integer, or a half-integer when a = b."""
    half, fail = [], []
    for i in range(len(nums)):
        for j in range(i + 1, len(nums)):
            gap = den - nums[i] - nums[j]
            if gap <= 0 or den % gap == 0:
                continue
            value = str(Fraction(den, gap))
            if nums[i] == nums[j] and (2 * den) % gap == 0:
                half.append((i, j, value))
            else:
                fail.append((i, j, value))
    return half, fail


def verdict_of(nums: list[int], den: int) -> str:
    half, fail = pair_witnesses(nums, den)
    return "FAIL" if fail else "HALF_INT" if half else "INT"


def check_dm_check(job: Job, out: str) -> None:
    nums, den = job.params["nums"], job.params["den"]
    half, fail = pair_witnesses(nums, den)
    verdict = verdict_of(nums, den)
    weights = [str(Fraction(a, den)) for a in nums]
    if job.fmt == "json":
        doc = json.loads(out)
        expect(doc["weights"] == weights, "weights differ")
        expect(doc["verdict"] == verdict, f"verdict {doc['verdict']} != {verdict}")
        for key, want in (("half_integral_witnesses", half), ("fail_witnesses", fail)):
            got = [(w["i"], w["j"], w["value"]) for w in doc[key]]
            expect(got == want, f"{key} differ")
        return
    lines = [f"weights: {', '.join(weights)}", f"verdict: {verdict}"]
    lines += [f"half-integral pair ({i},{j}): value {v}" for i, j, v in half]
    lines += [f"failing pair ({i},{j}): value {v}" for i, j, v in fail]
    expect(out == "\n".join(lines) + "\n", "table output differs")


def check_partition(job: Job, blocks: list[list[int]]) -> None:
    source, target, den = job.params["source"], job.params["target"], job.params["den"]
    flat = sorted(i for b in blocks for i in b)
    expect(flat == list(range(len(source))), "blocks do not partition the source indices")
    sums = [sum(source[i] for i in b) for b in blocks]
    expect(sorted(sums) == sorted(target), "block sums differ from the target")
    expect(all(s < den for b, s in zip(blocks, sums) if len(b) >= 2),
           "a merged block sums to 1 or more")


def check_dm_find(job: Job, out: str) -> None:
    solvable = job.kind == "dm.find"
    if not solvable:
        # Certificate: a target weight that is no subset sum of the source.
        cert = job.params["certificate"]
        expect(cert in job.params["target"] and cert not in subset_sums(job.params["source"]),
               "no-solution certificate does not hold")
    if job.fmt == "json":
        doc = json.loads(out)
        expect(doc["found"] is solvable, f"found is {doc['found']}, expected {solvable}")
        if solvable:
            check_partition(job, doc["blocks"])
            den, source = job.params["den"], job.params["source"]
            want = [str(Fraction(sum(source[i] for i in b), den)) for b in doc["blocks"]]
            expect(doc["block_sums"] == want, "block_sums differ")
        return
    if not solvable:
        expect(out == "no admissible contraction\n", "expected no contraction")
        return
    expect(out.startswith("blocks: ") and out.endswith("\n"), "malformed table output")
    blocks = [[int(x) for x in chunk.split(",")] for chunk in out[8:-1].split(" | ")]
    check_partition(job, blocks)


@lru_cache(maxsize=None)
def recount(length: int, den: int) -> tuple[tuple[tuple[str, ...], str], ...]:
    """Sorted numerator tuples of the given length over `den`, entries in
    1..den-1 summing to 2 den, whose verdict is not FAIL, in ascending
    lexicographic order."""
    found = []
    nums: list[int] = []

    def rec(start: int, remaining: int, slots: int) -> None:
        if slots == 0:
            if remaining == 0:
                verdict = verdict_of(nums, den)
                if verdict != "FAIL":
                    found.append((tuple(str(Fraction(a, den)) for a in nums), verdict))
            return
        for a in range(start, min(den - 1, remaining // slots) + 1):
            if remaining - a > (den - 1) * (slots - 1):
                continue
            nums.append(a)
            rec(a, remaining - a, slots - 1)
            nums.pop()

    rec(1, 2 * den, length)
    return tuple(found)


def check_dm_enum(job: Job, out: str) -> None:
    want = recount(job.params["length"], job.params["den"])
    if job.fmt == "json":
        doc = json.loads(out)
        expect(doc["count"] == len(want), f"count {doc['count']} != {len(want)}")
        got = tuple((tuple(t["weights"]), t["verdict"]) for t in doc["tuples"])
    else:
        rows = text_rows(job.fmt, out, ["weights", "verdict"])
        got = tuple((tuple(r["weights"].split(" ")), r["verdict"]) for r in rows)
    expect(got == want, f"{len(got)} tuples listed, recount gives {len(want)} or differs")


# ---------------------------------------------------------------------------
# tower


def level_records(job: Job, out: str, cusp_names: list[str]) -> list[tuple]:
    """(degree, connected, multiplicities, total, b1, fibration) per level."""
    if job.fmt == "json":
        return [
            (lv["degree"], lv["connected"], lv["cusp_multiplicities"], lv["total_cusps"],
             None if lv["b1_bound"] == UNBOUNDED else lv["b1_bound"],
             lv["factoring_fibration"])
            for lv in json.loads(out)["levels"]
        ]
    names = sorted(cusp_names)
    headers = ["level", "degree", "connected"] + names + ["total_cusps", "b1_bound", "fibration"]
    out_rows = []
    for j, r in enumerate(text_rows(job.fmt, out, headers), start=1):
        expect(r["level"] == str(j), "level numbers out of order")
        expect(r["connected"] in ("True", "False"), "connected is not a boolean")
        out_rows.append((
            int(r["degree"]), r["connected"] == "True", {n: int(r[n]) for n in names},
            None if r["total_cusps"] == "n/a" else int(r["total_cusps"]),
            None if r["b1_bound"] == UNBOUNDED else int(r["b1_bound"]),
            None if r["fibration"] == "-" else r["fibration"],
        ))
    return out_rows


def check_tower_family(job: Job, out: str) -> None:
    p, depth, family = job.params["prime"], job.params["depth"], job.params["family"]
    levels = level_records(job, out, list(HIRZEBRUCH_CUSPS))
    expect(len(levels) == depth, f"{len(levels)} levels, expected {depth}")
    for j, (degree, connected, mult, total, b1, fib) in enumerate(levels, start=1):
        pj = p ** j
        expect(degree == pj and connected, f"level {j}: degree or connectivity wrong")
        if family == "A":
            want = {"C0": 1, "C1": 1, "Cinf": pj, "Czeta": 1}
            expect(mult == want and total == pj + 3, f"level {j}: cusps != p^j + 3")
            expect(b1 == 6 and fib == "proj1", f"level {j}: b1 bound is not 6 via proj1")
        else:
            want = {"C0": 1, "C1": 1, "Cinf": 1, "Czeta": 1}
            expect(mult == want and total == 4, f"level {j}: cusps != 4")
            expect(b1 == 7 and fib == "sum", f"level {j}: b1 bound is not 7 via sum")


def check_tower_c(job: Job, out: str) -> None:
    genus, divisors, depth = job.params["genus"], job.params["divisors"], job.params["depth"]
    want = [[j, j, 2 + j * (2 * genus - 2), sum(gcd(d, j) for d in divisors)]
            for j in range(1, depth + 1)]
    keys = ["level", "degree", "b1_surface", "total_cusps"]
    if job.fmt == "json":
        got = [[lv[k] for k in keys] for lv in json.loads(out)["levels"]]
    else:
        got = [[int(r[k]) for k in keys] for r in text_rows(job.fmt, out, keys)]
    expect(got == want, "family C levels differ from the closed forms")


def subgroup_size(factors: list[int], gens: list[tuple[int, ...]]) -> int:
    """Order of the subgroup of Z/d_1 x ... x Z/d_s spanned by `gens`."""
    group = {tuple(0 for _ in factors)}
    for g in gens:
        g = tuple(x % d for x, d in zip(g, factors))
        step = g
        coset_reps = [step]
        while step not in group:
            step = tuple((x + y) % d for x, y, d in zip(step, g, factors))
            coset_reps.append(step)
        if len(coset_reps) == 1:
            continue
        group = {tuple((x + y) % d for x, y, d in zip(h, t, factors))
                 for h in group for t in coset_reps}
    return len(group)


def check_tower_spec(job: Job, out: str) -> None:
    base = job.spec["base"]
    if base == "hirzebruch":
        k = 4
        cusps = HIRZEBRUCH_CUSPS
        fibrations = HIRZEBRUCH_FIBRATIONS
    else:
        k = base["rank"]
        columns = lambda m: [tuple(int(m[i][c]) for i in range(k))  # noqa: E731
                             for c in range(len(m[0]))]
        cusps = {c["name"]: columns(c["sublattice"]) for c in base["cusps"]}
        fibrations = [(f["name"], columns(f["kernel_sublattice"]), f["target_rank"],
                       f["fiber_genus"], f["fiber_punctures"]) for f in base["fibrations"]]
    levels = level_records(job, out, list(cusps))
    expect(len(levels) == len(job.spec["levels"]), "level count differs")
    for idx, (lv, got) in enumerate(zip(job.spec["levels"], levels)):
        factors = [int(d) for d in lv["invariant_factors"]]
        images = [[int(x) for x in row] for row in lv["images"]]
        order = math.prod(factors)
        image = lambda col: tuple(  # noqa: E731
            sum(images[i][a] * col[a] for a in range(k)) for i in range(len(factors)))
        unit = [tuple(int(a == b) for a in range(k)) for b in range(k)]
        connected = subgroup_size(factors, [image(e) for e in unit]) == order
        mult = {name: order // subgroup_size(factors, [image(c) for c in cols])
                for name, cols in cusps.items()}
        b1, fib = None, None
        for name, kernel, target_rank, g, b in fibrations:
            if all(all(x % d == 0 for x, d in zip(image(c), factors)) for c in kernel):
                b1 = (2 * g + b - 1 if b >= 1 else 2 * g) + target_rank
                fib = name
                break
        want = (order, connected, mult, sum(mult.values()) if connected else None, b1, fib)
        expect(tuple(got) == want, f"level {idx}: {got} != {want}")


# ---------------------------------------------------------------------------
# congruence


def formula_order(family: str, m: int, q: int) -> int:
    if family == "SL2_ZN":
        order = Fraction(q ** 3)
        for p in {p for p in range(2, q + 1) if q % p == 0 and is_prime(p)}:
            order *= 1 - Fraction(1, p * p)
        return int(order)
    base = q ** (m * (m - 1) // 2)
    if family == "SL":
        return base * math.prod(q ** i - 1 for i in range(2, m + 1))
    if family == "UNITRIANGULAR_U":
        return base
    u = base * math.prod(q ** i - (-1) ** i for i in range(1, m + 1))
    return u if family == "U" else u // (q + 1)


@lru_cache(maxsize=None)
def sieve(limit: int) -> bytearray:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    return flags


def is_prime(n: int) -> bool:
    return n >= 2 and bool(sieve(max(n, 1 << 15))[n])


def primes_between(lo: int, hi: int) -> list[int]:
    flags = sieve(max(hi, 1 << 15))
    return [n for n in range(max(lo, 2), hi + 1) if flags[n]]


def check_orders(job: Job, out: str) -> None:
    family, m, q = job.params["family"], job.params["m"], job.params["q"]
    want = formula_order(family, m, q)
    if job.fmt == "json":
        doc = json.loads(out)
        expect(doc["agree"] is True, "formula and brute force disagree")
        got = {r["method"]: r["order"] for r in doc["results"]}
    else:
        rows = text_rows(job.fmt, out, ["family", "m", "q", "method", "order"])
        expect(all((r["family"], r["m"], r["q"]) == (family, str(m), str(q)) for r in rows),
               "group parameters differ")
        got = {r["method"]: int(r["order"]) for r in rows}
    expect(got == {"FORMULA": want, "BRUTE_FORCE": want}, f"orders {got} != {want}")


def series(n: int, genus: int, lo: int, hi: int) -> list[tuple[int, int, int, int]]:
    out = []
    for q in primes_between(lo, hi):
        vol = formula_order("SU", n + 1, q)
        psl2 = q * (q * q - 1) // (2 if q > 2 else 1)
        out.append((q, vol, 2 + (2 * genus - 2) * psl2, vol // q ** (2 * n - 1)))
    return out


def slope(pairs: list[tuple[int, int]]) -> float:
    lx = [math.log(x) for x, _ in pairs]
    ly = [math.log(y) for _, y in pairs]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def exponent_checks(n: int, genus: int, lo: int, hi: int) -> list[tuple]:
    """(name, slope, target, tolerance) of each fitted growth exponent."""
    s = series(n, genus, lo, hi)
    m = n + 1
    vol_exp = m * m - 1
    cusp_exp = vol_exp - (2 * n - 1)
    psl2 = [(q, q * (q * q - 1) // 2) for q, *_ in s]
    return [
        (f"su{m}_order_vs_q", slope([(q, v) for q, v, _, _ in s]), float(vol_exp),
         0.05 if n == 2 else 0.1),
        ("psl2_order_vs_q", slope(psl2), 3.0, 0.05),
        ("cusp_index_vs_q", slope([(q, c) for q, _, _, c in s]), float(cusp_exp), 0.05),
        ("b1_vs_vol", slope([(v, b) for _, v, b, _ in s]), 3.0 / vol_exp, 0.02),
        ("cusps_vs_vol", slope([(v, c) for _, v, _, c in s]), cusp_exp / vol_exp, 0.02),
    ]


def check_exponents(job: Job, out: str) -> None:
    n, genus, lo, hi = (job.params[k] for k in ("n", "genus", "lo", "hi"))
    want = exponent_checks(n, genus, lo, hi)
    diverges = "DIVERGES_FROM_STATED_RATE"
    if job.fmt == "json":
        doc = json.loads(out)
        expect(doc["primes"]["count"] == len(primes_between(lo, hi)), "prime count differs")
        got = [(c["name"], c["slope"], c["target"], c["tolerance"], c["verdict"],
                c.get("stated_rate_verdict")) for c in doc["checks"]]
    else:
        rows = text_rows(job.fmt, out, ["name", "slope", "target", "tolerance", "verdict"])
        got = []
        for r in rows:
            verdict, _, stated = r["verdict"].partition(" ")
            flag = None
            if stated:
                found = re.fullmatch(r"\((\w+) vs ([0-9.]+)\)", stated)
                expect(found is not None and float(found[2]) == 0.4, "stated rate differs")
                flag = found[1]
            got.append((r["name"], float(r["slope"]), float(r["target"]),
                        float(r["tolerance"]), verdict, flag))
    expect(len(got) == len(want), "number of checks differs")
    for (name, s, target, tol, verdict, flag), (wname, ws, wtarget, wtol) in zip(got, want):
        expect(name == wname, f"check {name} != {wname}")
        expect(abs(s - ws) <= 6e-5 and abs(target - wtarget) <= 6e-5 and tol == wtol,
               f"{name}: slope, target or tolerance differs")
        expect(verdict == "MATCH", f"{name}: verdict {verdict}")
        want_flag = diverges if (n == 3 and name == "cusps_vs_vol") else None
        expect(flag == want_flag, f"{name}: divergence flag {flag} != {want_flag}")


def check_dtower(job: Job, out: str) -> None:
    n, genus, lo, hi = (job.params[k] for k in ("n", "genus", "lo", "hi"))
    want = [list(row) for row in series(n, genus, lo, hi)]
    keys = ["q", "vol", "b1", "cusps"]
    if job.fmt == "json":
        got = [[d[k] for k in keys] for d in json.loads(out)["series"]]
    else:
        got = [[int(r[k]) for k in keys] for r in text_rows(job.fmt, out, keys)]
    expect(got == want, "series differs")


CHECKERS = {
    "dm.check": check_dm_check,
    "dm.find": check_dm_find,
    "dm.none": check_dm_find,
    "dm.enum": check_dm_enum,
    "tower.A": check_tower_family,
    "tower.B": check_tower_family,
    "tower.C": check_tower_c,
    "tower.spec": check_tower_spec,
    "cong.orders": check_orders,
    "cong.exponents": check_exponents,
    "cong.dtower": check_dtower,
}


def check(job: Job, rc, out: str) -> Optional[str]:
    """None when the job exited 0 and its output is right, else a reason."""
    if rc != 0:
        return f"exit {rc}"
    try:
        CHECKERS[job.kind](job, out)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
    return None


# ---------------------------------------------------------------------------
# Deliberate corruptions for the checker self-test


def _json_corruption(kind: str, doc: dict) -> dict:
    if kind == "dm.check":
        doc["verdict"] = {"INT": "FAIL", "HALF_INT": "INT", "FAIL": "INT"}[doc["verdict"]]
    elif kind == "dm.find":
        doc["blocks"].pop()                       # a dropped block
    elif kind == "dm.none":
        doc["found"] = True
    elif kind == "dm.enum" and doc["tuples"]:
        t = doc["tuples"][-1]
        t["verdict"] = "INT" if t["verdict"] == "HALF_INT" else "HALF_INT"
    elif kind == "dm.enum":
        doc["count"] += 1
    elif kind.startswith("tower.") and kind != "tower.C":
        mult = doc["levels"][-1]["cusp_multiplicities"]
        name = sorted(mult)[0]
        mult[name] += 1                           # one cusp count off by one
    elif kind == "tower.C":
        doc["levels"][-1]["total_cusps"] += 1
    elif kind == "cong.orders":
        doc["results"][-1]["order"] += 1
    elif kind == "cong.exponents":
        doc["checks"][0]["verdict"] = "MISMATCH"  # a flipped verdict
    elif kind == "cong.dtower":
        doc["series"][-1]["cusps"] += 1
    return doc


def corruptions(job: Job, out: str) -> list[str]:
    """Damaged copies of a right output: a kind-specific change for json;
    for text formats the last digit changed, or the last line dropped
    when there is no digit."""
    if job.fmt == "json":
        bad = [json.dumps(_json_corruption(job.kind, json.loads(out)), sort_keys=True,
                          indent=2) + "\n"]
        if job.kind == "cong.exponents" and job.params["n"] == 3:
            doc = json.loads(out)
            doc["checks"][-1].pop("stated_rate_verdict")
            bad.append(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return bad
    digits = [i for i, ch in enumerate(out) if ch.isdigit()]
    if not digits:
        return ["".join(out.splitlines(keepends=True)[:-1])]
    last = digits[-1]
    return [out[:last] + str((int(out[last]) + 1) % 10) + out[last + 1:]]
