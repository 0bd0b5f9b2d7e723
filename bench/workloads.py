"""Seeded job generators for the three benchmark workloads.

A workload is a sequence of rounds.  Each round is a list of CLI argv
jobs drawn from ``random.Random(f"{seed}:{workload}:{round}")``, so the
same seed always gives the same jobs, and the program under test sees
only the generated argv and spec files.

Every round has the same make-up: a fixed number of jobs of each kind,
with the seeded parameters drawn by stratified sampling (one draw per
equal-width stratum, in shuffled order) and, where a kind's cost swings
widely with its inputs, kept inside a cost band by a count of search
nodes made here.  Seeds then change the instances but not the cost
profile of a round, so the median and 90th-percentile job times land
inside a band of similar jobs rather than on a gap between two kinds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

FORMATS = ("json", "table", "csv")


@dataclass
class Job:
    """One CLI invocation and what its checker needs to know."""

    kind: str
    argv: list[str]
    params: dict = field(default_factory=dict)
    #: Tower spec document; the runner writes it to a file and replaces
    #: the ``{spec}`` placeholder in `argv` with that file's path.
    spec: Optional[dict] = None

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_round: Callable[[random.Random], list[Job]]
    properties: Callable[[list[Job]], dict]
    #: Rounds covered by a traced run: fixed, so that its counts repeat
    #: exactly for a seed whatever the speed of the program.
    trace_rounds: int


def round_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{index}")


def strata(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """`n` integers from [lo, hi], one from each of n equal strata, shuffled."""
    width = (hi - lo + 1) / n
    out = [lo + int(width * i + rng.random() * width) for i in range(n)]
    rng.shuffle(out)
    return out


def _frac(num: int, den: int) -> str:
    return str(Fraction(num, den))


def _composition(rng: random.Random, total: int, k: int, lo: int, hi: int) -> list[int]:
    """A random ordered list of k integers in [lo, hi] summing to `total`."""
    while True:
        cuts = sorted(rng.sample(range(1, total), k - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        if all(lo <= p <= hi for p in parts):
            return parts


# ---------------------------------------------------------------------------
# dm-search


def search_cost(source: list[int], k: int, max_sum: int, limit: int = 1 << 62) -> int:
    """Cost of the exhaustive contraction search of the parent commit, in
    search nodes: nodes visited by a partition search of `source` into
    exactly `k` blocks of sum at most `max_sum`, plus two per complete
    partition (each is built and compared with the target there).

    A cost model only, used to keep instances inside a band so that one
    round costs about the same on every seed.  Counting stops once the
    cost passes `limit`.
    """
    n = len(source)
    sums: list[int] = []
    cost = 0

    def rec(pos: int) -> None:
        nonlocal cost
        cost += 1
        if pos == n or cost > limit:
            cost += 2 * (len(sums) == k)
            return
        w = source[pos]
        for b in range(len(sums)):
            if sums[b] + w <= max_sum:
                sums[b] += w
                rec(pos + 1)
                sums[b] -= w
        if len(sums) < k and w <= max_sum:
            sums.append(w)
            rec(pos + 1)
            sums.pop()

    rec(0)
    return cost


def subset_sums(values: list[int]) -> set[int]:
    sums = {0}
    for v in values:
        sums |= {s + v for s in sums}
    return sums


def _split(rng: random.Random, nums: list[int], n: int) -> list[int]:
    """Split target numerators into `n` positive parts, largest first."""
    parts = [[x] for x in nums]
    while sum(len(p) for p in parts) < n:
        block = rng.choice([p for p in parts if max(p) > 1])
        x = block.pop(max(range(len(block)), key=block.__getitem__))
        a = rng.randint(1, x - 1)
        block += [a, x - a]
    source = [y for p in parts for y in p]
    rng.shuffle(source)
    return source


def _contraction_job(kind: str, source: list[int], target: list[int], den: int,
                     fmt: str, **extra) -> Job:
    return Job(
        kind,
        ["dm", "find-contraction",
         "--tuple", ",".join(_frac(x, den) for x in source),
         "--target", ",".join(_frac(x, den) for x in target),
         "--format", fmt],
        {"source": source, "target": target, "den": den, **extra},
    )


def planted(rng: random.Random, n: int, fmt: str,
            band: tuple[int, int] = (0, 1 << 62)) -> Job:
    """A target over denominator 6, 8, 12 or 24, split into a source of
    n weights, at most two of them equal, whose search cost lies in `band`."""
    for _ in range(20_000):
        d = rng.choice((6, 8, 12, 24))
        k = rng.randint(4, min(6, n - 2))
        scale = rng.choice((2, 4)) if d < 24 else rng.choice((1, 2))
        den = d * scale
        target = [x * scale for x in _composition(rng, 2 * d, k, 1, d - 1)]
        source = _split(rng, target, n)
        if len(set(source)) < n - 1:
            continue
        if band[0] <= search_cost(source, k, max(target), band[1]) <= band[1]:
            return _contraction_job("dm.find", source, sorted(target), den, fmt)
    raise RuntimeError("no planted instance in the cost band")


def repeated(rng: random.Random, fmt: str, band: tuple[int, int]) -> Job:
    """A source of length 10 or 11 built from parts c and 2c only, so a
    few weights repeat many times, whose search cost lies in `band`."""
    for _ in range(20_000):
        den = rng.choice((6, 8, 12))
        k = rng.randint(4, 5)
        target = _composition(rng, 2 * den, k, 1, den - 1)
        c = rng.choice((1, 2))
        source = []
        for a in target:
            while a > 0:
                part = min(a, rng.choice((c, 2 * c)))
                source.append(part)
                a -= part
        if len(source) not in (10, 11):
            continue
        rng.shuffle(source)
        if band[0] <= search_cost(source, k, max(target), band[1]) <= band[1]:
            return _contraction_job("dm.find", source, sorted(target), den, fmt)
    raise RuntimeError("no repeated-weight instance in the cost band")


def unsolvable(rng: random.Random, n: int, fmt: str) -> Job:
    """A planted instance whose target is then moved so that one target
    weight is no subset sum of the source: no contraction exists."""
    while True:
        job = planted(rng, n, fmt)
        source, target, den = job.params["source"], list(job.params["target"]), job.params["den"]
        i, j = rng.sample(range(len(target)), 2)
        delta = rng.randint(1, 3)
        target[i] += delta
        target[j] -= delta
        if min(target) < 1 or max(target) >= den:
            continue
        sums = subset_sums(source)
        missing = [t for t in target if t not in sums]
        if missing:
            return _contraction_job("dm.none", source, sorted(target), den, fmt,
                                    certificate=missing[0])


def random_check(rng: random.Random, fmt: str) -> Job:
    d = rng.choice((6, 8, 10, 12, 14, 18, 20, 24, 30, 36))
    length = rng.randint(4, 8)
    nums = _composition(rng, 2 * d, length, 1, d - 1)
    return Job("dm.check",
               ["dm", "check", "--tuple", ",".join(_frac(a, d) for a in nums),
                "--format", fmt],
               {"nums": nums, "den": d})


def enumerate_job(length: int, den: int, fmt: str) -> Job:
    return Job("dm.enum",
               ["dm", "enumerate", "--length", str(length),
                "--max-denominator", str(den), "--format", fmt],
               {"length": length, "den": den})


#: Enumeration points run every round, up to (7, 24) and (5, 48).
ENUM_POINTS = ((5, 12), (6, 12), (7, 12), (8, 12), (5, 24), (4, 48), (7, 24), (5, 48))

#: Search-cost band of the length-10 and repeated-weight contraction
#: instances (about 0.3-0.45 s each at the parent commit).  Together
#: with the three fixed heavy jobs they fill the top tenth of a round's
#: job times, so job_p90_s lands inside this band.
CONTRACTION_BAND = (20_000, 32_000)


def dm_round(rng: random.Random) -> list[Job]:
    jobs = [random_check(rng, ("json", "table")[i % 2]) for i in range(40)]
    for n in (6, 7, 8, 9):
        jobs += [planted(rng, n, FORMATS[i % 2]) for i in range(2)]
    jobs += [planted(rng, 10, FORMATS[i % 2], CONTRACTION_BAND) for i in range(3)]
    jobs += [repeated(rng, FORMATS[i % 2], CONTRACTION_BAND) for i in range(4)]
    # The fixed repeated-weight case 12 x (1/6) -> 4 x (1/2).
    jobs.append(_contraction_job("dm.find", [1] * 12, [3] * 4, 6, "json"))
    jobs += [unsolvable(rng, n, "json") for n in (8, 9)]
    jobs += [enumerate_job(length, den, FORMATS[i % 3])
             for i, (length, den) in enumerate(ENUM_POINTS)]
    jobs += [enumerate_job(rng.randint(5, 6), rng.randint(8, 16), "csv") for _ in range(2)]
    rng.shuffle(jobs)
    return jobs


def dm_properties(jobs: list[Job]) -> dict:
    finds = [j for j in jobs if j.kind in ("dm.find", "dm.none")]
    enums = [j for j in jobs if j.kind == "dm.enum"]
    return {
        "contraction_instances": len(finds),
        # Repeated: some weight occurs three times or more.
        "repeated_weight_share": round(
            sum(max(map(j.params["source"].count, j.params["source"])) >= 3 for j in finds)
            / max(len(finds), 1), 4),
        "max_source_length": max((len(j.params["source"]) for j in finds), default=0),
        "unsolvable_instances": sum(j.kind == "dm.none" for j in jobs),
        "enumeration_points": sorted({(j.params["length"], j.params["den"]) for j in enums}),
    }


# ---------------------------------------------------------------------------
# tower-lattice

#: Hirzebruch base data, as documented: cusp sublattices by columns and
#: fibration kernels, over H_1 = Z^4.
HIRZEBRUCH_CUSPS = {
    "C0": [(1, 0, 0, 0), (0, 1, 0, 0)],
    "Cinf": [(0, 0, 1, 0), (0, 0, 0, 1)],
    "C1": [(1, 0, 1, 0), (0, 1, 0, 1)],
    "Czeta": [(1, 0, 0, 1), (0, 1, -1, 1)],
}
HIRZEBRUCH_FIBRATIONS = [
    # (name, kernel columns, target rank, fiber genus, fiber punctures)
    ("proj1", [(0, 0, 1, 0), (0, 0, 0, 1)], 2, 1, 3),
    ("sum", [(1, 0, -1, 0), (0, 1, 0, -1)], 2, 1, 4),
]

#: Deck groups of spec jobs stay this small so the checker can
#: enumerate their subgroups.
MAX_SPEC_ORDER = 512


def _factor_chain(rng: random.Random) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of rank 1 to 4, order <= MAX_SPEC_ORDER."""
    while True:
        chain = [rng.choice((2, 3, 4, 5, 6))]
        for _ in range(rng.randint(0, 3)):
            chain.append(chain[-1] * rng.choice((1, 2, 3)))
        order = 1
        for d in chain:
            order *= d
        if order <= MAX_SPEC_ORDER:
            return chain


def _level(rng: random.Random, rank: int, kill: Optional[list[int]] = None,
           tie: Optional[list[tuple[int, int]]] = None) -> dict:
    """A deck homomorphism Z^rank -> G; columns in `kill` map to 0 and
    column a copies column b for (a, b) in `tie`."""
    chain = _factor_chain(rng)
    rows = []
    for d in chain:
        row = [rng.randrange(d) for _ in range(rank)]
        for a in kill or ():
            row[a] = 0
        for a, b in tie or ():
            row[a] = row[b]
        rows.append([str(x) for x in row])
    return {"invariant_factors": [str(d) for d in chain], "images": rows}


def hirzebruch_spec(rng: random.Random, levels: int) -> dict:
    out = []
    for _ in range(levels):
        mode = rng.random()
        if mode < 0.25:
            out.append(_level(rng, 4, kill=[2, 3]))           # factors through proj1
        elif mode < 0.5:
            out.append(_level(rng, 4, tie=[(2, 0), (3, 1)]))  # factors through sum
        else:
            out.append(_level(rng, 4))
    return {"base": "hirzebruch", "levels": out}


def _rank(columns: list[tuple[int, ...]]) -> int:
    rows = [list(map(Fraction, c)) for c in columns]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _columns_to_json(columns: list[tuple[int, ...]], k: int) -> list[list[str]]:
    return [[str(c[i]) for c in columns] for i in range(k)]


def explicit_spec(rng: random.Random, k: int, levels: int) -> dict:
    """An explicit base of rank k with 3-6 cusps and two fibrations; the
    first fibration's kernel is spanned by the last two unit vectors."""
    cusps = []
    for c in range(rng.randint(3, 6)):
        while True:
            cols = [tuple(rng.randint(-2, 2) for _ in range(k))
                    for _ in range(rng.randint(1, 3))]
            if _rank(cols) == len(cols):
                break
        cusps.append({"name": f"K{c}", "sublattice": _columns_to_json(cols, k)})
    unit = [tuple(int(i == j) for i in range(k)) for j in (k - 2, k - 1)]
    genus = rng.randint(0, 2)
    fibrations = [
        {"name": "F0", "kernel_sublattice": _columns_to_json(unit, k),
         "target_rank": rng.randint(1, 3), "fiber_genus": genus,
         "fiber_punctures": rng.randint(2 if genus == 0 else 1, 4)},
        {"name": "F1",
         "kernel_sublattice": _columns_to_json(
             [tuple(rng.randint(-1, 1) for _ in range(k))], k),
         "target_rank": 1, "fiber_genus": 1, "fiber_punctures": 0},
    ]
    out = [_level(rng, k, kill=[k - 2, k - 1]) if rng.random() < 0.3 else _level(rng, k)
           for _ in range(levels)]
    return {"base": {"rank": k, "cusps": cusps, "fibrations": fibrations}, "levels": out}


def tower_run(family: str, fmt: str, depth: int, prime: int = 0,
              genus: int = 0, divisors: tuple[int, ...] = ()) -> Job:
    argv = ["tower", "run", "--family", family, "--depth", str(depth)]
    if family == "C":
        argv += ["--genus", str(genus), "--divisors", ",".join(map(str, divisors))]
    else:
        argv += ["--prime", str(prime)]
    return Job(f"tower.{family}", argv + ["--format", fmt],
               {"family": family, "depth": depth, "prime": prime, "genus": genus,
                "divisors": list(divisors)})


def spec_job(spec: dict, fmt: str) -> Job:
    return Job("tower.spec", ["tower", "analyze", "--spec", "{spec}", "--format", fmt],
               {}, spec)


def tower_round(rng: random.Random) -> list[Job]:
    fmts = list(FORMATS) * 7
    rng.shuffle(fmts)
    jobs = []
    deep = strata(rng, 800, 1000, 4)
    jobs += [tower_run(fam, fmts.pop(), depth, prime)
             for (fam, prime), depth in zip((("A", 2), ("A", 3), ("B", 3), ("B", 5)), deep)]
    mid = strata(rng, 50, 400, 4)
    jobs += [tower_run(fam, fmts.pop(), depth, rng.choice(primes))
             for fam, primes, depth in zip("ABAB", ((2, 3), (3, 5), (5, 7), (7, 11)), mid)]
    jobs += [tower_run("C", fmts.pop(), depth, genus=rng.randint(2, 5),
                       divisors=tuple(rng.randint(0, 12) for _ in range(rng.randint(1, 5))))
             for depth in strata(rng, 20, 400, 3)]
    jobs += [spec_job(hirzebruch_spec(rng, levels), fmts.pop())
             for levels in strata(rng, 10, 40, 5)]
    jobs += [spec_job(explicit_spec(rng, k, levels), fmts.pop())
             for k, levels in zip(strata(rng, 6, 12, 5), strata(rng, 5, 25, 5))]
    rng.shuffle(jobs)
    return jobs


def tower_properties(jobs: list[Job]) -> dict:
    orders = []
    snf_side = 0
    for j in jobs:
        if j.kind == "tower.spec":
            base = j.spec["base"]
            k = 4 if base == "hirzebruch" else base["rank"]
            for lv in j.spec["levels"]:
                order = 1
                for d in lv["invariant_factors"]:
                    order *= int(d)
                orders.append(order)
                # is_surjective reduces [diag(d) | images] of s x (s + k).
                snf_side = max(snf_side, len(lv["invariant_factors"]) + k)
        elif j.kind in ("tower.A", "tower.B"):
            snf_side = max(snf_side, 1 + 4)
    runs = [j for j in jobs if j.kind in ("tower.A", "tower.B")]
    return {
        "spec_deck_order_range": [min(orders, default=0), max(orders, default=0)],
        "family_max_deck_order_bits": max(
            ((j.params["prime"] ** j.params["depth"]).bit_length() for j in runs), default=0),
        "largest_snf_side": snf_side,
        "max_depth": max((j.params["depth"] for j in jobs if j.kind != "tower.spec"),
                         default=0),
    }


# ---------------------------------------------------------------------------
# congruence-oracle


def orders_job(family: str, m: int, q: int, fmt: str) -> Job:
    return Job("cong.orders",
               ["congruence", "orders", "--family", family, "--m", str(m), "--q", str(q),
                "--method", "both", "--format", fmt],
               {"family": family, "m": m, "q": q})


def raw_space(family: str, m: int, q: int) -> int:
    if family == "SL2_ZN":
        return q ** 4
    if family == "SL":
        return q ** (m * m)
    return (q * q) ** (m * m)


#: Brute-force configurations by cost at the parent commit.  The heavy
#: ones (about 0.3-2 s) and one SL2_ZN with N in 57..60 run once per
#: round.  U(2, 5), SU(2, 5) and eight SL2_ZN with N in 36..40 (about
#: 0.2 s each) form the band that holds job_p90_s; the middle and light
#: ones cover the remaining cases.
ORDERS_HEAVY = (("U", 2, 7), ("SU", 2, 7), ("SL", 3, 3))
ORDERS_BAND = (("U", 2, 5), ("SU", 2, 5)) * 2
ORDERS_MIDDLE = (("U", 3, 2), ("SU", 3, 2), ("SL", 2, 9), ("SL", 2, 8))
ORDERS_LIGHT = (("SL", 2, 2), ("SL", 2, 3), ("SL", 2, 4), ("SL", 2, 5), ("SL", 2, 7),
                ("SL", 3, 2), ("U", 2, 2), ("U", 2, 3), ("U", 2, 4), ("SU", 2, 2),
                ("SU", 2, 3), ("SU", 2, 4), ("UNITRIANGULAR_U", 2, 2),
                ("UNITRIANGULAR_U", 2, 3), ("UNITRIANGULAR_U", 2, 4),
                ("UNITRIANGULAR_U", 2, 5), ("UNITRIANGULAR_U", 2, 7),
                ("UNITRIANGULAR_U", 3, 2))

#: Prime ranges stay inside [5, PRIME_MAX].
PRIME_MAX = 20_000


def prime_range_job(kind: str, n: int, lo: int, hi: int, fmt: str) -> Job:
    sub = kind.split(".")[1]
    return Job(kind,
               ["congruence", sub, "--n", str(n), "--genus", "2",
                "--prime-min", str(lo), "--prime-max", str(hi), "--format", fmt],
               {"n": n, "genus": 2, "lo": lo, "hi": hi})


def congruence_round(rng: random.Random) -> list[Job]:
    fmts = list(FORMATS) * 27
    rng.shuffle(fmts)
    configs = list(ORDERS_HEAVY + ORDERS_BAND + ORDERS_MIDDLE)
    configs += rng.sample(ORDERS_LIGHT, 12)
    configs += [("SL2_ZN", 2, n) for n in strata(rng, 57, 60, 1) + strata(rng, 36, 40, 8)
                + strata(rng, 2, 24, 4)]
    jobs = [orders_job(fam, m, q, fmts.pop()) for fam, m, q in configs]
    # Prime ranges carry most jobs, so job_p50_s lands among them.
    starts = strata(rng, 5, PRIME_MAX - 5_000, 44)
    for i, (lo, width) in enumerate(zip(starts, strata(rng, 1_000, 5_000, 44))):
        kind = ("cong.exponents", "cong.dtower")[i % 2]
        jobs.append(prime_range_job(kind, 2 + (i // 2) % 2, lo, lo + width, fmts.pop()))
    rng.shuffle(jobs)
    return jobs


def congruence_properties(jobs: list[Job]) -> dict:
    orders = [j.params for j in jobs if j.kind == "cong.orders"]
    widths = sorted(j.params["hi"] - j.params["lo"] for j in jobs
                    if j.kind in ("cong.exponents", "cong.dtower"))
    return {
        "max_brute_raw_space": max((raw_space(p["family"], p["m"], p["q"]) for p in orders),
                                   default=0),
        "prime_range_widths": {"min": widths[0] if widths else 0,
                               "median": widths[len(widths) // 2] if widths else 0,
                               "max": widths[-1] if widths else 0},
        "prime_max": max((j.params["hi"] for j in jobs if "hi" in j.params), default=0),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dm-search",
            "contraction search and tuple enumeration (weights); repeated-weight "
            "sources sit beside distinct-weight ones. Instances stay under about "
            "2-3 s because the search has no bound at the parent commit",
            dm_round, dm_properties, trace_rounds=1),
        Workload(
            "tower-lattice",
            "Smith normal form, IntMatrix construction and report rendering "
            "(lattice, towers, serialize) over deep A/B towers and random specs",
            tower_round, tower_properties, trace_rounds=4),
        Workload(
            "congruence-oracle",
            "brute-force order oracles (heavy, set job_p90_s) beside prime ranges "
            "and exponent fits (light, set job_p50_s) in counts, gf and fitting",
            congruence_round, congruence_properties, trace_rounds=1),
    )
}
