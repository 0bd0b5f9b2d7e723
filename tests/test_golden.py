"""Golden outputs: the stdout of every README CLI example, byte for byte.

The files under `tests/golden/` pin the exact output of each example in
every format it supports (csv is not defined for the `dm check`,
`contract` and `find-contraction` reports), plus an explicit-base spec
whose deck groups have rank 2 and 3, so non-cyclic cokernels are
covered.  `refusals.json` pins the exit code and the exact stderr of
every resource guard at its cap, one past it, and lifted by `--cap`,
with the default caps and with explicit ones, and the refusal of an
empty `--out` or `--emit-spec` path.  Regenerate them only for
an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from cuspgrowth.cli import main
from cuspgrowth.serialize import dumps_canonical

GOLDEN = Path(__file__).parent / "golden"
#: Spec emitted by `tower run --family A --prime 3 --depth 4 --emit-spec`.
EMITTED_SPEC = GOLDEN / "a_p3_d4_spec.json"
EXPLICIT_SPEC = GOLDEN / "explicit_spec.json"
EMIT_ARGV = ["tower", "run", "--family", "A", "--prime", "3", "--depth", "4",
             "--format", "json"]

ALL = ("json", "table", "csv")
NO_CSV = ("json", "table")
EXAMPLES = {
    "dm_check": (["dm", "check", "--tuple", "2/6,2/6,3/6,4/6,1/6"], NO_CSV),
    "dm_contract": (["dm", "contract", "--tuple", "2/6,2/6,3/6,4/6,1/6",
                     "--blocks", "0,1|2|3|4"], NO_CSV),
    "dm_find_contraction": (["dm", "find-contraction", "--tuple", "2/6,2/6,3/6,3/6,1/6,1/6",
                             "--target", "1/6,3/6,4/6,4/6"], NO_CSV),
    "dm_enumerate": (["dm", "enumerate", "--length", "5", "--max-denominator", "6"], ALL),
    "tower_run_a": (["tower", "run", "--family", "A", "--prime", "3", "--depth", "6"], ALL),
    "tower_run_b": (["tower", "run", "--family", "B", "--prime", "5", "--depth", "6"], ALL),
    "tower_run_c": (["tower", "run", "--family", "C", "--genus", "2", "--divisors", "0",
                     "--depth", "10"], ALL),
    "tower_analyze": (["tower", "analyze", "--spec", str(EMITTED_SPEC)], ALL),
    "tower_analyze_explicit": (["tower", "analyze", "--spec", str(EXPLICIT_SPEC)], ALL),
    "congruence_orders": (["congruence", "orders", "--family", "SU", "--m", "3", "--q", "2",
                           "--method", "both"], ALL),
    "congruence_exponents": (["congruence", "exponents", "--n", "2", "--genus", "2",
                              "--prime-min", "5", "--prime-max", "199"], ALL),
    "congruence_dtower": (["congruence", "dtower", "--n", "2", "--genus", "2",
                           "--prime-min", "5", "--prime-max", "199"], ALL),
}
CASES = [(name, fmt) for name, (_, fmts) in EXAMPLES.items() for fmt in fmts]

DM_FIND = ["dm", "find-contraction", "--tuple", "2/6,2/6,3/6,3/6,1/6,1/6",
           "--target", "1/6,3/6,4/6,4/6"]  # visits 6 nodes
WIDE_SPEC = ["tower", "analyze", "--spec", str(GOLDEN / "wide_spec.json")]  # 10,010 bits
ORDERS = ["congruence", "orders", "--family"]
PRIMES = ["--n", "2", "--prime-min", "999900", "--prime-max", "1000050"]
#: 4,300 digits, the most an int argument may have: refusals of counts
#: built from it report one that prints.
HUGE, HUGE_PRIME = str(10**4299), str(10**4299 + 1)
#: One argv per guard and side of its cap; `record` stores the exit code
#: and stderr of each in `refusals.json`.
REFUSALS = {
    "enumerate_default": ["dm", "enumerate", "--length", "8", "--max-denominator", "40"],
    "enumerate_over": ["dm", "enumerate", "--length", "5", "--max-denominator", "6",
                       "--cap", "125"],
    "enumerate_at": ["dm", "enumerate", "--length", "5", "--max-denominator", "6",
                     "--cap", "126"],
    "contraction_over": [*DM_FIND, "--cap", "5"],
    "contraction_at": [*DM_FIND, "--cap", "6"],
    "tower_a_default": ["tower", "run", "--family", "A", "--prime", "5", "--depth", "4307"],
    "tower_a_default_bound": ["tower", "run", "--family", "A", "--prime", "5",
                              "--depth", "10000000"],
    "tower_a_default_unprintable": ["tower", "run", "--family", "A", "--prime", HUGE_PRIME,
                                    "--depth", HUGE_PRIME],
    "tower_a_over": ["tower", "run", "--family", "A", "--prime", "2", "--depth", "100",
                     "--cap", "100"],
    "tower_a_at": ["tower", "run", "--family", "A", "--prime", "2", "--depth", "99",
                   "--cap", "100"],
    "tower_a_exact_over": ["tower", "run", "--family", "A", "--prime", "3", "--depth", "100",
                           "--cap", "158"],
    "tower_a_exact_at": ["tower", "run", "--family", "A", "--prime", "3", "--depth", "100",
                         "--cap", "159"],
    "tower_b_default": ["tower", "run", "--family", "B", "--prime", "3", "--depth", "6310"],
    "tower_b_over": ["tower", "run", "--family", "B", "--prime", "3", "--depth", "10",
                     "--cap", "15"],
    "tower_b_at": ["tower", "run", "--family", "B", "--prime", "3", "--depth", "10",
                   "--cap", "16"],
    "tower_c_default": ["tower", "run", "--family", "C", "--genus", "2", "--divisors", "0",
                        "--depth", "100001"],
    "tower_c_lifted": ["tower", "run", "--family", "C", "--genus", "2", "--divisors", "0",
                       "--depth", "100001", "--cap", "100001"],
    "tower_c_over": ["tower", "run", "--family", "C", "--genus", "2", "--divisors", "0",
                     "--depth", "11", "--cap", "10"],
    "tower_c_at": ["tower", "run", "--family", "C", "--genus", "2", "--divisors", "0",
                   "--depth", "10", "--cap", "10"],
    "tower_c_emit_spec": ["tower", "run", "--family", "C", "--genus", "2", "--divisors", "1",
                          "--depth", "2", "--emit-spec", os.devnull],
    "spec_default": WIDE_SPEC,
    "spec_lifted": [*WIDE_SPEC, "--cap", "10010"],
    "spec_over": [*WIDE_SPEC, "--cap", "10009"],
    "spec_explicit_over": ["tower", "analyze", "--spec", str(EXPLICIT_SPEC), "--cap", "11"],
    "spec_explicit_at": ["tower", "analyze", "--spec", str(EXPLICIT_SPEC), "--cap", "12"],
    "formula_default": [*ORDERS, "SL", "--m", "633", "--q", "2"],
    "formula_lifted": [*ORDERS, "UNITRIANGULAR_U", "--m", "633", "--q", "2",
                       "--cap", "200029"],
    "formula_over": [*ORDERS, "SL", "--m", "3", "--q", "2", "--cap", "3"],
    "formula_at": [*ORDERS, "SL", "--m", "3", "--q", "2", "--cap", "4"],
    "formula_default_unprintable": [*ORDERS, "SL", "--m", HUGE, "--q", "3"],
    "brute_default": [*ORDERS, "U", "--m", "3", "--q", "3", "--method", "brute"],
    "brute_default_unprintable": [*ORDERS, "SL", "--m", HUGE, "--q", "3", "--method", "brute"],
    "brute_lifted": [*ORDERS, "UNITRIANGULAR_U", "--m", "3", "--q", "3", "--method", "brute",
                     "--cap", "387420489"],
    "brute_over": [*ORDERS, "SL", "--m", "3", "--q", "2", "--method", "brute",
                   "--cap", "511"],
    "brute_at": [*ORDERS, "SL", "--m", "3", "--q", "2", "--method", "brute", "--cap", "512"],
    "both_over_formula": [*ORDERS, "SL", "--m", "3", "--q", "2", "--method", "both",
                          "--cap", "3"],
    "both_over_brute": [*ORDERS, "SL", "--m", "3", "--q", "2", "--method", "both",
                        "--cap", "511"],
    "sl2_zn_brute_over": [*ORDERS, "SL2_ZN", "--m", "2", "--q", "100", "--method", "brute",
                          "--cap", "99999999"],
    "field_too_large": [*ORDERS, "SL", "--m", "2", "--q", "2048", "--method", "brute",
                        "--cap", "100000000000000"],
    "trial_division": [*ORDERS, "SL2_ZN", "--m", "2", "--q", str(2**61 - 1)],
    "exponents_default": ["congruence", "exponents", *PRIMES],
    "exponents_lifted": ["congruence", "exponents", *PRIMES, "--cap", "1000050"],
    "exponents_over": ["congruence", "exponents", *PRIMES, "--cap", "1000049"],
    "dtower_default": ["congruence", "dtower", *PRIMES],
    "dtower_lifted": ["congruence", "dtower", *PRIMES, "--cap", "1000050"],
    "out_empty": ["dm", "check", "--tuple", "2/6,2/6,3/6,4/6,1/6", "--out", ""],
    "emit_spec_empty": ["tower", "run", "--family", "A", "--prime", "3", "--depth", "2",
                        "--emit-spec", ""],
}


def outcome(argv) -> dict:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return {"exit": code, "stderr": err.getvalue()}


def stdout_of(argv) -> bytes:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name,fmt", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_golden_stdout(name, fmt):
    argv, _ = EXAMPLES[name]
    assert stdout_of([*argv, "--format", fmt]) == (GOLDEN / f"{name}.{fmt}").read_bytes()


def test_golden_stdout_in_one_process(tmp_path):
    """Every example twice in one process, forwards and then backwards, each
    after a run and a failed parse that set flags the examples leave at
    their defaults: whatever one call left in the shared parser would
    show in the next output."""
    out = str(tmp_path / "out")
    ran = ["dm", "check", "--tuple", "1/2,1/2,1/2,1/2", "--cap", "1", "--out", out]
    failed = ["tower", "run", "--family", "C", "--genus", "3", "--divisors", "0,1",
              "--cap", "1", "--out", out, "--depth", "x"]
    for name, fmt in CASES + CASES[::-1]:
        with redirect_stderr(io.StringIO()):
            assert (main(ran), main(failed)) == (0, 2)
        argv, _ = EXAMPLES[name]
        assert stdout_of([*argv, "--format", fmt]) == (GOLDEN / f"{name}.{fmt}").read_bytes()


def test_refusal_records():
    golden = json.loads((GOLDEN / "refusals.json").read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(REFUSALS)
    for name, argv in REFUSALS.items():
        assert outcome(argv) == golden[name], name


def test_emit_spec_round_trip(tmp_path):
    spec, report = tmp_path / "spec.json", tmp_path / "run.json"
    assert stdout_of([*EMIT_ARGV, "--emit-spec", str(spec), "--out", str(report)]) == b""
    assert spec.read_bytes() == EMITTED_SPEC.read_bytes()
    assert report.read_bytes() == (GOLDEN / "tower_analyze.json").read_bytes()


def record() -> None:
    main([*EMIT_ARGV, "--emit-spec", str(EMITTED_SPEC), "--out", "/dev/null"])
    for name, fmt in CASES:
        argv, _ = EXAMPLES[name]
        (GOLDEN / f"{name}.{fmt}").write_bytes(stdout_of([*argv, "--format", fmt]))
    records = {name: outcome(argv) for name, argv in REFUSALS.items()}
    (GOLDEN / "refusals.json").write_text(dumps_canonical(records), encoding="utf-8")


if __name__ == "__main__":
    record()
