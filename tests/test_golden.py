"""Golden outputs: the stdout of every README CLI example, byte for byte.

The files under `tests/golden/` pin the exact output of each example in
every format it supports (csv is not defined for the `dm check`,
`contract` and `find-contraction` reports), plus an explicit-base spec
whose deck groups have rank 2 and 3, so non-cyclic cokernels are
covered.  Regenerate them only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from cuspgrowth.cli import main

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


if __name__ == "__main__":
    record()
