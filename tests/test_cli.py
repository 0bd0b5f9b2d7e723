import csv
import io
import json
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cuspgrowth import HIRZEBRUCH, ValidationError, c_tower_report, cli, counts, sl_order
from cuspgrowth.cli import _any_int_digits, _render_csv, _render_table, main
from cuspgrowth.serialize import dumps_canonical, tower_report_to_json, tower_spec_from_json
from cuspgrowth.towers import TowerReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validation_message(code, err):
    """The message of the single JSON error record of an exit-2 run."""
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"]["type"] == "validation"
    return record["error"]["message"]


def resource_record(code, out, err):
    """The single JSON error record of an exit-3 run."""
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"]["type"] == "resource"
    return record["error"]


class TestDmCommands:
    def test_check_int_tuple(self, capsys):
        code, out, err = run_cli(
            capsys, "dm", "check", "--tuple", "2/6,2/6,3/6,4/6,1/6"
        )
        assert code == 0
        assert "verdict: INT" in out
        code, out, _ = run_cli(capsys, "dm", "check", "--tuple", "2/7,2/7,3/7,3/7,4/7")
        assert code == 0
        assert "verdict: FAIL\nfailing pair (0,1): value 7/3\n" in out

    def test_check_half_int_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "dm", "check", "--tuple", "2/6,2/6,3/6,3/6,1/6,1/6",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "HALF_INT"
        assert doc["half_integral_witnesses"] == [{"i": 4, "j": 5, "value": "3/2"}]

    def test_check_invalid_tuple_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "dm", "check", "--tuple", "1/2,1/2,1/2,1/4")
        assert code == 2
        record = json.loads(err)
        assert record["error"]["type"] == "validation"
        assert "sum" in record["error"]["message"]

    def test_contract(self, capsys):
        code, out, _ = run_cli(
            capsys, "dm", "contract",
            "--tuple", "2/6,2/6,3/6,4/6,1/6", "--blocks", "0,1|2|3|4",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == ["1/6", "1/2", "2/3", "2/3"]

    def test_find_contraction(self, capsys):
        code, out, _ = run_cli(
            capsys, "dm", "find-contraction",
            "--tuple", "2/6,2/6,3/6,4/6,1/6", "--target", "1/6,3/6,4/6,4/6",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] is True
        assert doc["blocks"] == [[0, 1], [2], [3], [4]]

    def test_find_contraction_none(self, capsys):
        code, out, _ = run_cli(
            capsys, "dm", "find-contraction",
            "--tuple", "2/6,2/6,3/6,4/6,1/6", "--target", "1/2,1/2,1/2,1/2",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["found"] is False

    def test_find_contraction_cap_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys, "dm", "find-contraction",
            "--tuple", ",".join(["1/6"] * 12), "--target", "1/2,1/2,1/2,1/2",
            "--cap", "5",
        )
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"]["type"] == "resource"
        assert record["error"]["space"] == 6
        assert record["error"]["cap"] == 5

    def test_enumerate_cap_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys, "dm", "enumerate", "--length", "5", "--max-denominator", "6",
            "--cap", "10",
        )
        assert code == 3
        record = json.loads(err)
        assert record["error"]["type"] == "resource"
        assert record["error"]["space"] == 126

    def test_enumerate_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "dm", "enumerate", "--length", "4", "--max-denominator", "4",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "weights,verdict"

    @pytest.mark.parametrize("weight", ["1e-10000", "1e-1000000000", "0.5", "1/2/3", "½"])
    def test_only_integers_and_ratios_parse(self, capsys, weight):
        code, out, err = run_cli(capsys, "dm", "check", "--tuple", f"{weight},1/2,1/2,1/2")
        assert out == ""
        assert validation_message(code, err) == f"cannot parse exact rational from {weight!r}"

    def test_csv_unsupported_for_check(self, capsys):
        code, _, err = run_cli(
            capsys, "dm", "check", "--tuple", "2/6,2/6,3/6,4/6,1/6",
            "--format", "csv",
        )
        assert code == 2
        assert "csv" in json.loads(err)["error"]["message"]


class TestTowerCommands:
    def test_a_tower_table_cusp_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "tower", "run", "--family", "A", "--prime", "3", "--depth", "4"
        )
        assert code == 0
        lines = out.splitlines()
        total_col = lines[0].split().index("total_cusps")
        values = [int(line.split()[total_col]) for line in lines[2:]]
        assert values == [6, 12, 30, 84]

    def test_huge_prime_argument_exits_2(self, capsys):
        big = str(10**400 + 1)  # divisible by 17
        code, out, err = run_cli(capsys, "tower", "run", "--family", "A", "--prime", big,
                                 "--depth", "1")
        assert out == ""
        assert validation_message(code, err) == f"{big} is not prime"

    def test_b_tower_even_prime_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "tower", "run", "--family", "B", "--prime", "2", "--depth", "1"
        )
        assert code == 2
        assert "odd prime" in json.loads(err)["error"]["message"]

    def test_c_tower(self, capsys):
        code, out, _ = run_cli(
            capsys, "tower", "run", "--family", "C", "--genus", "2",
            "--divisors", "0", "--depth", "3", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [lv["total_cusps"] for lv in doc["levels"]] == [1, 2, 3]
        assert [lv["b1_surface"] for lv in doc["levels"]] == [4, 6, 8]

    def test_c_tower_json_matches_the_reference(self, capsys):
        rng = random.Random(7)
        for genus in range(2, 6):
            for depth in (1, 2, 37, 400):
                divisors = [rng.randrange(13) for _ in range(rng.randint(1, 5))]
                code, out, err = run_cli(
                    capsys, "tower", "run", "--family", "C", "--genus", str(genus),
                    "--divisors", ",".join(map(str, divisors)), "--depth", str(depth),
                    "--format", "json",
                )
                assert (code, err) == (0, "")
                levels = c_tower_report(genus, divisors, depth)
                assert out == dumps_canonical(oracles.c_tower_report_json(levels)), (
                    genus, divisors, depth)

    def test_spec_round_trip_is_byte_identical(self, tmp_path, capsys, monkeypatch):
        spec_path = tmp_path / "spec.json"
        run_path = tmp_path / "run.json"
        analyze_path = tmp_path / "analyze.json"
        code, _, _ = run_cli(
            capsys, "tower", "run", "--family", "B", "--prime", "5", "--depth", "3",
            "--format", "json", "--emit-spec", str(spec_path), "--out", str(run_path),
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "tower", "analyze", "--spec", str(spec_path),
            "--format", "json", "--out", str(analyze_path),
        )
        assert code == 0
        assert run_path.read_bytes() == analyze_path.read_bytes()
        monkeypatch.setattr(sys, "stdin", io.StringIO(spec_path.read_text()))
        code, out, _ = run_cli(capsys, "tower", "analyze", "--spec", "-", "--format", "json")
        assert code == 0
        assert out.encode() == run_path.read_bytes()

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    @pytest.mark.parametrize("family,p,depth", [
        ("A", 2, 1), ("A", 3, 7), ("A", 11, 40), ("B", 3, 2), ("B", 7, 25), ("B", 5, 200)])
    def test_run_writes_what_analyze_writes_of_its_spec(self, tmp_path, capsys, family, p,
                                                         depth, fmt):
        spec_path = tmp_path / "spec.json"
        code, run_out, err = run_cli(
            capsys, "tower", "run", "--family", family, "--prime", str(p),
            "--depth", str(depth), "--format", fmt, "--emit-spec", str(spec_path))
        assert (code, err) == (0, "")
        code, analyze_out, err = run_cli(capsys, "tower", "analyze", "--spec", str(spec_path),
                                         "--format", fmt)
        assert (code, err) == (0, "")
        assert analyze_out == run_out
        code, plain_out, err = run_cli(capsys, "tower", "run", "--family", family,
                                       "--prime", str(p), "--depth", str(depth),
                                       "--format", fmt)
        assert (code, plain_out, err) == (0, run_out, "")

    @pytest.mark.parametrize("args", [
        ("A", "4", "3"), ("A", "1", "3"), ("B", "0", "3"), ("A", "3", "0"), ("B", "5", "-7"),
        ("B", "2", "3"), ("B", "2", "0"), ("A", "3", "100", "--cap", "158"),
        ("B", "3", "10", "--cap", "15"), ("A", "5", str(10**15)), ("B", "4", str(10**15)),
    ])
    def test_refusals_do_not_depend_on_emit_spec(self, tmp_path, capsys, args):
        family, p, depth, *cap = args
        argv = ["tower", "run", "--family", family, "--prime", p, "--depth", depth, *cap]
        spec_path = tmp_path / "spec.json"
        plain = run_cli(capsys, *argv)
        assert plain[0] in (2, 3) and plain[1] == ""
        assert run_cli(capsys, *argv, "--emit-spec", str(spec_path)) == plain
        assert not spec_path.exists()

    @pytest.mark.parametrize("extra", [
        ["--genus", "2", "--divisors", "1"], ["--genus", "1", "--divisors", "-1"], [],
        ["--genus", "2", "--divisors", "0", "--cap", "1"]])
    def test_c_refuses_emit_spec_before_any_work(self, tmp_path, capsys, extra):
        spec_path = tmp_path / "spec.json"
        code, out, err = run_cli(capsys, "tower", "run", "--family", "C", "--depth", "2",
                                 *extra, "--emit-spec", str(spec_path))
        assert validation_message(code, err) == "--emit-spec is defined for families A and B only"
        assert out == ""
        assert not spec_path.exists()

    def test_analyze_custom_spec_with_p2_b_shape(self, tmp_path, capsys):
        # The homomorphism the B-tower builder refuses (p = 2) can still be
        # analyzed from an explicit spec; it shows the fifth cusp.
        spec = {
            "base": "hirzebruch",
            "levels": [{"invariant_factors": ["2"], "images": [["1", "1", "1", "1"]]}],
        }
        path = tmp_path / "even.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(
            capsys, "tower", "analyze", "--spec", str(path), "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["levels"][0]["total_cusps"] == 5

    def test_analyze_malformed_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "tower", "analyze", "--spec", str(path))
        assert code == 2
        assert "malformed" in json.loads(err)["error"]["message"]

    def test_missing_spec_file(self, capsys):
        code, _, err = run_cli(capsys, "tower", "analyze", "--spec", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("spec, path", [
        ({"base": {"rank": 2, "cusps": [{"sublattice": [["1"], ["0"]]}]}},
         "base.cusps[0].name"),
        ({"base": {"rank": 2, "cusps": 5}}, "base.cusps"),
        ({"base": "hirzebruch", "levels": 5}, "levels"),
        ({"base": {"rank": -1}}, "base.rank"),
        ({"base": {"rank": 1, "fibrations": [{"name": None}]}}, "base.fibrations[0].name"),
    ], ids=["cusp-without-name", "cusps-not-array", "levels-not-array", "negative-rank",
            "name-not-string"])
    def test_malformed_spec_shape_exits_2(self, tmp_path, capsys, spec, path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "tower", "analyze", "--spec", str(spec_path))
        assert out == ""
        assert validation_message(code, err).startswith(path + ":")

    @pytest.mark.parametrize("spec, path", [
        ({"base": {"rank": list(range(200_000))}}, "base.rank"),
        ({"base": "hirzebruch",
          "levels": [{"invariant_factors": ["x" * 10**6], "images": []}]},
         "levels[0].invariant_factors"),
        ({"base": {"rank": "9" * 5000}}, "base.rank"),
    ], ids=["long-list", "long-non-digit-string", "5000-digit-string"])
    def test_error_record_stays_small_for_a_large_value(self, tmp_path, capsys, spec, path):
        """A value that is not a string is named by its type, and a string
        by a short prefix and its length, so the record is not as large as
        the spec."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "tower", "analyze", "--spec", str(spec_path))
        assert out == ""
        assert validation_message(code, err).startswith(path + ":")
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize("base, message", [
        ({"rank": 1, "cusps": [{"name": None, "sublattice": [["1", "2"]]}]},
         "cusp {}: sublattice generators are linearly dependent"),
        ({"rank": 2, "cusps": [{"name": None, "sublattice": [["1"]]}]},
         "cusp {} sublattice has 1 rows, expected 2"),
        ({"rank": 1, "fibrations": [{"name": None, "kernel_sublattice": [["1"]],
                                     "target_rank": 0, "fiber_genus": 1,
                                     "fiber_punctures": 0}]},
         "fibration {}: target rank must be >= 1"),
        ({"rank": 2, "fibrations": [{"name": None, "kernel_sublattice": [["1"]],
                                     "target_rank": 1, "fiber_genus": 1,
                                     "fiber_punctures": 0}]},
         "fibration {} kernel has 1 rows, expected 2"),
    ], ids=["cusp-dependent", "cusp-rows", "fibration-rank", "fibration-rows"])
    @pytest.mark.parametrize("length", [32, 100_000])
    def test_long_name_is_quoted_by_prefix_and_length(self, tmp_path, capsys, base,
                                                      message, length):
        name = "n" * length
        for entry in base.get("cusps", []) + base.get("fibrations", []):
            entry["name"] = name
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"base": base, "levels": []}))
        code, out, err = run_cli(capsys, "tower", "analyze", "--spec", str(path))
        assert out == ""
        quoted = repr(name) if length <= 32 else f"{name[:32]!r}... ({length} characters)"
        assert validation_message(code, err) == message.format(quoted)
        assert len(err.encode()) < 1024

    def test_names_that_need_quoting(self, tmp_path, capsys):
        """Cusp and fibration names holding a comma, a quote, CR and LF come
        out in each format as the reference writers put them: JSON from
        `json.dumps`, CSV from `csv.writer`, the table from `str.ljust`."""
        spec = json.loads(Path(SPEC).read_text())
        names = iter(['a,b', 'say "hi"', "cr\rx", "lf\ny", 'f,"0"\r\n', "F1"])
        for entry in spec["base"]["cusps"] + spec["base"]["fibrations"]:
            entry["name"] = next(names)
        spec["levels"] += [  # cyclic levels, one killing F0 and one disconnected
            {"invariant_factors": ["7"], "images": [["1", "2", "3", "0", "0"]]},
            {"invariant_factors": ["8"], "images": [["2", "4", "0", "6", "0"]]},
            {"invariant_factors": ["9"], "images": [["1", "1", "1", "1", "1"]]},
        ]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        parsed = tower_spec_from_json(spec)
        report = TowerReport(tuple(oracles.analyze_level(parsed.base, rho)
                                   for rho in parsed.levels))
        expected = {"json": dumps_canonical(tower_report_to_json(report)),
                    "csv": oracles.csv_text(*oracles.tower_table(report)),
                    "table": oracles.render_table(*oracles.tower_table(report))}
        assert 'f,"0"' in expected["table"] and '"f,""0""' in expected["csv"]
        for fmt, text in expected.items():
            code, out, err = run_cli(capsys, "tower", "analyze", "--spec", str(path),
                                     "--format", fmt)
            assert (code, out, err) == (0, text, ""), fmt

    def analyze_levels(self, tmp_path, capsys, levels):
        """Exit code, stdout and stderr of `tower analyze --format json`
        on these levels over the Hirzebruch base."""
        path = tmp_path / "levels.json"
        path.write_text(json.dumps({"base": "hirzebruch", "levels": levels}))
        return run_cli(capsys, "tower", "analyze", "--spec", str(path), "--format", "json")

    def test_level_is_read_as_written(self, tmp_path, capsys):
        # Row i is read modulo factor i, so Z/4 (+) Z/2 is no chain and is
        # refused, while the same map written as Z/2 (+) Z/4 is analyzed.
        rows = [["1", "0", "0", "0"], ["2", "0", "1", "0"]]
        code, out, err = self.analyze_levels(
            tmp_path, capsys, [{"invariant_factors": ["4", "2"], "images": rows[::-1]}])
        assert out == ""
        assert validation_message(code, err).startswith("levels[0].invariant_factors: ")
        code, out, err = self.analyze_levels(
            tmp_path, capsys, [{"invariant_factors": ["2", "4"], "images": rows}])
        assert code == 0 and err == ""
        level = json.loads(out)["levels"][0]
        assert level["cusp_multiplicities"] == {"C0": 4, "C1": 2, "Cinf": 2, "Czeta": 1}

    def test_coprime_factors_exit_2(self, tmp_path, capsys):
        code, out, err = self.analyze_levels(tmp_path, capsys, [
            {"invariant_factors": ["6", "4"],
             "images": [["1", "1", "0", "0"], ["3", "3", "1", "1"]]}])
        assert out == ""
        assert validation_message(code, err).startswith(
            "levels[0].invariant_factors: invariant factors must form a divisor chain")

    def test_one_row_per_listed_factor(self, tmp_path, capsys):
        code, out, err = self.analyze_levels(tmp_path, capsys, [
            {"invariant_factors": ["2", "4"], "images": [["1", "0", "0", "0"]]}])
        assert out == ""
        assert validation_message(code, err).startswith("levels[0].images: ")

    def test_unit_factor_is_dropped_with_its_row(self, tmp_path, capsys):
        row = ["2", "0", "1", "0"]
        code, out, err = self.analyze_levels(tmp_path, capsys, [
            {"invariant_factors": ["1", "4"], "images": [["1", "1", "1", "1"], row]},
            {"invariant_factors": ["4"], "images": [row]}])
        assert code == 0 and err == ""
        written, cyclic = json.loads(out)["levels"]
        assert written == cyclic and written["degree"] == 4

    def test_out_into_missing_directory_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "run.json"
        code, _, err = run_cli(
            capsys, "tower", "run", "--family", "A", "--prime", "3", "--depth", "2",
            "--out", str(target),
        )
        assert "cannot write" in validation_message(code, err)

    def test_emit_spec_into_missing_directory_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "spec.json"
        code, out, err = run_cli(
            capsys, "tower", "run", "--family", "A", "--prime", "3", "--depth", "2",
            "--emit-spec", str(target),
        )
        assert out == ""
        assert "cannot write" in validation_message(code, err)


def decimal(n):
    """str(n) past the interpreter's int-to-decimal digit limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


class TestTowerSizeGuards:
    def test_deep_a_tower_exits_3_before_building(self, capsys):
        code, out, err = run_cli(capsys, "tower", "run", "--family", "A", "--prime", "3",
                                 "--depth", "20000", "--format", "csv")
        record = resource_record(code, out, err)
        assert (record["space"], record["cap"]) == (20001, 10_000)
        assert "at least 20001 bits" in record["message"]

    def test_deep_c_tower_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "tower", "run", "--family", "C", "--genus", "2",
                                 "--divisors", "0", "--depth", "2000000")
        record = resource_record(code, out, err)
        assert (record["space"], record["cap"]) == (2_000_000, 100_000)

    def test_cap_overrides_the_family_guards(self, capsys):
        argv = ["tower", "run", "--family", "A", "--prime", "3", "--depth", "4"]
        code, out, err = run_cli(capsys, *argv, "--cap", "6")  # 3^4 = 81 has 7 bits
        assert resource_record(code, out, err)["space"] == 7
        code, out, err = run_cli(capsys, *argv, "--cap", "7")
        assert code == 0 and err == ""
        argv = ["tower", "run", "--family", "C", "--genus", "2", "--divisors", "0",
                "--depth", "5"]
        assert resource_record(*run_cli(capsys, *argv, "--cap", "4"))["space"] == 5
        assert run_cli(capsys, *argv, "--cap", "5")[0] == 0

    def test_raised_cap_renders_orders_past_4300_digits(self, tmp_path, capsys):
        p, depth = 999983, 722
        top = decimal(p**depth)
        assert len(top) > 4300
        spec_path = tmp_path / "spec.json"
        argv = ["tower", "run", "--family", "A", "--prime", str(p), "--depth", str(depth),
                "--format", "csv", "--emit-spec", str(spec_path)]
        # 999983 has 20 bits, so the refusal reports the bound 722 * 19 + 1.
        assert resource_record(*run_cli(capsys, *argv))["space"] == 13_719
        assert resource_record(*run_cli(capsys, *argv, "--cap", "14390"))["space"] == 14_391
        code, out, err = run_cli(capsys, *argv, "--cap", "14391")
        assert code == 0 and err == ""
        assert out.splitlines()[-1].split(",")[:3] == [str(depth), top, "True"]
        assert top in spec_path.read_text()

    def test_analyze_huge_deck_group(self, tmp_path, capsys):
        a = 10**2499 + 1  # the deck group is (Z/a)^2
        spec = {"base": "hirzebruch",
                "levels": [{"invariant_factors": [str(a), str(a)],
                            "images": [["1", "0", "0", "0"], ["0", "0", "1", "0"]]}]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(spec))
        argv = ["tower", "analyze", "--spec", str(path), "--format", "json"]
        record = resource_record(*run_cli(capsys, *argv))
        assert (record["space"], record["cap"]) == ((a * a).bit_length(), 10_000)
        assert record["message"].startswith("levels[0]:")
        code, out, err = run_cli(capsys, *argv, "--cap", "20000")
        assert code == 0 and err == ""
        assert f'"degree": {decimal(a * a)},' in out

    def test_rank400_spec_is_analyzed(self, capsys):
        code, out, err = run_cli(capsys, "tower", "analyze", "--spec", RANK400_SPEC,
                                 "--format", "json")
        assert code == 0 and err == ""
        (level,) = json.loads(out)["levels"]
        assert level["degree"] == 2**400
        images = [[int(x) for x in row]
                  for row in json.loads(Path(RANK400_SPEC).read_text())["levels"][0]["images"]]
        for cusp in HIRZEBRUCH.cusps:
            # Each of the cusp's two image columns as a bit mask of its 400
            # coordinates mod 2; two distinct nonzero masks are independent.
            masks = {sum((sum(a * s for a, s in zip(row, col)) % 2) << i
                         for i, row in enumerate(images))
                     for col in cusp.sublattice.columns()}
            f2_rank = len(masks - {0})
            assert level["cusp_multiplicities"][cusp.name] == 2**400 // 2**f2_rank

    @pytest.mark.parametrize("text", ["[" + "7" * 5000 + "]", b"\xff\xfe{"],
                             ids=["overlong-int", "not-utf8"])
    def test_unreadable_spec_json_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "spec.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        code, out, err = run_cli(capsys, "tower", "analyze", "--spec", str(path))
        assert out == ""
        assert validation_message(code, err).startswith("malformed tower spec JSON")

    # 100,000 levels pass the JSON scanner's C recursion limit on every
    # Python from 3.10 on, not only the Python frame limit of 3.10 and 3.11.
    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"base": {"rank": 1, "cusps": ' + "[" * 100_000 + "]" * 100_000
        + '}, "levels": []}',
    ], ids=["top-level", "inside-base"])
    @pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
    def test_deeply_nested_spec_json_exits_2(self, tmp_path, capsys, monkeypatch, text,
                                             from_stdin):
        if from_stdin:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            path = "-"
        else:
            path = tmp_path / "spec.json"
            path.write_text(text)
        code, out, err = run_cli(capsys, "tower", "analyze", "--spec", str(path))
        assert out == ""
        assert validation_message(code, err).startswith("malformed tower spec JSON")


class TestCongruenceCommands:
    def test_orders_both_methods_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "congruence", "orders", "--family", "SU", "--m", "3", "--q", "2",
            "--method", "both", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["agree"] is True
        assert {r["order"] for r in doc["results"]} == {216}

    def test_orders_case_insensitive_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "congruence", "orders", "--family", "sl2_zn", "--m", "2",
            "--q", "12", "--format", "json",
        )
        assert code == 0
        # 12^3 * (1 - 1/4) * (1 - 1/9) = 1152
        assert json.loads(out)["results"][0]["order"] == 1152

    def test_order_past_4300_digits_is_printed(self, capsys):
        code, out, err = run_cli(capsys, "congruence", "orders", "--family", "SL",
                                 "--m", "200", "--q", "2", "--format", "csv")
        assert code == 0 and err == ""
        order = out.splitlines()[1].split(",")[-1]
        assert len(order) > 4300 and order == decimal(sl_order(200, 2).order)

    def test_orders_unknown_family_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "congruence", "orders", "--family", "XX", "--m", "2", "--q", "3",
        )
        assert "unknown family 'XX'" in validation_message(code, err)

    def test_orders_brute_cap_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "congruence", "orders", "--family", "U", "--m", "3", "--q", "3",
            "--method", "brute",
        )
        assert code == 3

    @pytest.mark.parametrize("family,m,q", [("U", "100", "2"),
                                            ("SL2_ZN", "2", str(10**1100))])
    def test_brute_space_past_printable_exits_3_at_once(self, capsys, family, m, q):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "congruence", "orders", "--family", family,
                                 "--m", m, "--q", q, "--method", "brute")
        assert time.perf_counter() - start < 1.0
        record = resource_record(code, out, err)
        assert (record["space"], record["cap"]) == (1 << 29, 1 << 28)

    def test_formula_order_past_the_bit_cap_exits_3_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "congruence", "orders", "--family", "SU",
                                 "--m", "3000", "--q", "2", "--format", "json")
        assert time.perf_counter() - start < 1.0
        record = resource_record(code, out, err)
        # The unitriangular factor 2^(3000 * 2999 / 2) bounds the bits.
        assert (record["space"], record["cap"]) == (
            3000 * 2999 // 2 + 1, counts.DEFAULT_ORDER_BITS_CAP)

    def test_cap_admits_a_formula_order_the_default_refuses(self, capsys):
        bits = 633 * 632 // 2 + 1  # of 2^(633 * 632 / 2), exactly the bound
        argv = ["congruence", "orders", "--family", "UNITRIANGULAR_U",
                "--m", "633", "--q", "2", "--format", "csv"]
        assert resource_record(*run_cli(capsys, *argv))["space"] == bits
        code, out, err = run_cli(capsys, *argv, "--cap", str(bits))
        assert code == 0 and err == ""
        assert out.splitlines()[1].split(",")[-1] == decimal(2 ** (bits - 1))

    def test_cap_bounds_formula_and_brute_force_alike(self, capsys):
        # SL_3(F_2): formula bound 4 bits, raw brute-force space 2^9.
        argv = ["congruence", "orders", "--family", "SL", "--m", "3", "--q", "2",
                "--method", "both", "--cap"]
        assert run_cli(capsys, *argv, "512")[0] == 0
        assert resource_record(*run_cli(capsys, *argv, "3"))["space"] == 4
        assert resource_record(*run_cli(capsys, *argv, "511"))["space"] == 512

    def test_orders_unfactorable_q_exits_3(self, capsys):
        # 2^89 - 1 is prime, above the strong-probable-prime bounds and
        # without a factor below the trial bound.
        code, out, err = run_cli(
            capsys, "congruence", "orders", "--family", "SL", "--m", "2",
            "--q", str(2**89 - 1),
        )
        assert resource_record(code, out, err)["cap"] == 1 << 20

    def test_orders_of_a_prime_past_the_trial_bound(self, capsys):
        q = 2**61 - 1
        code, out, err = run_cli(capsys, "congruence", "orders", "--family", "SL",
                                 "--m", "2", "--q", str(q), "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["results"][0]["order"] == q * (q * q - 1)

    @pytest.mark.parametrize("sub", ["exponents", "dtower"])
    def test_prime_max_above_default_cap_exits_3(self, capsys, sub):
        code, out, err = run_cli(
            capsys, "congruence", sub, "--n", "2",
            "--prime-min", "5", "--prime-max", "1000001",
        )
        record = resource_record(code, out, err)
        assert (record["space"], record["cap"]) == (1_000_001, 1_000_000)

    @pytest.mark.parametrize("sub", ["exponents", "dtower"])
    def test_cap_overrides_prime_max_guard(self, capsys, sub):
        argv = ["congruence", sub, "--n", "2", "--prime-min", "1000000",
                "--prime-max", "1000100", "--format", "json"]
        code, out, err = run_cli(capsys, *argv, "--cap", "1000100")
        assert code == 0
        assert err == ""
        assert json.loads(out)
        code, out, err = run_cli(capsys, *argv, "--cap", "1000099")
        assert resource_record(code, out, err)["cap"] == 1_000_099

    def test_exponents_n2(self, capsys):
        code, out, _ = run_cli(
            capsys, "congruence", "exponents", "--n", "2", "--genus", "2",
            "--prime-min", "5", "--prime-max", "199", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        checks = {c["name"]: c for c in doc["checks"]}
        assert checks["su3_order_vs_q"]["verdict"] == "MATCH"
        assert abs(checks["b1_vs_vol"]["slope"] - 0.375) <= 0.02
        assert abs(checks["cusps_vs_vol"]["slope"] - 0.625) <= 0.02
        assert all(c["verdict"] == "MATCH" for c in doc["checks"])

    def test_exponents_n3_flags_divergence(self, capsys):
        code, out, _ = run_cli(
            capsys, "congruence", "exponents", "--n", "3", "--genus", "2",
            "--prime-min", "5", "--prime-max", "199", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        cusp = next(c for c in doc["checks"] if c["name"] == "cusps_vs_vol")
        assert abs(cusp["slope"] - 2 / 3) <= 0.02
        assert cusp["verdict"] == "MATCH"
        assert cusp["stated_rate"] == 0.4
        assert cusp["stated_rate_verdict"] == "DIVERGES_FROM_STATED_RATE"
        assert "note" in cusp

    def test_dtower_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "congruence", "dtower", "--n", "2", "--genus", "2",
            "--prime-min", "5", "--prime-max", "13", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "q,vol,b1,cusps"
        assert len(lines) == 1 + 4  # header + primes 5, 7, 11, 13

    def test_dtower_json_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "congruence", "dtower", "--n", "2", "--genus", "2",
            "--prime-min", "5", "--prime-max", "13", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [d["q"] for d in doc["series"]] == [5, 7, 11, 13]

    def test_dtower_empty_prime_range_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "congruence", "dtower", "--n", "2",
            "--prime-min", "50", "--prime-max", "5",
        )
        assert out == ""
        assert validation_message(code, err) == "no primes in [50, 5]"

    def test_exponents_empty_prime_range_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "congruence", "exponents", "--n", "2",
            "--prime-min", "50", "--prime-max", "5",
        )
        assert out == ""
        assert validation_message(code, err) == "need at least 2 primes in [50, 5], got 0"


class TestSubprocess:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cuspgrowth", "dm", "check",
             "--tuple", "2/6,2/6,3/6,4/6,1/6"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "INT" in proc.stdout

    def test_unknown_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cuspgrowth", "frobnicate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["dm", "enumerate", "--length", "20000", "--max-denominator", "20000"],
        ["congruence", "orders", "--family", "SL", "--m", str(10**4299), "--q", "3"],
        ["tower", "run", "--family", "A", "--prime", str(10**4299 + 1),
         "--depth", str(10**4299 + 1)],
    ], ids=["enumerate-20000", "formula-m-4300-digits", "tower-a-4300-digits"])
    def test_unprintable_refusal_ends_in_one_record(self, argv):
        """Refusals whose counts have more than 4,300 digits report a count
        that prints, as one JSON line."""
        proc = subprocess.run([sys.executable, "-m", "cuspgrowth", *argv],
                              capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr[-2000:]
        (line,) = proc.stderr.splitlines()
        assert json.loads(line)["error"]["type"] == "resource"

    def test_nul_in_a_name_is_written_or_refused(self, tmp_path):
        """3.11+ write a NUL in a cusp name as it is; 3.10's `csv.writer`
        cannot, and the CLI then exits 2 with one JSON line."""
        spec = json.loads(Path(SPEC).read_text())
        spec["base"]["cusps"][0]["name"] = "nul\0x"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        proc = subprocess.run([sys.executable, "-m", "cuspgrowth", "tower", "analyze",
                               "--spec", str(path), "--format", "csv"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            assert proc.stderr == "" and "nul\0x" in proc.stdout
        else:
            assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
            (line,) = proc.stderr.splitlines()
            assert json.loads(line)["error"]["message"].startswith("cannot write the row as csv")


class TestParseErrors:
    # The messages are argparse's, which words them a little differently
    # across Python versions; each test pins only a stable part.
    @pytest.mark.parametrize("argv, message", [
        (["dm", "check"], "the following arguments are required: --tuple"),
        (["dm", "check", "--tuple", "1/2", "--format", "xml"],
         "argument --format: invalid choice: 'xml'"),
        (["tower", "run", "--family", "A", "--prime", "x", "--depth", "2"],
         "argument --prime: invalid int value: 'x'"),
        (["bogus"], "invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
        (["dm"], "the following arguments are required: subcommand"),
        (["dm", "check", "--tuple", "1/2", "--bogus", "3"],
         "unrecognized arguments: --bogus 3"),
        (["congruence", "exponents", "--n", "2", "--prime-min", "5", "--prime-max"],
         "argument --prime-max: expected one argument"),
    ])
    def test_parse_error_is_one_json_record(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert out == ""
        text = validation_message(code, err)
        assert text.startswith("cuspgrowth") and message in text

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["dm", "check", "--help"],
                                      ["congruence", "orders", "-h"]])
    def test_help_exits_0_on_stdout(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 0
        assert captured.out.startswith("usage: cuspgrowth")
        assert captured.err == ""

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "0"])
    def test_bad_tolerance_exits_2(self, capsys, tolerance):
        code, out, err = run_cli(
            capsys, "congruence", "exponents", "--n", "2", "--prime-min", "5",
            "--prime-max", "50", f"--tolerance={tolerance}", "--format", "json",
        )
        assert out == ""
        assert "tolerance must be positive and finite" in validation_message(code, err)

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_nonpositive_cap_exits_2(self, capsys, cap):
        code, out, err = run_cli(capsys, "dm", "check", "--tuple", "1/2,1/2,1/2,1/2",
                                 "--cap", cap)
        assert out == ""
        assert validation_message(code, err) == "resource caps must be positive"

    @pytest.mark.parametrize("argv", [
        ["dm", "check", "--tuple", None],
        ["dm", "contract", "--tuple", "1/2,1/2,1/2,1/2", "--blocks", None],
        ["tower", "run", "--family", "C", "--genus", "2", "--depth", "3", "--divisors", None],
        ["tower", "run", "--family", None, "--prime", "3", "--depth", "3"],
        ["congruence", "orders", "--family", None, "--m", "2", "--q", "3"],
        ["tower", "run", "--family", "A", "--prime", None, "--depth", "2"],
        ["dm", "check", "--tuple", "1/2,1/2,1/2,1/2", "--format", None],
        [None],
    ], ids=["dm-check-tuple", "dm-contract-blocks", "tower-run-divisors",
            "tower-run-family", "congruence-orders-family", "tower-run-prime",
            "dm-check-format", "command"])
    def test_long_value_is_quoted_by_prefix_and_length(self, capsys, argv):
        """A value that does not parse is quoted by its first 32 characters
        and its length, so the record stays small."""
        value = "#" * 100_000
        code, out, err = run_cli(capsys, *(value if a is None else a for a in argv))
        assert out == ""
        assert f"{value[:32]!r}... (100000 characters)" in validation_message(code, err)
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize("length, quoted", [(32, repr("#" * 32)),
                                                (33, f"{'#' * 32!r}... (33 characters)")],
                             ids=["32", "33"])
    def test_value_quoted_whole_up_to_32_characters(self, capsys, length, quoted):
        code, out, err = run_cli(capsys, "tower", "run", "--family", "C", "--genus", "2",
                                 "--depth", "3", "--divisors", "#" * length)
        assert out == ""
        assert validation_message(code, err) == f"cannot parse divisors from {quoted}"

    @pytest.mark.parametrize("extras, shown", [
        (["x" * 32], "x" * 32),
        (["x" * 16, "y" * 15], f"{'x' * 16} {'y' * 15}"),
        (["x" * 16, "y" * 16], f"{'x' * 16 + ' ' + 'y' * 15!r}... (33 characters)"),
        (["u"] * 100_000, f"{'u ' * 16!r}... (199999 characters)"),
    ], ids=["32", "two-words-32", "two-words-33", "100000-words"])
    def test_unrecognized_arguments_are_quoted_past_32_characters(self, capsys, extras, shown):
        """The joined extra words are written as they are up to 32
        characters and quoted by prefix and length past that."""
        code, out, err = run_cli(capsys, "dm", "check", "--tuple", "1/2,1/2,1/2,1/2", *extras)
        assert out == ""
        assert validation_message(code, err) == f"cuspgrowth: unrecognized arguments: {shown}"
        assert len(err.encode()) < 300

    def test_parser_is_built_once_and_not_on_import(self):
        code = (
            "import cuspgrowth, cuspgrowth.cli as cli\n"
            "print(cli._build_parser.cache_info().misses)\n"
            "cli.main(['dm', 'check', '--tuple', '1/2,1/2,1/2,1/2'])\n"
            "cli.main(['bogus'])\n"
            "cli.main(['dm', 'check', '--tuple', '1/2,1/2,1/2,1/2'])\n"
            "print(cli._build_parser.cache_info().misses)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("0", "1")


#: Table and CSV cells: big ints, bools, None, floats (nan and inf too),
#: and text holding the characters that CSV quotes or a table strips.
CELLS = (st.integers(min_value=-10**600, max_value=10**600) | st.booleans() | st.none()
         | st.floats() | st.just("")
         | st.text(alphabet=st.sampled_from(',"\r\n\x00\t a1é'), max_size=6)
         | st.text(max_size=4))


class TestRenderers:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(CELLS, max_size=4), st.lists(st.lists(CELLS, max_size=4), max_size=6))
    @example(["a"], [[""], [], [None], ["x\ry"], ["1,2"], ['"'], [None, ""]])
    def test_csv_is_the_writers(self, headers, rows):
        """Rows of zero, one or more fields, every one as `csv.writer` on
        this interpreter writes it, or refused where the writer refuses it
        (3.10 refuses a NUL)."""
        try:
            expected = oracles.csv_text(headers, rows)
        except csv.Error:
            with pytest.raises(ValidationError, match="cannot write the row as csv"):
                _render_csv(headers, rows)
        else:
            assert _render_csv(headers, rows) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(
        st.lists(CELLS, min_size=n, max_size=n),
        st.lists(st.lists(CELLS, min_size=n, max_size=n), max_size=6))))
    def test_table_is_the_ljust_table(self, table):
        headers, rows = table
        assert _render_table(headers, rows) == oracles.render_table(headers, rows)


SPEC = str(Path(__file__).parent / "golden" / "explicit_spec.json")
COMMON = ["--format", "--cap"]
#: The flags of each subcommand, and heads that are partial or unknown.
#: -h/--help is left out, and so are --out and --emit-spec, which write files.
COMMAND_FLAGS = {
    ("dm", "check"): ["--tuple"],
    ("dm", "contract"): ["--tuple", "--blocks"],
    ("dm", "find-contraction"): ["--tuple", "--target"],
    ("dm", "enumerate"): ["--length", "--max-denominator"],
    ("tower", "run"): ["--family", "--prime", "--depth", "--genus", "--divisors"],
    ("tower", "analyze"): ["--spec"],
    ("congruence", "orders"): ["--family", "--m", "--q", "--method"],
    ("congruence", "exponents"): ["--n", "--genus", "--prime-min", "--prime-max",
                                  "--tolerance"],
    ("congruence", "dtower"): ["--n", "--genus", "--prime-min", "--prime-max"],
    (): [], ("dm",): [], ("tower",): [], ("bogus",): [], ("dm", "bogus"): [],
}
#: A level of deck group (Z/2)^400, whose analysis the bits cap admits.
RANK400_SPEC = str(Path(__file__).parent / "golden" / "rank400_spec.json")
#: Values for each flag, valid ones kept small so that an accepted run
#: stays cheap (brute-force SU_3(F_2) and U_3(F_2), about 2 ms each through
#: `main` with --method both, are the slowest), and
#: some at the scale of a refusal: m = 100, a 1,100-digit q, depth 10^7
#: and the rank-400 spec.
VALUES = {
    "--format": ["json", "csv", "table"],
    "--cap": ["1", "100", "100000"],
    "--tuple": ["2/6,2/6,3/6,4/6,1/6", "2/6,2/6,3/6,3/6,1/6,1/6", "1/2,1/2,1/2,1/2",
                "1/2", "0.5,0.5"],
    "--target": ["1/6,3/6,4/6,4/6", "1/2,1/2,1/2,1/2"],
    "--blocks": ["0,1|2|3|4", "0|1|2", "0,x", "|"],
    "--length": ["3", "4", "0"],
    "--max-denominator": ["3", "6", "0"],
    "--family": ["A", "B", "C", "d", "SL", "SU", "U", "SL2_ZN", "UNITRIANGULAR_U"],
    "--prime": ["2", "3", "5", "4", "0"],
    "--depth": ["1", "3", "0", "10000000"],
    "--genus": ["0", "2"],
    "--divisors": ["0", "0,2", "0,x"],
    "--spec": [SPEC, "no-such-spec.json", RANK400_SPEC],
    "--m": ["1", "2", "3", "0", "100"],
    "--q": ["2", "3", "4", "6", "1", str(10**1099)],
    "--method": ["formula", "brute", "both"],
    "--n": ["2", "3", "1"],
    "--prime-min": ["2", "5"],
    "--prime-max": ["3", "30"],
    "--tolerance": ["0.05", "1e-9", "nan", "inf", "0"],
    "--bogus": ["1"],
}
#: Values that usually succeed under each subcommand, drawn four times as
#: often as the rest of the alphabet above, which holds each of them too,
#: so that about a third of the argvs exit 0 and the success branch of
#: the contract runs often.
LIKELY = {
    ("dm", "check"): {"--tuple": VALUES["--tuple"][:3], "--format": ["json", "table"]},
    ("dm", "contract"): {"--tuple": ["2/6,2/6,3/6,4/6,1/6"], "--blocks": ["0,1|2|3|4"],
                         "--format": ["json", "table"]},
    ("dm", "find-contraction"): {"--tuple": ["2/6,2/6,3/6,3/6,1/6,1/6"],
                                 "--target": ["1/6,3/6,4/6,4/6"],
                                 "--format": ["json", "table"]},
    ("dm", "enumerate"): {"--length": ["4"], "--max-denominator": ["3", "6"]},
    ("tower", "run"): {"--family": ["A", "B", "C"], "--prime": ["3", "5"],
                       "--depth": ["1", "3"], "--genus": ["2"], "--divisors": ["0", "0,2"]},
    ("tower", "analyze"): {"--spec": [SPEC]},
    ("congruence", "orders"): {"--family": ["SL", "SU", "U", "SL2_ZN", "UNITRIANGULAR_U"],
                               "--m": ["2", "3"], "--q": ["2", "3", "4"],
                               "--method": ["formula"]},
    ("congruence", "exponents"): {"--n": ["2", "3"], "--genus": ["2"],
                                  "--prime-min": ["2", "5"], "--prime-max": ["30"],
                                  "--tolerance": ["0.05"]},
    ("congruence", "dtower"): {"--n": ["2", "3"], "--genus": ["2"],
                               "--prime-min": ["2", "5"], "--prime-max": ["30"]},
}
OPTIONAL = {"--format", "--cap", "--prime", "--genus", "--divisors", "--method",
            "--tolerance"}
MALFORMED = ["", "x", "1.5", "-1", "0", "xml", "1" * 5000]
ALL_FLAGS = sorted(VALUES)


def flag_and_value(flags, values=None):
    return st.sampled_from(flags).flatmap(lambda flag: st.tuples(
        st.just(flag), st.sampled_from(VALUES[flag] if values is None else values)))


@st.composite
def argvs(draw):
    """A head, most often a whole subcommand; the flags of that subcommand
    with values of their own, weighted toward `LIKELY`, the optional ones
    left out at times and one required flag at times; then, at times,
    stray tokens, foreign flags or malformed values."""
    heads = [head for head, flags in COMMAND_FLAGS.items() for _ in range(1 + 3 * bool(flags))]
    head = draw(st.sampled_from(heads))
    argv = list(head)
    flags = COMMAND_FLAGS[head] + COMMON
    likely = {"--cap": ["100000"], **LIKELY.get(head, {})}
    dropped = draw(st.sampled_from([None] * 24 + [f for f in flags if f not in OPTIONAL]))
    for flag in flags:
        value = draw(st.sampled_from(VALUES[flag] + likely.get(flag, []) * 4
                                     + [None] * (flag in OPTIONAL)))
        if value is not None and flag != dropped:
            argv += [flag, value]
    if draw(st.sampled_from([False] * 7 + [True])):
        for group in draw(st.lists(st.one_of(
            flag_and_value(ALL_FLAGS, MALFORMED),
            flag_and_value(ALL_FLAGS),
            st.sampled_from(ALL_FLAGS + MALFORMED).map(lambda token: (token,)),
        ), min_size=1, max_size=2)):
            argv += group
    return argv


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            raise AssertionError(f"SystemExit({exc.code}) escaped for {argv}") from exc
    return code, out.getvalue(), err.getvalue()


class TestArgvContract:
    @settings(max_examples=500, deadline=None)
    @given(argvs())
    @example(["tower", "run", "--family", "C", "--divisors", "0", "--depth", "3"])
    @example(["tower", "run", "--family", "C", "--genus", "2", "--divisors", "0,x",
              "--depth", "3"])
    def test_every_argv_ends_inside_the_contract(self, argv):
        code, out, err = run_captured(argv)
        if code == 0:
            assert err == ""
            formats = [value for flag, value in zip(argv, argv[1:]) if flag == "--format"]
            if formats[-1:] == ["json"]:
                with _any_int_digits():  # orders can pass 4,300 digits
                    json.loads(out)
            return
        assert code in (2, 3), (argv, code)
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1, (argv, err)
        record = json.loads(lines[0])
        assert set(record) == {"error"}
        assert record["error"]["type"] == ("validation" if code == 2 else "resource")


#: One valid argv per leaf parser, with the common options at times.
LEAF_ARGVS = [
    ["dm", "check", "--tuple", "2/6,2/6,3/6,4/6,1/6"],
    ["dm", "contract", "--tuple", "2/6,2/6,3/6,4/6,1/6", "--blocks", "0,1|2|3|4",
     "--format", "json"],
    ["dm", "find-contraction", "--tuple", "2/6,2/6,3/6,3/6,1/6,1/6",
     "--target", "1/6,3/6,4/6,4/6", "--cap", "1000"],
    ["dm", "enumerate", "--length", "4", "--max-denominator", "6", "--format", "csv"],
    ["tower", "run", "--family", "A", "--prime", "3", "--depth", "2"],
    ["tower", "analyze", "--spec", SPEC, "--format", "json"],
    ["congruence", "orders", "--family", "SU", "--m", "3", "--q", "2", "--method", "both"],
    ["congruence", "exponents", "--n", "2", "--prime-min", "5", "--prime-max", "50"],
    ["congruence", "dtower", "--n", "3", "--prime-min", "5", "--prime-max", "50",
     "--format", "csv"],
]
#: Every head of `COMMAND_FLAGS` (whole, partial and unknown) followed by
#: -h or --help.
HELP_ARGVS = [[*head, flag] for head in COMMAND_FLAGS for flag in ("-h", "--help")]


def outcome(argv):
    """(exit code, stdout, stderr) of `main(argv)`; a SystemExit (help)
    is recorded by its code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
    return code, out.getvalue(), err.getvalue()


def tree_outcome(argv):
    """`outcome` with every argv parsed by the whole tree, under `main`'s
    own handler call, rendering and error handling."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))
        return outcome(argv)


class TestLeafParse:
    """`main` parses an argv that starts with a leaf's two words with that
    leaf alone; it must end exactly as a parse by the whole tree."""

    @settings(max_examples=300, deadline=None)
    @given(argvs())
    @example(["dm", "check", "--tuple", "1/2,1/2,1/2,1/2", "--bogus", "3"])
    @example(["dm", "check", "--tuple", "1/2,1/2,1/2,1/2", "u" * 40])
    @example(["dm", "check", "--", "--tuple", "1/2,1/2,1/2,1/2"])
    @example(["dm", "check", "--tup", "1/2,1/2,1/2,1/2", "--form=json"])
    def test_main_ends_as_the_tree_path(self, argv):
        assert outcome(argv) == tree_outcome(argv), argv

    @pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
    def test_help_is_the_trees(self, argv):
        code, out, err = outcome(argv)
        assert (code, out, err) == tree_outcome(argv)
        if "bogus" in argv:  # the tree rejects the word before it reads -h
            assert code == 2 and "invalid choice: 'bogus'" in err
        else:
            assert code == "SystemExit(0)" and out.startswith("usage: cuspgrowth") and err == ""

    @pytest.mark.parametrize("argv", LEAF_ARGVS, ids=lambda argv: " ".join(argv[:2]))
    def test_leaf_namespace_is_the_trees(self, argv):
        assert vars(cli._parse(argv)) == vars(cli._build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", LEAF_ARGVS, ids=lambda argv: " ".join(argv[:2]))
    def test_valid_argv_does_not_parse_through_the_tree(self, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("the whole tree parsed a leaf's argv")

        monkeypatch.setattr(cli._build_parser(), "parse_args", refuse)
        assert outcome(argv)[0] == 0

    def test_leaves_are_the_nine_subcommands(self):
        assert sorted(cli._build_parser().leaves) == sorted(
            head for head in COMMAND_FLAGS if len(head) == 2 and head[1] != "bogus")
