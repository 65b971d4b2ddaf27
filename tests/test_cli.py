"""Command-line interface: outputs, formats, exit codes, reproducibility."""

import ast
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effdof
from effdof import applications, cli, errors, estimators, montecarlo, run_grid_detailed
from effdof.cli import (
    cells_csv_full_precision,
    main,
    parse_components_file,
)

TWO_COMPONENTS = "weight,variance,dof\n1,1,4\n1,2,4\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], {r[0]: r[1:] for r in rows[1:]}


class TestEstimate:
    def test_single_component(self, capsys, tmp_path):
        path = write(tmp_path, "one.csv", "weight,variance,dof\n1,3.7,5\n")
        code, out, _ = run_cli(capsys, "estimate", "--input", path)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows["satterthwaite"][0]) == 5.0
        assert float(rows["corrected"][0]) == 5.0
        assert float(rows["boardman"][0]) == 7.0

    def test_two_components(self, capsys, tmp_path):
        path = write(tmp_path, "two.csv", TWO_COMPONENTS)
        code, out, _ = run_cli(capsys, "estimate", "--input", path)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows["satterthwaite"][0]) == pytest.approx(7.2)
        assert float(rows["corrected"][0]) == pytest.approx(8.8)
        assert float(rows["boardman"][0]) == pytest.approx(10.8)
        assert float(rows["kish_neff"][0]) == pytest.approx(2.0)
        assert float(rows["design_effect"][0]) == pytest.approx(1.0)

    def test_markdown_format(self, capsys, tmp_path):
        path = write(tmp_path, "two.csv", TWO_COMPONENTS)
        code, out, _ = run_cli(capsys, "estimate", "--input", path,
                               "--format", "markdown")
        assert code == 0
        assert out.startswith("| estimator |")
        assert "| satterthwaite | 7.200 |" in out

    def test_csv_and_markdown_text_is_pinned(self, capsys, tmp_path):
        path = write(tmp_path, "two.csv", TWO_COMPONENTS)
        _, out, _ = run_cli(capsys, "estimate", "--input", path)
        assert out == ("estimator,value,numerator,denominator\n"
                       "satterthwaite,7.200,9.000,1.250\n"
                       "corrected,8.800,9.000,0.833\n"
                       "boardman,10.800,9.000,0.833\n"
                       "kish_neff,2.000,,\n"
                       "design_effect,1.000,,\n")
        _, out, _ = run_cli(capsys, "estimate", "--input", path, "--format", "markdown")
        assert out == ("| estimator | value | numerator | denominator |\n"
                       "| --- | --- | --- | --- |\n"
                       "| satterthwaite | 7.200 | 9.000 | 1.250 |\n"
                       "| corrected | 8.800 | 9.000 | 0.833 |\n"
                       "| boardman | 10.800 | 9.000 | 0.833 |\n"
                       "| kish_neff | 2.000 |  |  |\n"
                       "| design_effect | 1.000 |  |  |\n")

    def test_design_effect_of_unequal_weights(self, capsys, tmp_path):
        # weights 1 and 3: relvariance ((1/2 - 1)^2 + (3/2 - 1)^2) / 2 = 0.25
        path = write(tmp_path, "unequal.csv", "weight,variance,dof\n1,1,4\n3,2,5\n")
        code, out, _ = run_cli(capsys, "estimate", "--input", path)
        assert code == 0
        assert out.splitlines()[-2:] == ["kish_neff,1.600,,", "design_effect,1.250,,"]
        _, out, _ = run_cli(capsys, "estimate", "--input", path, "--format", "json")
        assert out == ('{\n  "estimators": [\n'
                       '    {\n      "variant": "satterthwaite",\n'
                       '      "value": 6.577181208053691,\n'
                       '      "numerator": 49.0,\n      "denominator": 7.45\n    },\n'
                       '    {\n      "variant": "corrected",\n'
                       '      "value": 7.228699551569505,\n'
                       '      "numerator": 49.0,\n      "denominator": 5.30952380952381\n    },\n'
                       '    {\n      "variant": "boardman",\n'
                       '      "value": 9.228699551569505,\n'
                       '      "numerator": 49.0,\n      "denominator": 5.30952380952381\n    }\n'
                       '  ],\n  "weights": {\n    "kish_neff": 1.6,\n'
                       '    "design_effect": 1.25\n  }\n}\n')

    def test_json_format_carries_intermediates(self, capsys, tmp_path):
        def strict(constant):
            raise AssertionError(f"not strict JSON: {constant}")

        path = write(tmp_path, "two.csv", TWO_COMPONENTS)
        code, out, _ = run_cli(capsys, "estimate", "--input", path,
                               "--format", "json")
        assert code == 0
        payload = json.loads(out, parse_constant=strict)
        by_variant = {e["variant"]: e for e in payload["estimators"]}
        assert by_variant["satterthwaite"]["numerator"] == 9.0
        assert by_variant["satterthwaite"]["denominator"] == 1.25
        assert by_variant["corrected"]["value"] == 8.8
        assert payload["weights"]["kish_neff"] == 2.0
        # one component's dfs are exact although its square overflows; JSON has
        # no Infinity, so the sums are null
        path = write(tmp_path, "single.csv", "weight,variance,dof\n1e200,1,4\n")
        code, out, _ = run_cli(capsys, "estimate", "--input", path, "--format", "json")
        assert code == 0
        assert [(e["value"], e["numerator"], e["denominator"])
                for e in json.loads(out, parse_constant=strict)["estimators"]] == [
            (4.0, None, None), (4.0, None, None), (6.0, None, None)]

    def test_estimator_names_are_the_strings_the_cli_prints(self, capsys, tmp_path):
        path = write(tmp_path, "two.csv", TWO_COMPONENTS)
        cs = parse_components_file(path)
        names = [fn(cs).variant for fn in (estimators.satterthwaite_df,
                                            estimators.corrected_df, estimators.boardman_df)]
        assert names == ["satterthwaite", "corrected", "boardman"]
        assert all(type(name) is str for name in names)
        _, out, _ = run_cli(capsys, "estimate", "--input", path)
        assert [row[0] for row in csv.reader(io.StringIO(out))][1:4] == names
        _, out, _ = run_cli(capsys, "estimate", "--input", path, "--format", "json")
        assert [e["variant"] for e in json.loads(out)["estimators"]] == names

    def test_csv_round_trip_at_precision_12(self, capsys, tmp_path):
        path = write(tmp_path, "mixed.csv",
                     "weight,variance,dof\n0.3,1.7,3.5\n1.1,0.9,12\n2.4,3.3,7\n")
        code, out, _ = run_cli(capsys, "estimate", "--input", path,
                               "--format", "csv", "--precision", "12")
        assert code == 0
        _, rows = parse_csv(out)
        from effdof import corrected_df, satterthwaite_df

        cs = parse_components_file(path)
        assert float(rows["satterthwaite"][0]) == pytest.approx(
            satterthwaite_df(cs).value, rel=1e-12
        )
        assert float(rows["corrected"][1]) == pytest.approx(
            corrected_df(cs).numerator, rel=1e-12
        )
        assert float(rows["corrected"][2]) == pytest.approx(
            corrected_df(cs).denominator, rel=1e-12
        )

    def test_parse_error_reports_line_and_column(self, capsys, tmp_path):
        path = write(tmp_path, "bad.csv", "weight,variance,dof\n1,oops,4\n")
        code, _, err = run_cli(capsys, "estimate", "--input", path)
        assert code == 3
        assert "line 2" in err and "column 2" in err

    def test_parsers_raise_the_clis_own_parse_error(self, tmp_path):
        with pytest.raises(cli.ParseError, match="^line 2, column 2: could not parse") as exc:
            parse_components_file(write(tmp_path, "bad.csv", "weight,variance,dof\n1,oops,4\n"))
        assert (exc.value.line, exc.value.column) == (2, 2)
        with pytest.raises(cli.ParseError, match="^line 1: need at least 2 values"):
            cli.parse_values_file(write(tmp_path, "one.txt", "1\n"))
        with pytest.raises(cli.ParseError, match="^line 1: need at least 2 values, got 0$"):
            cli.parse_values_file(write(tmp_path, "none.txt", ""))
        with pytest.raises(cli.ParseError, match="^line 1: file is empty; expected a "
                                                 "weight,variance,dof header$"):
            parse_components_file(write(tmp_path, "empty.csv", ""))

    def test_header_mismatch(self, capsys, tmp_path):
        path = write(tmp_path, "head.csv", "w,v,d\n1,1,4\n")
        code, _, err = run_cli(capsys, "estimate", "--input", path)
        assert code == 3
        assert err == ("effdof: parse error: line 1: expected header 'weight,variance,dof', "
                       "got 'w,v,d'\n")

    def test_empty_data_section(self, capsys, tmp_path):
        path = write(tmp_path, "empty.csv", "weight,variance,dof\n")
        code, _, err = run_cli(capsys, "estimate", "--input", path)
        assert code == 3
        assert err == "effdof: parse error: line 2: no component rows after the header\n"

    def test_invariant_violations_are_parse_errors(self, capsys, tmp_path):
        path = write(tmp_path, "neg.csv", "weight,variance,dof\n-1,1,4\n")
        code, _, err = run_cli(capsys, "estimate", "--input", path)
        assert code == 3
        assert "column 1" in err

    def test_degenerate_components_exit_code(self, capsys, tmp_path):
        path = write(tmp_path, "deg.csv", "weight,variance,dof\n0,1,4\n1,0,4\n")
        code, _, err = run_cli(capsys, "estimate", "--input", path)
        assert code == 4

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "estimate", "--input",
                               str(tmp_path / "nope.csv"))
        assert code == 3

    def test_arithmetic_error_exit_code(self, capsys, tmp_path):
        for rows, detail in (
            # (sum w_k S_k^2)^2 of weights near 1e200 overflows the float range
            ("1e200,1,4\n1e200,2,4\n", None),
            # a valid set whose df, about 2e308, exceeds the largest float
            ("1,1,1e308\n1,1,1e308\n", "satterthwaite df estimate overflows a float"),
        ):
            path = write(tmp_path, "huge.csv", "weight,variance,dof\n" + rows)
            code, out, err = run_cli(capsys, "estimate", "--input", path)
            assert code == 4
            assert out == ""
            assert err.startswith("effdof: arithmetic error: ")
            if detail is not None:
                assert err == f"effdof: arithmetic error: {detail}\n"

    @pytest.mark.parametrize("rows, detail", [
        # (sum w_k S_k^2)^2 of weights near 1e200 overflows when squared
        ("1e200,1,4\n1e200,2,4\n", "satterthwaite df numerator overflows a float"),
        # (w_k S_k^2)^2 / nu_k sums to about 2e308 in fsum
        ("1,1.22e150,1e-8\n1.5,4.7e153,1\n", "satterthwaite df denominator overflows a float"),
        # (sum w_k S_k^2)^2 of weights near 1e-200 underflows
        ("1e-200,1,3\n1e-200,2,4\n", "satterthwaite df numerator underflows to zero"),
        # an infinite product w_k S_k^2
        ("1e200,1e200,3\n1,1,4\n", "satterthwaite df numerator overflows a float"),
        # (w_k S_k^2)^2 / nu_k is inf at a subnormal dof
        ("1,1,5e-324\n1,1,5e-324\n", "satterthwaite df denominator overflows a float"),
        # a single component's square overflows, yet its three dfs are exact
        ("1e200,1,4\n", "satterthwaite,4.000,inf,inf\ncorrected,4.000,inf,inf\n"
                        "boardman,6.000,inf,inf\n"),
        # a single component's product underflows, yet its three dfs are exact
        ("1e-200,1e-200,3\n", "satterthwaite,3.000,0.000,0.000\ncorrected,3.000,0.000,0.000\n"
                              "boardman,5.000,0.000,0.000\n"),
        # the ratio rounds to 2.0, so the corrected - 2 cancels every digit
        ("1,1,1e-300\n1e-20,1,1e-300\n", "corrected df estimate is not positive (0.0)"),
    ])
    def test_overflowing_sum_names_the_estimator_and_the_sum(self, capsys, tmp_path,
                                                             rows, detail):
        path = write(tmp_path, "huge.csv", "weight,variance,dof\n" + rows)
        code, out, err = run_cli(capsys, "estimate", "--input", path)
        if detail.startswith("satterthwaite,"):  # the expected estimator rows
            assert (code, err) == (0, "")
            assert "".join(out.splitlines(keepends=True)[1:4]) == detail
        else:
            assert (code, out) == (4, "")
            assert err == f"effdof: arithmetic error: {detail}\n"


    def test_non_finite_cell_gets_the_library_message(self, capsys, tmp_path):
        path = write(tmp_path, "inf.csv", "weight,variance,dof\n1,inf,4\n")
        code, out, err = run_cli(capsys, "estimate", "--input", path)
        assert code == 3
        assert out == ""
        assert err.rstrip().endswith("line 2, column 2: variance must be finite, got inf")

    def test_non_utf8_file_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfew\x00")
        code, out, err = run_cli(capsys, "estimate", "--input", str(path))
        assert (code, out) == (3, "")
        assert err == ("effdof: parse error: line 1: cannot decode byte 0xff as UTF-8 "
                       "(invalid start byte)\n")

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        # spreadsheets' "CSV UTF-8" export starts the file with one
        plain = write(tmp_path, "plain.csv", TWO_COMPONENTS)
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + TWO_COMPONENTS.encode())
        for fmt in ("csv", "json", "markdown"):
            expected = run_cli(capsys, "estimate", "--input", plain, "--format", fmt)
            assert expected[0] == 0
            assert run_cli(capsys, "estimate", "--input", str(marked),
                           "--format", fmt) == expected

    def test_byte_order_mark_keeps_decode_error_positions(self, capsys, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfweight,variance,dof\n\xff\n")
        code, out, err = run_cli(capsys, "estimate", "--input", str(path))
        assert (code, out) == (3, "")
        assert err == ("effdof: parse error: line 2: cannot decode byte 0xff as UTF-8 "
                       "(invalid start byte)\n")

    def test_decode_error_counts_carriage_return_lines(self, capsys, tmp_path):
        # a CR-only file: the bad byte sits on line 3, as a parse error there would
        path = tmp_path / "cr.csv"
        path.write_bytes(b"weight,variance,dof\r1,1,4\r\xff,2,4\r")
        code, out, err = run_cli(capsys, "estimate", "--input", str(path))
        assert (code, out) == (3, "")
        assert err == ("effdof: parse error: line 3: cannot decode byte 0xff as UTF-8 "
                       "(invalid start byte)\n")

    def test_malformed_csv_is_a_parse_error(self, capsys, tmp_path):
        cell = "1" * (csv.field_size_limit() + 1)
        path = write(tmp_path, "long.csv", f"weight,variance,dof\n1,1,4\n1,{cell},4\n")
        code, out, err = run_cli(capsys, "estimate", "--input", path)
        assert (code, out) == (3, "")
        assert err == ("effdof: parse error: line 3: field larger than field limit "
                       f"({csv.field_size_limit()})\n")

    def test_lines_count_a_quoted_line_break(self, capsys, tmp_path):
        # the quoted first cell spans lines 2-3, so the bad cell sits on line 4
        path = write(tmp_path, "quoted.csv", 'weight,variance,dof\n"1\n",1,4\n1,x,4\n')
        code, out, err = run_cli(capsys, "estimate", "--input", path)
        assert (code, out) == (3, "")
        assert err == "effdof: parse error: line 4, column 2: could not parse 'x' as a number\n"

    def test_a_range_error_names_the_row_line(self, capsys, tmp_path):
        # component 1 sits on line 4, after a blank line
        path = write(tmp_path, "neg.csv", "weight,variance,dof\n1,1,4\n\n2,1,0\n")
        code, out, err = run_cli(capsys, "estimate", "--input", path)
        assert (code, out) == (3, "")
        assert err == "effdof: parse error: line 4, column 3: dof must be > 0, got 0.0\n"


class TestJackknifeCommand:
    def test_worked_examples(self, capsys, tmp_path):
        path = write(tmp_path, "pv.txt", "0\n0\n2\n2\n")
        code, out, _ = run_cli(capsys, "jackknife", "--input", path)
        assert code == 0 and float(out) == 10.0

        path = write(tmp_path, "pv2.txt", "-1\n1\n")
        code, out, _ = run_cli(capsys, "jackknife", "--input", path)
        assert code == 0 and float(out) == 4.0

    def test_constant_input_is_degenerate(self, capsys, tmp_path):
        path = write(tmp_path, "const.txt", "5\n5\n5\n")
        code, _, _ = run_cli(capsys, "jackknife", "--input", path)
        assert code == 4

    def test_single_value_is_parse_error(self, capsys, tmp_path):
        path = write(tmp_path, "single.txt", "5\n")
        code, _, _ = run_cli(capsys, "jackknife", "--input", path)
        assert code == 3

    def test_non_numeric_line(self, capsys, tmp_path):
        path = write(tmp_path, "nan.txt", "1\nbanana\n")
        code, _, err = run_cli(capsys, "jackknife", "--input", path)
        assert code == 3 and "line 2" in err

    def test_non_finite_line(self, capsys, tmp_path):
        path = write(tmp_path, "inf.txt", "1\n\n-inf\n")
        code, _, err = run_cli(capsys, "jackknife", "--input", path)
        assert code == 3
        assert err.rstrip().endswith("line 3, column 1: pseudo-value must be finite, got -inf")

    def test_non_utf8_line_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1\n2\n\xe93\n")
        code, out, err = run_cli(capsys, "jackknife", "--input", str(path))
        assert (code, out) == (3, "")
        assert err == ("effdof: parse error: line 3: cannot decode byte 0xe9 as UTF-8 "
                       "(invalid continuation byte)\n")


    @pytest.mark.parametrize("data, detail", [
        # \f and \u2028 end a line for str.splitlines, not for universal newlines
        (b"1\f2\nx\n", "line 1, column 1: could not parse '1\\x0c2' as a number"),
        ("1\u20282\n3\n".encode(), "line 1, column 1: could not parse '1\\u20282' as a number"),
        # a CR-only file: the bad byte sits on line 3
        (b"1\r2\r\xff3\r", "line 3: cannot decode byte 0xff as UTF-8 (invalid start byte)"),
    ])
    def test_lines_are_universal_newlines(self, capsys, tmp_path, data, detail):
        path = tmp_path / "pv.txt"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "jackknife", "--input", str(path))
        assert (code, out) == (3, "")
        assert err == f"effdof: parse error: {detail}\n"

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        plain = write(tmp_path, "pv.txt", "0\n0\n2\n2\n")
        marked = tmp_path / "bom.txt"
        marked.write_bytes(b"\xef\xbb\xbf0\n0\n2\n2\n")
        expected = run_cli(capsys, "jackknife", "--input", plain)
        assert expected == (0, "10.000\n", "")
        assert run_cli(capsys, "jackknife", "--input", str(marked)) == expected


class TestCheckedOnce:
    @pytest.fixture
    def checked(self, monkeypatch):
        """(field, entries checked) for every field check: a ``check_reals`` call
        where the library makes one, and a per-entry ``check_real`` (1 entry)."""
        calls = []

        def spy(module, attr, size):
            check = getattr(module, attr)

            def counting(name, xs, *args, **kwargs):
                if size:
                    xs = tuple(xs)
                calls.append((name, len(xs) if size else 1))
                return check(name, xs, *args, **kwargs)

            monkeypatch.setattr(module, attr, counting)

        spy(errors, "check_real", size=False)
        spy(estimators, "check_reals", size=True)
        spy(estimators, "_check_reals", size=True)
        spy(applications, "check_reals", size=True)
        return calls

    def test_each_component_cell_is_checked_once(self, checked, tmp_path):
        parse_components_file(write(tmp_path, "two.csv", TWO_COMPONENTS))
        assert sorted(checked) == [("dof", 2), ("variance", 2), ("weight", 2)]

    def test_estimate_checks_each_cell_once(self, checked, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "estimate", "--input",
                             write(tmp_path, "two.csv", TWO_COMPONENTS))
        assert code == 0
        assert sorted(checked) == [("dof", 2), ("variance", 2), ("weight", 2)]

    def test_weight_summaries_check_each_weight_once(self, checked):
        effdof.kish_neff([1, 2.5])
        effdof.design_effect([1, 2.5])
        assert checked == [("weight", 2), ("weight", 2)]

    def test_each_pseudo_value_is_checked_once(self, checked, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "jackknife", "--input",
                             write(tmp_path, "pv.txt", "0\n1\n\n3\n"))
        assert code == 0
        assert checked == [("pseudo-value", 3)]


class TestWelchCommand:
    def test_side_by_side_output(self, capsys):
        code, out, _ = run_cli(capsys, "welch", "--n1", "10", "--n2", "10",
                               "--s1sq", "1", "--s2sq", "1")
        assert code == 0
        lines = dict(line.split(",") for line in out.splitlines())
        assert float(lines["satterthwaite_df"]) == pytest.approx(18.0)
        assert float(lines["corrected_df"]) == pytest.approx(20.0)

    def test_single_effective_component(self, capsys):
        code, out, _ = run_cli(capsys, "welch", "--n1", "10", "--n2", "10",
                               "--s1sq", "1", "--s2sq", "0")
        lines = dict(line.split(",") for line in out.splitlines())
        assert float(lines["satterthwaite_df"]) == 9.0
        assert float(lines["corrected_df"]) == 9.0

    def test_validation_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "welch", "--n1", "1", "--n2", "10",
                               "--s1sq", "1", "--s2sq", "1")
        assert code == 2

    def test_both_variances_zero_is_degenerate(self, capsys):
        code, out, err = run_cli(capsys, "welch", "--n1", "10", "--n2", "10",
                                 "--s1sq", "0", "--s2sq", "0")
        assert (code, out) == (4, "")
        assert err == ("effdof: degenerate input: all weighted variances are zero; "
                       "df estimators are undefined\n")

    def test_size_too_large_for_a_float_is_a_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "welch", "--n1", str(10**400), "--n2", "10",
                                 "--s1sq", "1", "--s2sq", "1")
        assert (code, out) == (2, "")
        assert err == "effdof: n1 must be finite, got an int too large for a float\n"


class TestMiCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "mi", "--var-sampling", "1",
                               "--nu-sampling", "100", "--var-imputation", "0.2",
                               "--m", "5")
        assert code == 0
        lines = dict(line.split(",") for line in out.splitlines())
        assert float(lines["total_variance"]) == pytest.approx(1.24)
        assert float(lines["total_df"]) == pytest.approx(77.242, abs=5e-4)
        assert abs(float(lines["total_df"]) - 77.25) < 0.01

    def test_trivial_cases(self, capsys):
        code, out, _ = run_cli(capsys, "mi", "--var-sampling", "1",
                               "--nu-sampling", "50", "--var-imputation", "0",
                               "--m", "5")
        lines = dict(line.split(",") for line in out.splitlines())
        assert float(lines["total_variance"]) == 1.0
        assert float(lines["total_df"]) == 50.0

        code, out, _ = run_cli(capsys, "mi", "--var-sampling", "0",
                               "--nu-sampling", "10", "--var-imputation", "1",
                               "--m", "3")
        lines = dict(line.split(",") for line in out.splitlines())
        assert float(lines["total_df"]) == 2.0

        # a single component is exact although its square overflows
        code, out, _ = run_cli(capsys, "mi", "--var-sampling", "1e308",
                               "--nu-sampling", "10", "--var-imputation", "0",
                               "--m", "2")
        assert (code, out.splitlines()[-1]) == (0, "total_df,10.000")

        # the classic denominator of this set overflows; MI needs only the corrected one
        code, out, _ = run_cli(capsys, "mi", "--var-sampling", "1.22e150",
                               "--nu-sampling", "1e-8", "--var-imputation", "4.7e153",
                               "--m", "2")
        assert (code, out.splitlines()[-1]) == (0, "total_df,1.001")

    def test_both_variances_zero_is_degenerate(self, capsys):
        code, out, err = run_cli(capsys, "mi", "--var-sampling", "0", "--nu-sampling", "5",
                                 "--var-imputation", "0", "--m", "3")
        assert (code, out) == (4, "")
        assert err.startswith("effdof: degenerate input: all weighted variances are zero")

    def test_validation_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "mi", "--var-sampling", "1",
                             "--nu-sampling", "100", "--var-imputation", "0.2",
                             "--m", "1")
        assert code == 2

    def test_imputation_count_too_large_for_a_float_is_a_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "mi", "--var-sampling", "1",
                                 "--nu-sampling", "10", "--var-imputation", "1",
                                 "--m", str(10**400))
        assert (code, out) == (2, "")
        assert err == ("effdof: num_imputations must be finite, got an int too large "
                       "for a float\n")

    def test_overflowing_total_variance(self, capsys):
        code, out, err = run_cli(capsys, "mi", "--var-sampling", "1e308",
                                 "--nu-sampling", "10", "--var-imputation", "1e308",
                                 "--m", "2")
        assert (code, out) == (4, "")
        assert err == "effdof: arithmetic error: total variance overflows a float\n"

    def test_failure_leaves_stdout_empty(self, capsys):
        # the total variance is finite, but squaring it for the df overflows
        code, out, err = run_cli(capsys, "mi", "--var-sampling", "1e200",
                                 "--nu-sampling", "10", "--var-imputation", "1e200",
                                 "--m", "2")
        assert (code, out) == (4, "")
        assert err.startswith("effdof: arithmetic error: ")


class TestSimulateCommand:
    BASE = ("simulate", "--k", "2", "--nu", "1", "--replicates", "800",
            "--seed", "7")

    def test_deterministic_stdout(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, *self.BASE)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_thread_count_does_not_change_stdout(self, capsys):
        _, base, _ = run_cli(capsys, *self.BASE, "--threads", "1")
        _, threaded, _ = run_cli(capsys, *self.BASE, "--threads", "4")
        assert base == threaded

    def test_manifest_on_stderr_without_out_dir(self, capsys):
        _, _, err = run_cli(capsys, *self.BASE)
        manifest = json.loads(err)
        assert manifest["config"]["seed"] == 7
        assert manifest["config"]["replicates"] == 800
        assert "sfc64" in manifest["rng"]
        assert manifest["library_version"]
        assert manifest["cell_weight_rejections"] == [0]
        # random-mode bytes rest on numpy's samplers; the thread count is only scheduling
        assert manifest["numpy_version"] == numpy.__version__
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_log_target"] == montecarlo._log_dispatch_target()
        assert manifest["threads"] == 1
        assert manifest["duration_seconds"] >= 0.0
        # none of them enters the config, which rebuilds the run
        assert set(manifest["config"]) == {f.name for f in dataclasses.fields(effdof.SimConfig)}

    def test_manifest_counts_redraws_per_cell(self, capsys):
        argv = ("simulate", "--k", "4", "32", "--nu", "1", "5", "--weights", "random",
                "--replicates", "6000", "--seed", "7")
        manifests = []
        for threads in ("1", "2"):
            _, _, err = run_cli(capsys, *argv, "--threads", threads)
            manifests.append(json.loads(err))
        per_cell = manifests[0]["cell_weight_rejections"]
        assert len(per_cell) == 4 and all(isinstance(n, int) for n in per_cell)
        # grid order (4, 1), (4, 5), (32, 1), (32, 5): both nu share the
        # weights; a K=4 cell counts the redraws among the first 4 of the K=32
        # cells' weights, and each K=32 cell every redraw made
        assert per_cell[0] == per_cell[1] <= per_cell[2] == per_cell[3]
        assert per_cell[-1] == manifests[0]["weight_rejections"] > 0
        assert manifests[1]["cell_weight_rejections"] == per_cell
        assert [m["threads"] for m in manifests] == [1, 2]

    def test_out_dir_and_manifest_round_trip(self, capsys, tmp_path):
        random_grid = ("simulate", "--k", "3", "16", "--nu", "1", "5", "--weights", "random",
                       "--replicates", "3000", "--block-size", "1000", "--seed", "7")
        for name, argv in (("equal", self.BASE), ("random", random_grid)):
            out_dir = tmp_path / name
            code, _, _ = run_cli(capsys, *argv, "--out", str(out_dir))
            assert code == 0
            cells_text = (out_dir / "cells.csv").read_text(encoding="utf-8")
            manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
            # rebuilding the config from the manifest reproduces the output bitwise
            cfg = effdof.SimConfig(**manifest["config"])
            assert cfg.weight_mode == name
            assert cells_csv_full_precision(run_grid_detailed(cfg).cells) == cells_text
        # a manifest from an earlier release carries keys SimConfig no longer has
        for key, value in (("weight_sd", 0.3), ("fix_weights", False)):
            with pytest.raises(TypeError, match=key):
                effdof.SimConfig(**manifest["config"], **{key: value})

    def out_cells(self, capsys, tmp_path, *argv):
        """Run ``simulate`` with ``--out``; its stdout and the rows of its cells.csv."""
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "simulate", *argv, "--out", str(out_dir))
        assert code == 0
        text = (out_dir / "cells.csv").read_text(encoding="utf-8")
        return out, list(csv.DictReader(io.StringIO(text)))

    def test_preset_grid_shape(self, capsys, tmp_path):
        out, cells = self.out_cells(capsys, tmp_path, "--preset", "tables123",
                                    "--replicates", "5", "--seed", "1")
        assert len(cells) == 36
        rows = out.strip().splitlines()
        assert len(rows) == 2 + 36
        assert rows[0] == "| K | df | mean unc | SD unc | mean corr | SD corr | K x nu |"

    def test_preset_flag_overrides(self, capsys, tmp_path):
        out, cells = self.out_cells(capsys, tmp_path, "--preset", "tables123",
                                    "--k", "64", "--nu", "32", "--replicates", "5",
                                    "--seed", "1")
        assert len(cells) == 1
        assert (int(cells[0]["k"]), float(cells[0]["nu_bar"])) == (64, 32.0)
        assert out.splitlines()[2].startswith("| 64 | 32 |")

    def test_ratio_layout_for_random_weights(self, capsys, tmp_path):
        out, cells = self.out_cells(capsys, tmp_path, "--k", "16", "--nu", "5",
                                    "--weights", "random",
                                    "--replicates", "2000", "--seed", "3")
        assert "| Kish/K |" in out.splitlines()[0]
        assert 0.90 <= float(cells[0]["ratio_kish_k"]) <= 0.94

    def test_reference_cell_through_cli(self, capsys, tmp_path):
        # the K=2 df=1 ideal-case cell lands on its reference means
        _, cells = self.out_cells(capsys, tmp_path, "--preset", "tables123",
                                  "--k", "2", "--nu", "1",
                                  "--replicates", "100000", "--seed", "42")
        [cell] = cells
        assert abs(float(cell["mean_satt"]) - 1.410) <= 0.05
        assert abs(float(cell["mean_corr"]) - 2.229) <= 0.10

    def test_stdout_rows_show_cells_csv_at_precision(self, capsys, tmp_path):
        # the markdown table is the cells.csv rows rounded to --precision, in both layouts
        classic = ("k", "nu_bar", "mean_satt", "sd_satt", "mean_corr", "sd_corr", "expected")
        ratios = ("k", "nu_bar", "mean_kish", "mean_satt", "mean_corr", "expected",
                  "ratio_kish_k", "ratio_satt", "ratio_corr")
        plain = {"k", "nu_bar", "expected"}  # printed with :g, the rest at --precision
        classic_head = ["| K | df | mean unc | SD unc | mean corr | SD corr | K x nu |",
                        "|" + " --- |" * 7]
        ratios_head = ["| K | nu | M(Kish) | M(Satt) | M(Corr) | K x nu | Kish/K | "
                       "Satt/(K nu) | Corr/(K nu) |", "|" + " --- |" * 9]
        csv_head = ("k,nu_bar,mean_satt,sd_satt,mean_corr,sd_corr,mean_kish,expected,"
                    "ratio_kish_k,ratio_satt,ratio_corr")
        for i, (precision, columns, head, ks, argv) in enumerate((
            (3, classic, classic_head, ["2"], self.BASE[1:]),
            (5, classic, classic_head, ["2", "2", "5", "5"],
             ("--k", "2", "5", "--nu", "1", "2.5", "--replicates", "300", "--seed", "7",
              "--precision", "5")),
            (2, ratios, ratios_head, ["3", "3", "16", "16"],
             ("--k", "3", "16", "--nu", "0.5", "50", "--weights", "random",
              "--replicates", "300", "--seed", "7", "--precision", "2")),
        )):
            out, cells = self.out_cells(capsys, tmp_path / str(i), *argv)
            assert out.splitlines()[:2] == head
            csv_text = (tmp_path / str(i) / "run" / "cells.csv").read_text(encoding="utf-8")
            assert csv_text.splitlines()[0] == csv_head
            rows = out.splitlines()[2:]
            assert [c["k"] for c in cells] == ks and len(rows) == len(cells)
            for row, cell in zip(rows, cells):
                shown = [f"{float(cell[n]):g}" if n in plain
                         else f"{float(cell[n]):.{precision}f}" for n in columns]
                assert row == "| " + " | ".join(shown) + " |"

    @pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
    def test_removed_format_flag_is_refused(self, capsys, tmp_path, fmt):
        # the table is always markdown; --out DIR writes cells.csv at full precision
        with pytest.raises(SystemExit) as exc:
            main([*self.BASE, "--format", fmt, "--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "unrecognized arguments: --format" in captured.err
        assert not (tmp_path / "run").exists()

    def test_too_many_threads_fail_before_any_pool_starts(self, capsys, monkeypatch,
                                                          tmp_path):
        class NoPool:
            def __init__(self, *args, **kwargs):
                pytest.fail("a thread pool was constructed")

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", NoPool)
        for threads in ("257", "100000"):
            code, out, err = run_cli(capsys, "simulate", "--k", "2", "--nu", "1",
                                     "--replicates", "100000", "--block-size", "1",
                                     "--seed", "1", "--threads", threads,
                                     "--out", str(tmp_path / "run"))
            assert (code, out) == (2, "")
            assert err == f"effdof: threads must be between 1 and 256, got {threads}\n"
            assert not (tmp_path / "run").exists()

    def test_seed_drawn_when_missing(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--k", "2", "--nu", "1",
                               "--replicates", "10")
        assert code == 0
        assert isinstance(json.loads(err)["config"]["seed"], int)

    def test_grid_flags_required(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--k", "2",
                               "--replicates", "10", "--seed", "1")
        assert code == 2 and "--nu" in err

    def test_oversized_block_fails_before_the_grid(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_grid_detailed",
                            lambda *a, **kw: pytest.fail("the grid started"))
        code, out, err = run_cli(capsys, "simulate", "--k", "100000000", "--nu", "1",
                                 "--replicates", "1", "--seed", "1")
        assert (code, out) == (2, "")
        assert "block_size" in err and "k_values" in err

    def test_flag_validation_uses_argparse_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "not-a-preset"])
        assert exc.value.code == 2

    def test_out_at_an_existing_file_fails_before_the_grid(self, capsys, monkeypatch,
                                                          tmp_path):
        grids = []
        monkeypatch.setattr(cli, "run_grid_detailed",
                            lambda *a, **kw: grids.append(a) or run_grid_detailed(*a, **kw))
        afile = write(tmp_path, "afile", "")
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "nowhere")  # dangling: os.makedirs would refuse it
        for level, out_dir in ((afile, afile), (afile, os.path.join(afile, "sub")),
                               (link, link), (link, link / "sub")):
            code, out, err = run_cli(capsys, *self.BASE, "--out", str(out_dir))
            assert (code, out, grids) == (2, "", []), out_dir
            assert err == f"effdof: {level} exists and is not a writable directory\n"
            assert sorted(os.listdir(tmp_path)) == ["afile", "link"]

    def test_unwritable_out_dir_fails_before_the_grid(self, capsys, monkeypatch, tmp_path):
        # as root every directory is writable, so os.access stands in for the mode bits
        checked = []
        monkeypatch.setattr(cli, "run_grid_detailed",
                            lambda *a, **kw: pytest.fail("the grid started"))
        monkeypatch.setattr(os, "access",
                            lambda path, mode: checked.append((path, mode)) or False)
        code, out, err = run_cli(capsys, *self.BASE, "--out", str(tmp_path / "a" / "b"))
        assert (code, out) == (2, "")
        assert err == f"effdof: {tmp_path} exists and is not a writable directory\n"
        assert checked == [(str(tmp_path), os.W_OK | os.X_OK)]
        assert not any(tmp_path.iterdir())

    def test_out_that_cannot_be_made_fails_after_the_grid(self, capsys, monkeypatch,
                                                          tmp_path):
        # the check passes a name too long to make; os.makedirs refuses it once
        # the grid is done, and the run still exits 2 with stdout empty
        grids = []
        monkeypatch.setattr(cli, "run_grid_detailed",
                            lambda *a, **kw: grids.append(a) or run_grid_detailed(*a, **kw))
        code, out, err = run_cli(capsys, *self.BASE, "--out", str(tmp_path / ("x" * 300)))
        assert (code, out, len(grids)) == (2, "", 1)
        assert err.startswith("effdof: [Errno ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.skipif(os.name != "posix", reason="stops the child with SIGTERM")
    def test_stopped_run_leaves_no_out_dir(self, tmp_path):
        # --out is made only once the grid is done, so a run stopped mid-grid
        # leaves no level of it behind
        src = str(Path(effdof.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "effdof", "simulate", "--preset", "tables123",
             "--replicates", "4000000", "--seed", "1", "--out", str(tmp_path / "a" / "b")],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
        try:
            time.sleep(1.0)
            proc.send_signal(signal.SIGTERM)
            # still running at the signal: it neither finished nor failed before it
            assert proc.wait(timeout=60) == -signal.SIGTERM
            assert not (tmp_path / "a").exists()
        finally:
            proc.kill()
            proc.wait()

    def test_unwritable_cells_file_leaves_stdout_empty(self, capsys, tmp_path):
        (tmp_path / "run" / "cells.csv").mkdir(parents=True)
        code, out, _ = run_cli(capsys, *self.BASE, "--out", str(tmp_path / "run"))
        assert (code, out) == (2, "")

    def test_removed_weight_flags_are_refused(self, capsys):
        # random weights are Normal(1, 0.3), redrawn for every replicate
        for flag in (["--sd", "0.5"], ["--fix-weights"]):
            with pytest.raises(SystemExit) as exc:
                main(["simulate", "--preset", "tables45-random", *flag,
                      "--replicates", "5", "--seed", "1"])
            captured = capsys.readouterr()
            assert (exc.value.code, captured.out) == (2, "")
            assert f"unrecognized arguments: {flag[0]}" in captured.err

    def test_overflowing_grid_is_an_arithmetic_error(self, capsys, tmp_path):
        # a failing grid makes no level of --out, a missing parent neither
        for out in ("run", os.path.join("missing", "run") + os.sep):
            code, stdout, err = run_cli(capsys, "simulate", "--k", "2", "--nu", "1e308",
                                        "--replicates", "5", "--seed", "1",
                                        "--out", str(tmp_path / out))
            assert (code, stdout) == (4, ""), out
            assert err == ("effdof: arithmetic error: overflow in the df moments of cell "
                           "K=2, nu=1e+308\n")
            assert not any(tmp_path.iterdir()), out

    def test_underflowing_grid_names_its_cell(self, capsys):
        underflow = "a replicate's weighted variances underflow to zero in cell K=2"
        # at nu = 1.5e-308, 2 / nu is finite and 3 / nu is not: the scale check
        # passes and the draws underflow; at 1e-310 the scale itself is infinite
        for ks, nus, replicates, detail in (
            (["2", "4"], ["1", "0.005"], "2000", f"{underflow}, nu=0.005"),
            (["2"], ["1.5e-308"], "200", f"{underflow}, nu=1.5e-308"),
            (["2"], ["1e-310"], "200",
             "overflow: the gamma scale 2 / nu is infinite in cell K=2, nu=1e-310"),
        ):
            code, out, err = run_cli(capsys, "simulate", "--k", *ks, "--nu", *nus,
                                     "--replicates", replicates, "--seed", "1")
            assert (code, out) == (4, "")
            assert err == f"effdof: arithmetic error: {detail} (block 0)\n"

    def test_failing_grid_keeps_an_existing_out_dir(self, capsys, tmp_path):
        (tmp_path / "run").mkdir()
        code, out, _ = run_cli(capsys, "simulate", "--k", "2", "--nu", "1e308",
                               "--replicates", "5", "--seed", "1",
                               "--out", str(tmp_path / "run"))
        assert (code, out) == (4, "")
        assert (tmp_path / "run").is_dir()
        assert not any((tmp_path / "run").iterdir())


def run_effdof(argv, unbuffered, stdout, shell_redirect=""):
    """``python -m effdof *argv`` with ``PYTHONUNBUFFERED`` set or unset; ``sh``
    applies ``shell_redirect`` to the child alone. stderr is piped back unless
    the redirect takes fd 2."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(effdof.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(["sh", "-c", f'exec "$@" {shell_redirect}', "sh", sys.executable,
                           "-m", "effdof", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 through sh")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["estimate", "simulate", "jackknife", "welch", "mi",
                                     "help", "welch-help"])
class TestOutputFailures:
    """A stdout that cannot take the output, --help included, exits 2 with one
    line on stderr, never a traceback: with or without PYTHONUNBUFFERED, where
    Python's own flush at exit would otherwise meet the failure after main has
    returned."""

    def run(self, tmp_path, command, unbuffered, stdout, shell_redirect=""):
        argv = {
            "estimate": ["estimate", "--input", write(tmp_path, "c.csv", TWO_COMPONENTS)],
            "simulate": ["simulate", "--k", "2", "--nu", "1", "--replicates", "50",
                         "--seed", "1"],
            "jackknife": ["jackknife", "--input", write(tmp_path, "pv.txt", "0\n1\n3\n")],
            "welch": ["welch", "--n1", "10", "--n2", "12", "--s1sq", "1", "--s2sq", "2"],
            "mi": ["mi", "--var-sampling", "1", "--nu-sampling", "100",
                   "--var-imputation", "0.2", "--m", "5"],
            "help": ["--help"],
            "welch-help": ["welch", "--help"],
        }[command]
        proc = run_effdof(argv, unbuffered, stdout, shell_redirect)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
        return proc

    def test_closed_stdout(self, tmp_path, command, unbuffered):
        # >&- closes fd 1 of the child only: the pipe read here stays empty
        proc = self.run(tmp_path, command, unbuffered, subprocess.PIPE, ">&-")
        assert proc.stdout == ""
        assert proc.stderr.endswith("effdof: cannot write output: stdout is closed\n")

    def test_pipe_whose_reader_closed(self, tmp_path, command, unbuffered):
        read, write_end = os.pipe()
        os.close(read)
        try:
            proc = self.run(tmp_path, command, unbuffered, write_end)
        finally:
            os.close(write_end)
        assert proc.stderr.endswith("effdof: cannot write output: Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device(self, tmp_path, command, unbuffered):
        with open("/dev/full", "wb") as full:
            proc = self.run(tmp_path, command, unbuffered, full)
        assert proc.stderr.endswith("effdof: cannot write output: No space left on device\n")


def stderr_failure(tmp_path, failure):
    """argv and documented exit code of a run that reports on stderr."""
    return {
        "validation": (["welch", "--n1", "1", "--n2", "10", "--s1sq", "1", "--s2sq", "1"], 2),
        "parse": (["estimate", "--input",
                   write(tmp_path, "x.csv", "weight,variance,dof\nx,1,3\n")], 3),
        "degenerate": (["estimate", "--input",
                        write(tmp_path, "z.csv", "weight,variance,dof\n1,0,3\n")], 4),
        # without --out the manifest is output on stderr: losing it fails the run
        "manifest": (["simulate", "--k", "2", "--nu", "1", "--replicates", "10",
                      "--seed", "1"], 2),
    }[failure]


FAILURES = ["validation", "parse", "degenerate", "manifest"]


class TestStderrFailures:
    """A stderr that cannot take the report keeps the documented exit code, and
    nothing reaches stdout in its place."""

    @pytest.mark.skipif(os.name != "posix", reason="redirects fd 2 through sh")
    @pytest.mark.parametrize("failure", FAILURES)
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("redirect", [
        "2>&-",
        pytest.param("2>/dev/full", marks=pytest.mark.skipif(
            not os.path.exists("/dev/full"), reason="no /dev/full")),
    ])
    def test_failing_stderr(self, tmp_path, failure, redirect, unbuffered):
        argv, code = stderr_failure(tmp_path, failure)
        proc = run_effdof(argv, unbuffered, subprocess.PIPE, redirect)
        # a traceback exits 1 and an unflushable stream 120, so the code tells them apart
        assert (proc.returncode, proc.stdout) == (code, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_usage_error_to_full_stderr(self):
        # argparse's message stays in stderr's buffer unless main writes it
        proc = run_effdof(["welch", "--n1", "x"], False, subprocess.PIPE, "2>/dev/full")
        assert (proc.returncode, proc.stdout) == (2, "")

    @pytest.mark.parametrize("failure", FAILURES)
    def test_no_stderr_in_process(self, capsys, monkeypatch, tmp_path, failure):
        # Python starts with sys.stderr None when fd 2 is closed, and print(file=None)
        # would write to stdout
        argv, code = stderr_failure(tmp_path, failure)
        monkeypatch.setattr(sys, "stderr", None)
        assert main(argv) == code
        assert capsys.readouterr().out == ""

    def test_no_stderr_fails_simulate_before_the_grid(self, capsys, monkeypatch, tmp_path):
        # without --out the manifest goes to stderr, so a closed one is refused
        # before any replicate is drawn
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid ran")

        argv, code = stderr_failure(tmp_path, "manifest")
        monkeypatch.setattr(cli, "run_grid_detailed", no_grid)
        monkeypatch.setattr(sys, "stderr", None)
        assert main(argv) == code == 2
        assert capsys.readouterr().out == ""


# json is watched too, so the probe itself must not import it: runs come in as
# tab-joined arguments and the result goes out as a repr
_IMPORT_PROBE = """
import sys

WATCHED = ("concurrent.futures", "dataclasses", "effdof.montecarlo", "json", "numpy",
           "pathlib", "secrets")
# a .pth file may load some of them at startup: count only the ones effdof adds
PRELOADED = set(sys.modules)

def loaded():
    return [m for m in WATCHED if m in sys.modules and m not in PRELOADED]

import effdof
seen = {"import effdof": loaded()}
from effdof.cli import main
seen["import effdof.cli"] = loaded()
for run in sys.argv[1:]:
    argv = run.split("\\t")
    assert main(argv) == 0, argv
    seen[argv[0]] = loaded()
assert main(["simulate", "--k", "2", "--nu", "1", "--replicates", "10"]) == 0
seen["simulate"] = loaded()
print(repr(seen))
"""


class TestModuleEntryPoint:
    def test_only_simulate_imports_numpy(self, tmp_path):
        # this process has all of them loaded already, so probe a fresh interpreter
        runs = [
            ["welch", "--n1", "10", "--n2", "12", "--s1sq", "1", "--s2sq", "2"],
            ["mi", "--var-sampling", "1", "--nu-sampling", "100",
             "--var-imputation", "0.2", "--m", "5"],
            ["jackknife", "--input", write(tmp_path, "pv.txt", "0\n1\n3\n")],
            ["estimate", "--input", write(tmp_path, "c.csv", TWO_COMPONENTS)],
        ]
        src = str(Path(effdof.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, *("\t".join(run) for run in runs)],
            capture_output=True, text=True, env=env, check=True,
        )
        seen = ast.literal_eval(proc.stdout.strip().splitlines()[-1])
        assert seen == {
            "import effdof": [], "import effdof.cli": [],
            "welch": [], "mi": [], "jackknife": [], "estimate": [],
            # json writes the run manifest; secrets draws the seed
            "simulate": ["concurrent.futures", "dataclasses", "effdof.montecarlo", "json",
                         "numpy", "secrets"],
        }

    def test_cli_import_leaves_pathlib_unloaded_without_site(self):
        # -S runs no .pth file, so nothing can load pathlib before effdof does
        src = str(Path(effdof.__file__).resolve().parents[1])
        probe = "import sys, effdof.cli; print('pathlib' in sys.modules)"
        proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize("value", ["x", "1.5", "13"])
    def test_precision_must_be_an_integer_in_range(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["welch", "--n1", "10", "--n2", "10", "--s1sq", "1", "--s2sq", "1",
                  "--precision", value])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err.endswith(
            "argument --precision: precision must be an integer between 0 and 12\n")

    def test_precision_zero_is_accepted(self, capsys):
        code, out, err = run_cli(capsys, "welch", "--n1", "10", "--n2", "20", "--s1sq", "1",
                                 "--s2sq", "2", "--precision", "0")
        assert (code, out, err) == (0, "satterthwaite_df,24\ncorrected_df,27\n", "")

    def test_python_dash_m_runs_and_is_deterministic(self):
        cmd = [sys.executable, "-m", "effdof", "simulate", "--k", "2", "--nu", "1",
               "--replicates", "500", "--seed", "11"]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.startswith(b"| K |")


# ---------------------------------------------------------------------------
# whole-CLI contract: every input ends in a documented exit code
# ---------------------------------------------------------------------------

_CELLS = st.sampled_from(["1", "0", "-1", "2.5", " 3 ", "inf", "-inf", "nan", "1e308",
                          "5e-324", "1e-200", "1e400", "x", "", '"1"'])
_JUNK = st.sampled_from([b"", b"\xff\xfe", b"\xe9", b"\x00", b"\r", b"\r\n", b'"', b","])


@st.composite
def _file_bytes(draw, header):
    rows = draw(st.lists(st.lists(_CELLS, max_size=4), max_size=4))
    lines = [",".join(row) for row in rows]
    if header:
        lines.insert(0, draw(st.sampled_from([header, "w,v,d", ""])))
    data = "\n".join(lines).encode()
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(_JUNK) + data[at:]


def _main_in_process(argv):
    """``main(argv)``'s exit code and stdout; argparse's usage errors exit 2."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _assert_contract(argv):
    code, out = _main_in_process(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    assert code == 0 or out == "", (argv, out)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_file_bytes("weight,variance,dof"), st.binary(max_size=40)),
       st.sampled_from(["csv", "json", "markdown"]))
def test_estimate_contract(tmp_path_factory, data, fmt):
    path = tmp_path_factory.getbasetemp() / "contract.csv"
    path.write_bytes(data)
    _assert_contract(["estimate", "--input", str(path), "--format", fmt])


@settings(max_examples=200, deadline=None)
@given(st.one_of(_file_bytes(None), st.binary(max_size=40)))
def test_jackknife_contract(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "contract.txt"
    path.write_bytes(data)
    _assert_contract(["jackknife", "--input", str(path)])


_INTS = st.sampled_from(["10", "2", "1", "0", "-3", "1.5", "x"])
_FLOATS = st.sampled_from(["1", "0", "-0", "-1", "2.5", "inf", "nan", "1e308", "5e-324",
                           "1e400", "x"])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([("welch", "--n1", "--n2", "--s1sq", "--s2sq"),
                        ("mi", "--m", "--var-sampling", "--nu-sampling", "--var-imputation")]),
       st.tuples(_INTS, st.one_of(_INTS, _FLOATS), _FLOATS, _FLOATS),
       st.sampled_from([[], ["--precision", "12"], ["--precision", "13"]]))
def test_flag_commands_contract(command, values, precision):
    argv = [command[0]]
    for flag, value in zip(command[1:], values):
        argv += [flag, value]
    _assert_contract(argv + precision)


def _mostly(valid, faulty):
    """``valid``, or ``faulty`` about one draw in four, so most runs get to the grid."""
    return st.integers(0, 3).flatmap(lambda i: faulty if i == 0 else valid)


@settings(max_examples=200, deadline=None)
@given(k=st.lists(st.integers(1, 4).map(str), min_size=1, max_size=3),
       nu=st.lists(_mostly(st.floats(0.5, 50.0).map(repr),
                           st.sampled_from(["0", "-1", "nan", "inf", "1e-300", "1e-310",
                                            "1e308"])),
                   min_size=1, max_size=3),
       replicates=st.integers(1, 20), block_size=st.integers(1, 20),
       weights=st.sampled_from([[], ["--weights", "equal"], ["--weights", "random"]]),
       threads=st.integers(1, 2), out_is_file=_mostly(st.just(False), st.just(True)))
def test_simulate_contract(k, nu, replicates, block_size, weights, threads, out_is_file):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        if out_is_file:
            out.write_bytes(b"")
        argv = ["simulate", "--k", *k, "--nu", *nu, "--replicates", str(replicates),
                "--block-size", str(block_size), *weights,
                "--threads", str(threads), "--seed", "1", "--out", str(out)]
        code, stdout = _main_in_process(argv)
        assert code in (0, 2, 3, 4), (argv, code)
        assert code == 0 or stdout == "", (argv, stdout)
        if code == 0:
            rows = list(csv.reader(io.StringIO((out / "cells.csv").read_text("utf-8"))))
            assert all(math.isfinite(float(x)) for row in rows[1:] for x in row), (argv, rows)
