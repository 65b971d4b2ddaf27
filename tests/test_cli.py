"""Command-line interface: outputs, formats, exit codes, reproducibility."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import effdof
from effdof import run_grid
from effdof.cli import (
    cells_csv_full_precision,
    config_from_mapping,
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

    def test_json_format_carries_intermediates(self, capsys, tmp_path):
        path = write(tmp_path, "two.csv", TWO_COMPONENTS)
        code, out, _ = run_cli(capsys, "estimate", "--input", path,
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        by_variant = {e["variant"]: e for e in payload["estimators"]}
        assert by_variant["satterthwaite"]["numerator"] == 9.0
        assert by_variant["satterthwaite"]["denominator"] == 1.25
        assert by_variant["corrected"]["value"] == 8.8
        assert payload["weights"]["kish_neff"] == 2.0

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

    def test_header_mismatch(self, capsys, tmp_path):
        path = write(tmp_path, "head.csv", "w,v,d\n1,1,4\n")
        code, _, err = run_cli(capsys, "estimate", "--input", path)
        assert code == 3

    def test_empty_data_section(self, capsys, tmp_path):
        path = write(tmp_path, "empty.csv", "weight,variance,dof\n")
        code, _, err = run_cli(capsys, "estimate", "--input", path)
        assert code == 3
        assert "no component rows" in err

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
        # (sum w_k S_k^2)^2 of weights near 1e200 overflows the float range
        path = write(tmp_path, "huge.csv", "weight,variance,dof\n1e200,1,4\n1e200,2,4\n")
        code, out, err = run_cli(capsys, "estimate", "--input", path)
        assert code == 4
        assert out == ""
        assert err.startswith("effdof: arithmetic error: ")


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
        code, _, _ = run_cli(capsys, "welch", "--n1", "10", "--n2", "10",
                             "--s1sq", "0", "--s2sq", "0")
        assert code == 4


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

    def test_validation_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "mi", "--var-sampling", "1",
                             "--nu-sampling", "100", "--var-imputation", "0.2",
                             "--m", "1")
        assert code == 2


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
        assert "philox" in manifest["rng"]
        assert manifest["library_version"]

    def test_out_dir_and_manifest_round_trip(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(capsys, *self.BASE, "--out", str(out_dir))
        assert code == 0
        cells_text = (out_dir / "cells.csv").read_text(encoding="utf-8")
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        # rebuilding the config from the manifest reproduces the output bitwise
        cfg = config_from_mapping(manifest["config"])
        assert cells_csv_full_precision(run_grid(cfg)) == cells_text
        # older manifests also carry unit_weights and sigma_sq
        older = dict(manifest["config"], unit_weights=False, sigma_sq=1.0)
        assert cells_csv_full_precision(run_grid(config_from_mapping(older))) == cells_text

    def test_preset_grid_shape(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--preset", "tables123",
                               "--replicates", "5", "--seed", "1",
                               "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 1 + 36
        assert rows[0] == "k,df,mean_satt,sd_satt,mean_corr,sd_corr,expected"

    def test_preset_flag_overrides(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--preset", "tables123",
                               "--k", "64", "--nu", "32", "--replicates", "5",
                               "--seed", "1", "--format", "csv")
        rows = out.strip().splitlines()
        assert len(rows) == 2 and rows[1].startswith("64,32")

    def test_ratio_layout_for_random_weights(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--k", "16", "--nu", "5",
                               "--weights", "random", "--sd", "0.3",
                               "--replicates", "2000", "--seed", "3",
                               "--format", "csv")
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert "kish_over_k" in header
        row = dict(zip(header, out.splitlines()[1].split(",")))
        assert 0.90 <= float(row["kish_over_k"]) <= 0.94

    def test_json_cells(self, capsys):
        code, out, _ = run_cli(capsys, *self.BASE, "--format", "json")
        cells = json.loads(out)["cells"]
        assert len(cells) == 1 and cells[0]["k"] == 2

    def test_reference_cell_through_cli(self, capsys):
        # the K=2 df=1 ideal-case cell lands on its reference means
        code, out, _ = run_cli(capsys, "simulate", "--preset", "tables123",
                               "--k", "2", "--nu", "1",
                               "--replicates", "100000", "--seed", "42",
                               "--format", "csv")
        assert code == 0
        header, row = (line.split(",") for line in out.strip().splitlines())
        cell = dict(zip(header, row))
        assert abs(float(cell["mean_satt"]) - 1.410) <= 0.05
        assert abs(float(cell["mean_corr"]) - 2.229) <= 0.10

    def test_seed_drawn_when_missing(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--k", "2", "--nu", "1",
                               "--replicates", "10")
        assert code == 0
        assert isinstance(json.loads(err)["config"]["seed"], int)

    def test_grid_flags_required(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--k", "2",
                               "--replicates", "10", "--seed", "1")
        assert code == 2 and "--nu" in err

    def test_flag_validation_uses_argparse_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "not-a-preset"])
        assert exc.value.code == 2


_IMPORT_PROBE = """
import json, sys
from effdof.cli import main

def loaded():
    return sorted(m for m in ("numpy", "secrets") if m in sys.modules)

seen = {"import": loaded()}
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    seen[argv[0]] = loaded()
assert main(["simulate", "--k", "2", "--nu", "1", "--replicates", "10"]) == 0
seen["simulate"] = loaded()
print(json.dumps(seen))
"""


class TestModuleEntryPoint:
    def test_only_simulate_imports_numpy(self, tmp_path):
        # this process has numpy loaded already, so probe a fresh interpreter
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
            [sys.executable, "-c", _IMPORT_PROBE, json.dumps(runs)],
            capture_output=True, text=True, env=env, check=True,
        )
        seen = json.loads(proc.stdout.strip().splitlines()[-1])
        assert seen == {
            "import": [], "welch": [], "mi": [], "jackknife": [], "estimate": [],
            "simulate": ["numpy", "secrets"],
        }

    def test_python_dash_m_runs_and_is_deterministic(self):
        cmd = [sys.executable, "-m", "effdof", "simulate", "--k", "2", "--nu", "1",
               "--replicates", "500", "--seed", "11"]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.startswith(b"| K |")
