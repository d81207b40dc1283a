"""CLI surface: table layout, number formatting, exit codes, determinism."""

from pathlib import Path

import pytest

from qposc import energy_spectrum
from qposc.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(out):
    return [line for line in out.splitlines() if not line.startswith("#")][1:]


class TestCurveCommand:
    def test_hundred_samples(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--levels", "0,2", "--samples", "100")
        assert code == 0
        rows = data_rows(out)
        assert len(rows) == 100
        q0, p0, _ = rows[0].split(",")
        assert q0 == "0"
        assert float(p0) == pytest.approx(0.618034, abs=1e-6)

    def test_neighbor_endpoint_rows(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--levels", "1,2", "--samples", "2")
        assert code == 0
        assert data_rows(out) == ["0,1,-0.5", "1,0,-2"]

    def test_all_seven_reference_curves_emit(self, capsys):
        for levels in ("0,2", "0,3", "0,4", "0,6", "1,2", "2,3", "4,5"):
            code, out, _ = run_cli(capsys, "curve", "--levels", levels,
                                   "--samples", "20")
            assert code == 0
            assert len(data_rows(out)) == 20

    def test_invalid_condition_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--levels", "0,0")
        assert code == 2
        assert "domain error" in err

    def test_malformed_condition_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--levels", "0;2")
        assert code == 1
        assert err

    def test_non_integer_levels_are_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "curve", "--levels", "1,x")
        assert (code, out) == (1, "")
        assert err == "qposc: --levels expects integers, got '1,x'\n"

    def test_missing_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["curve"])
        assert exc.value.code == 1

    def test_high_neighbor_pair_reaches_the_corner(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--levels", "12,13")
        assert code == 0
        assert len(data_rows(out)) == 100


class TestSolveCommand:
    def test_diagonal_root(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--levels", "0,2", "--family", "power:1")
        assert code == 0
        row = data_rows(out)[0].split(",")
        assert row[0] == "0.333333333333"
        assert row[1] == "0.333333333333"
        assert float(row[2]) == pytest.approx(0.5, abs=1e-12)
        assert float(row[3]) == pytest.approx(0.5, abs=1e-12)

    def test_non_admitting_family_emits_none(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--levels", "0,2", "--family", "log:6.05")
        assert code == 0
        assert data_rows(out) == ["none"]

    def test_high_neighbor_crossing_on_a_steep_exp_member(self, capsys):
        # exp:20 starts at p = exp(-20), where the computed edge residual
        # underflows to 0.0; 60-digit mpmath puts the crossing at
        # q = 0.996155207397683 (tests/test_families.py checks its sign change)
        code, out, _ = run_cli(capsys, "solve", "--levels", "40,41", "--family", "exp:20")
        assert code == 0
        q, _, e40, e41 = data_rows(out)[0].split(",")
        assert q == "0.996155207398"
        assert e40 == e41

    @pytest.mark.parametrize("levels", ["5,6", "6,7"])
    def test_constant_member_emits_none(self, capsys, levels):
        code, out, _ = run_cli(capsys, "solve", "--levels", levels, "--family", "power:0")
        assert code == 0
        assert data_rows(out) == ["none"]

    def test_crossing_below_the_smallest_double_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--levels", "0,65", "--family", "power:1e-8")
        assert code == 2
        assert out == ""
        assert "below the smallest positive double" in err

    def test_bad_family_grammar_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--levels", "0,2", "--family", "poly:2")
        assert code == 1
        assert "family" in err

    def test_invalid_family_parameter_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--levels", "0,2", "--family", "log:-1")
        assert code == 2

    def test_infinite_family_parameter_is_named_not_finite(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--levels", "0,2", "--family", "power:1e400")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.endswith("power exponent must be finite, got inf\n")

    def test_underflowing_log_edge_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--levels", "0,2", "--family", "log:0.001")
        assert code == 2
        assert "underflows" in err


README_CLI = Path(__file__).parent / "readme_cli"

# each README example: the name of its pinned table in README_CLI, and its
# argv; the CI workflow runs the same list through the installed qposc script
README_ARGV = [(name, argv) for name, *argv in
               map(str.split, (README_CLI / "examples.txt").read_text().splitlines())]


class TestReadmeExamples:
    # the full output of each README example, pinned byte for byte
    @pytest.mark.parametrize("name, argv", README_ARGV)
    def test_output_is_pinned(self, capsys, name, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.encode() == (README_CLI / f"{name}.csv").read_bytes()


REFERENCE_CURVES = Path(__file__).parent / "reference_curves"

# the seven reference curves at 100 samples, listed like README_ARGV; the CI
# workflow runs this list through the installed qposc script too
REFERENCE_ARGV = [(name, argv) for name, *argv in
                  map(str.split, (REFERENCE_CURVES / "examples.txt").read_text().splitlines())]


class TestReferenceCurves:
    @pytest.mark.parametrize("name, argv", REFERENCE_ARGV)
    def test_output_is_pinned(self, capsys, name, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.encode() == (REFERENCE_CURVES / f"{name}.csv").read_bytes()

    def test_the_seven_pairs_are_listed(self):
        assert [argv[2] for _, argv in REFERENCE_ARGV] == [
            "0,2", "0,3", "0,4", "0,6", "1,2", "2,3", "4,5"]


class TestSpectrumCommand:
    def test_row_zero_and_count(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--family", "exp:0.5",
                               "--q", "0.4", "--n-max", "40")
        assert code == 0
        rows = data_rows(out)
        assert len(rows) == 41
        assert rows[0] == "0,0.5"

    def test_undeformed_levels_exact(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--family", "power:1",
                               "--q", "1", "--n-max", "5")
        assert code == 0
        rows = data_rows(out)
        assert rows == [f"{n},{n + 0.5:.12g}" for n in range(6)]
        assert "# n0=none" in out

    def test_peak_annotation(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--family", "exp:0.5",
                               "--q", "0.01", "--n-max", "10")
        assert code == 0
        assert out.rstrip().endswith("# n0=1")

    def test_spectrum_is_evaluated_once(self, capsys, monkeypatch):
        calls = []

        def counted(n_max, point):
            calls.append(n_max)
            return energy_spectrum(n_max, point)
        monkeypatch.setattr("qposc.core.energy_spectrum", counted)
        monkeypatch.setattr("qposc.spectrum.energy_spectrum", counted)
        for q, n_max in (("0.4", "200"), ("1", "5"), ("0.4", "1")):
            calls.clear()
            code, _, _ = run_cli(capsys, "spectrum", "--family", "exp:0.5",
                                 "--q", q, "--n-max", n_max)
            assert (code, calls) == (0, [int(n_max)])

    def test_out_of_domain_q_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--family", "log:1",
                               "--q", "0.1", "--n-max", "10")
        assert code == 2

    def test_n_max_past_sys_maxsize_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--family", "exp:0.5",
                                 "--q", "0.5", "--n-max", "9223372036854775808")
        assert (code, out) == (2, "")
        assert "domain error" in err


class TestInterceptCommand:
    def test_identity_curve(self, capsys):
        code, out, _ = run_cli(capsys, "intercept", "--family", "power:0",
                               "--samples", "11")
        assert code == 0
        assert "# form: exact" in out
        for row in data_rows(out):
            q, lam = row.split(",")
            assert q == lam

    def test_final_row_is_unity(self, capsys):
        code, out, _ = run_cli(capsys, "intercept", "--family", "exp:0.5",
                               "--samples", "2")
        assert code == 0
        assert data_rows(out)[-1] == "1,1"

    def test_formula_value_at_nine_tenths(self, capsys):
        code, out, _ = run_cli(capsys, "intercept", "--family", "exp:0.5",
                               "--samples", "11")
        assert code == 0
        row = [r for r in data_rows(out) if r.startswith("0.9,")]
        assert row and row[0].split(",")[1] == "0.851229424501"

    def test_extrapolated_families_labeled(self, capsys):
        _, out, _ = run_cli(capsys, "intercept", "--family", "log:2", "--samples", "3")
        assert "# form: extrapolated" in out


class TestFockCommand:
    def test_small_residuals(self, capsys):
        code, out, _ = run_cli(capsys, "fock", "--dim", "8", "--q", "0.5", "--p", "0.25")
        assert code == 0
        rows = [row.split(",") for row in data_rows(out)]
        assert [r[0] for r in rows] == ["1", "2"]
        assert all(float(r[1]) < 1e-12 for r in rows)

    def test_minimal_undeformed(self, capsys):
        code, out, _ = run_cli(capsys, "fock", "--dim", "2", "--q", "1", "--p", "1")
        assert code == 0
        assert data_rows(out) == ["1,0", "2,0"]

    def test_dimension_below_minimum(self, capsys):
        code, _, err = run_cli(capsys, "fock", "--dim", "1", "--q", "0.5", "--p", "0.5")
        assert code == 2


class TestHugeIndices:
    # Only sizes that the bounds reject are run: one they admit, such as
    # --dim 2^62 (below sys.maxsize) or m2 = 10^7, can take gigabytes.
    @pytest.mark.parametrize("argv", [
        ("curve", "--levels", f"0,{2 ** 62}", "--samples", "3"),
        ("curve", "--levels", f"0,{2 ** 63}", "--samples", "3"),
        ("fock", "--dim", f"{2 ** 63}", "--q", "0.5", "--p", "0.25")])
    def test_is_a_domain_error_with_no_output(self, capsys, tmp_path, argv):
        target = tmp_path / "table.csv"
        for out in ([], ["--out", str(target)]):
            code, stdout, err = run_cli(capsys, *argv, *out)
            assert (code, stdout) == (2, "")
            assert err.startswith("qposc: domain error: ")
            assert "sys.maxsize" in err
            assert not target.exists()


class TestOutputContract:
    def test_repeat_runs_byte_identical(self, capsys):
        args = ("curve", "--levels", "0,3", "--samples", "25")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("name, argv", README_ARGV)
    def test_file_output_matches_stdout(self, capsys, tmp_path, name, argv):
        target = tmp_path / f"{name}.csv"
        _, out, _ = run_cli(capsys, *argv)
        code, to_stdout, _ = run_cli(capsys, *argv, "--out", str(target))
        assert (code, to_stdout) == (0, "")
        blob = target.read_bytes()
        assert blob == out.encode()
        assert b"\r" not in blob

    def test_failing_command_writes_nothing(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        for levels, expected in (("0;2", 1), ("0,0", 2)):
            for out in ([], ["--out", str(target)]):
                code, stdout, err = run_cli(capsys, "curve", "--levels", levels, *out)
                assert (code, stdout) == (expected, "")
                assert err.startswith("qposc: ")
                assert not target.exists()

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_out_path_that_cannot_be_written_is_one_line_and_exit_one(self, capsys, tmp_path,
                                                                      where):
        target = tmp_path if where == "directory" else tmp_path / "missing" / "table.csv"
        code, out, err = run_cli(capsys, "curve", "--levels", "0,2", "--samples", "3",
                                 "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith(f"qposc: cannot write {target}: ")
        assert err.count("\n") == 1

    def test_numbers_round_trip_at_twelve_digits(self, capsys):
        _, out, _ = run_cli(capsys, "curve", "--levels", "2,3", "--samples", "15")
        for row in data_rows(out):
            for token in row.split(","):
                value = float(token)
                assert f"{value:.12g}" == token

    def test_comment_lines_lead_with_hash(self, capsys):
        _, out, _ = run_cli(capsys, "spectrum", "--family", "exp:0.5",
                            "--q", "0.4", "--n-max", "5")
        lines = out.splitlines()
        assert lines[0].startswith("# qposc spectrum")
        assert any(line.startswith("# version:") for line in lines)
