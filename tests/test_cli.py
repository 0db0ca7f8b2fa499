"""CLI behavior: exit codes, summaries, benchmark reports."""

import json
import os
import subprocess
from pathlib import Path

import pytest

import covloop
from conftest import ECHO_C, GUARD_C, GUARD_PY, UNREACHABLE_ARM_C, require_interpreter
from covloop.cli import main


class TestRunCommand:
    def test_threshold_met_exits_zero(self, tmp_path, guard_c, capsys):
        code = main(["run", str(guard_c), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "branch coverage: 100.00%" in out
        assert "termination:     threshold_met" in out

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.c"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_iteration_cap_exits_two(self, tmp_path, capsys):
        target = tmp_path / "hard.c"
        target.write_text(UNREACHABLE_ARM_C)
        code = main([
            "run", str(target), "--max-iters", "1",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_default_relative_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for name, source in (("guard.c", GUARD_C), ("guard.py", GUARD_PY)):
            (tmp_path / name).write_text(source)
            assert main(["run", name]) == 0
            assert "branch coverage: 100.00%" in capsys.readouterr().out
        assert (tmp_path / "covloop_out" / "result.json").exists()

    def test_unparsable_python_target_exits_one(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("def f(:\n")
        code = main(["run", str(target), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error: target does not parse:" in capsys.readouterr().err

    def test_rerun_into_same_out_starts_fresh(self, tmp_path):
        target = tmp_path / "dead.c"
        target.write_text(
            "#include <stdio.h>\n"
            "int main(void) {\n"
            "    volatile int never = 0;\n"
            "    int x = 0;\n"
            "    scanf(\"%d\", &x);\n"
            "    if (never && x == 42)\n"
            "        printf(\"never\\n\");\n"
            "    return 0;\n"
            "}\n"
        )
        out = tmp_path / "out"
        args = ["run", str(target), "--out", str(out)]
        assert main([*args, "--max-iters", "3"]) == 2
        first = json.loads((out / "result.json").read_text())["test_cases"]
        assert main([*args, "--max-iters", "1"]) == 2
        second = json.loads((out / "result.json").read_text())["test_cases"]
        assert second < first
        assert len(list((out / "TestCases").iterdir())) == second
        assert [p.name for p in (out / "prompts").iterdir()] == ["iter_0.txt"]

    def test_bound_is_a_bench_only_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(tmp_path / "x.c"), "--bound", "b"])
        assert exc.value.code == 64

    def test_usage_error_exits_64(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run"])  # missing source argument
        assert exc.value.code == 64

    def test_unknown_backend_rejected(self, tmp_path, guard_c):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(guard_c), "--backend", "carrier-pigeon"])
        assert exc.value.code == 64


@pytest.mark.parametrize("minor", [10, 11, 12, 13])
def test_runs_without_site_packages(tmp_path, guard_py, minor):
    """covloop needs only the standard library: `-S` leaves site-packages out."""
    python = require_interpreter(minor)
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(covloop.__file__).parents[1])}
    proc = subprocess.run(
        [python, "-S", "-m", "covloop.cli", "run", str(guard_py), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "result.json").read_text())["termination"] == "threshold_met"


@pytest.fixture
def bench_dir(tmp_path):
    directory = tmp_path / "suite"
    directory.mkdir()
    (directory / "guard.c").write_text(GUARD_C)
    (directory / "echo.c").write_text(ECHO_C)
    return directory


class TestBenchCommand:
    def test_reports_written_with_one_row_per_target(self, tmp_path, bench_dir, capsys):
        out = tmp_path / "bench_out"
        code = main(["bench", str(bench_dir), "--out", str(out)])
        assert code == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "program,bound,branch_coverage,line_coverage,execution_time_sec"
        assert len(lines) == 3
        assert lines[1].startswith("echo,-,")
        assert lines[2].startswith("guard,-,")
        assert (out / "report.md").read_text().count("|") > 0
        curves = (out / "curves.csv").read_text().splitlines()
        assert curves[0] == "program,k,line,branch"
        assert len(curves) > 2

    def test_empty_directory_yields_header_only(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "out"
        code = main(["bench", str(empty), "--out", str(out)])
        assert code == 0
        assert (out / "report.csv").read_text().splitlines() == [
            "program,bound,branch_coverage,line_coverage,execution_time_sec"
        ]

    def test_failing_target_marked_error_and_run_continues(self, tmp_path, bench_dir):
        (bench_dir / "broken.c").write_text("int main( {\n")
        out = tmp_path / "out"
        code = main(["bench", str(bench_dir), "--out", str(out)])
        assert code == 0
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        assert any(row.startswith("broken,-,ERROR,ERROR") for row in rows)

    def test_bound_label_from_subdirectory(self, tmp_path):
        suite = tmp_path / "suite"
        (suite / "10").mkdir(parents=True)
        (suite / "10" / "guard.c").write_text(GUARD_C)
        out = tmp_path / "out"
        main(["bench", str(suite), "--out", str(out)])
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert rows == [rows[0]]
        assert rows[0].startswith("guard,10,")

    def test_report_matches_run_result_formatting(self, tmp_path, bench_dir):
        out = tmp_path / "out"
        main(["bench", str(bench_dir), "--jobs", "2", "--out", str(out)])
        for workdir_name, program in (("guard__-", "guard"), ("echo__-", "echo")):
            result = json.loads((out / workdir_name / "result.json").read_text())
            row = next(
                r for r in (out / "report.csv").read_text().splitlines()[1:]
                if r.startswith(program + ",")
            )
            cells = row.split(",")
            assert float(cells[2]) == result["final_coverage"]["branch_coverage"]
            assert float(cells[3]) == result["final_coverage"]["line_coverage"]

    def test_mixed_language_suite(self, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "cguard.c").write_text(GUARD_C)
        (suite / "pyguard.py").write_text(GUARD_PY)
        out = tmp_path / "out"
        code = main(["bench", str(suite), "--out", str(out)])
        assert code == 0
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["cguard", "pyguard"]
        assert all(r.split(",")[2] == "100.00" for r in rows)

    def test_sources_sharing_a_stem_get_a_workdir_each(self, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "guard.c").write_text(GUARD_C)
        (suite / "guard.py").write_text(GUARD_PY)
        (suite / "echo.c").write_text(ECHO_C)
        out = tmp_path / "out"
        assert main(["bench", str(suite), "--out", str(out)]) == 0
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["echo", "guard.c", "guard.py"]
        for name in ("guard.c", "guard.py"):
            manifest = json.loads((out / f"{name}__-" / "manifest.json").read_text())
            assert manifest["source"] == name
            assert (out / f"{name}__-" / "result.json").exists()

    def test_a_stem_shared_across_labels_keeps_its_name(self, tmp_path):
        suite = tmp_path / "suite"
        (suite / "10").mkdir(parents=True)
        (suite / "guard.c").write_text(GUARD_C)
        (suite / "10" / "guard.py").write_text(GUARD_PY)
        out = tmp_path / "out"
        assert main(["bench", str(suite), "--out", str(out)]) == 0
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [["guard", "-"], ["guard", "10"]]
        assert (out / "guard__-" / "result.json").exists()
        assert (out / "guard__10" / "result.json").exists()
