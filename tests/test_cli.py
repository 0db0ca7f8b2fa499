"""CLI behavior: exit codes, summaries, benchmark reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import covloop
from conftest import (
    ECHO_C, GUARD_C, GUARD_PY, UNREACHABLE_ARM_C, ScriptedEndpoint, require_interpreter,
)
from covloop import driver
from covloop.analyzer import LOOP_READ
from covloop.backends import API_KEY_ENV, HttpBackend, StubBackend, make_backend
from covloop.cli import _config_from_args, build_parser, main
from covloop.errors import BackendError
from covloop.model import RunConfig
from covloop.prompts import MISSING_BRANCHES_ANCHOR, MISSING_LINES_ANCHOR


TIMEOUT_LIMIT = "argument --timeout: per_test_timeout must be at most 86400 seconds: "
OUT_OF_RANGE = pytest.mark.parametrize("flag, value, message", [
    ("--max-iters", "0", "argument --max-iters: k_max must be >= 1: 0"),
    ("--threshold", "0", "argument --threshold: threshold must be in (0, 100]: 0.0"),
    ("--timeout", "-1", "argument --timeout: per_test_timeout must be positive"),
    ("--timeout", "inf", TIMEOUT_LIMIT + "inf"),
    ("--timeout", "nan", TIMEOUT_LIMIT + "nan"),
    ("--timeout", "1e300", TIMEOUT_LIMIT + "1e+300"),
    ("--timeout", "3000000", TIMEOUT_LIMIT + "3000000.0"),
])

# A C program that gcc compiles, with a Latin-1 "e acute" in a comment.
LATIN1_C = b"/* caf\xe9 */\n" + GUARD_C.encode()

# A C program whose one read sits inside a braced loop, on line 5.
LOOP_READ_C = """\
#include <stdio.h>
int main(void) {
    int i, x = 0;
    for (i = 0; i < 2; i++) {
        if (scanf("%d", &x) == 1 && x > 3)
            puts("big");
    }
    return 0;
}
"""

# A char read: the stub's char values cycle with the batch, unlike its
# integer values, so the cases show which batches a run was sent.
CHAR_GUARD_C = """\
#include <stdio.h>
int main(void) {
    char c = 0;
    scanf(" %c", &c);
    if (c == 'q')
        puts("quit");
    return 0;
}
"""

# An endpoint reply whose one known path holds no string, so no attempt of
# any completion gives a valid payload.
TEXTLESS_REPLY = (200, {}, json.dumps({"candidates": [{"content": {"parts": [{"text": None}]}}]}))


def chat_reply(cases):
    """A chat-style endpoint reply that passes both schemas: a request does
    not say which one it asks for, and each ignores the other's keys."""
    content = {"test_cases": cases, "gap_explanation": "x == 42 never holds",
               "prompt_refinements": ["try integer input 42"]}
    return (200, {}, json.dumps({"choices": [{"message": {"content": json.dumps(content)}}]}))


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

    def test_repeated_prompt_exits_two(self, tmp_path):
        target = tmp_path / "square.py"
        target.write_text("x = int(input())\nif x * x == -1:\n    print('no')\n")
        out = tmp_path / "out"
        assert main(["run", str(target), "--out", str(out)]) == 2
        assert json.loads((out / "result.json").read_text())["termination"] == "stagnated"

    def test_backend_failure_exits_one(self, tmp_path, guard_c, monkeypatch, capsys):
        class FailsAtOnce(StubBackend):
            def raw_complete(self, prompt, schema_id):
                raise BackendError("model went away")

        monkeypatch.setattr(driver, "make_backend", lambda config: FailsAtOnce())
        out = tmp_path / "out"
        assert main(["run", str(guard_c), "--out", str(out)]) == 1
        assert "termination:     backend_failure" in capsys.readouterr().out
        assert json.loads((out / "result.json").read_text())["termination"] == "backend_failure"

    def test_a_reply_without_text_ends_as_backend_failure(self, tmp_path, guard_c, endpoint,
                                                          capsys):
        ScriptedEndpoint.script = [TEXTLESS_REPLY]
        out = tmp_path / "out"
        assert main(["run", str(guard_c), "--endpoint", endpoint, "--out", str(out)]) == 1
        assert "termination:     backend_failure" in capsys.readouterr().out
        assert json.loads((out / "result.json").read_text())["termination"] == "backend_failure"
        assert len(ScriptedEndpoint.seen) == 3

    def test_the_loop_over_http_meets_the_threshold(self, tmp_path, guard_py, endpoint, capsys):
        # The first batch misses x == 42, so both analysts post, at once on
        # the run's pool, before the second batch hits it.
        ScriptedEndpoint.script = [chat_reply([["1"]])] * 3 + [chat_reply([["42"]])]
        out = tmp_path / "out"
        assert main(["run", str(guard_py), "--endpoint", endpoint, "--model", "m",
                     "--out", str(out)]) == 0
        assert "termination:     threshold_met" in capsys.readouterr().out
        prompts = [seen["body"]["prompt"] for seen in ScriptedEndpoint.seen]
        assert len(prompts) == 4
        assert prompts[0] == (out / "prompts" / "iter_0.txt").read_text()
        assert prompts[3] == (out / "prompts" / "iter_1.txt").read_text()
        for anchor in (MISSING_LINES_ANCHOR, MISSING_BRANCHES_ANCHOR):
            assert sorted(anchor in prompt for prompt in prompts[1:3]) == [False, True]
        assert "try integer input 42" in prompts[3]
        result = json.loads((out / "result.json").read_text())
        assert [r["novel_tests"] for r in result["iterations"]] == [1, 1]
        assert result["final_coverage"]["total_coverage"] == 100.0

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

    def test_backend_is_an_unknown_flag(self, guard_c):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(guard_c), "--backend", "http"])
        assert exc.value.code == 64

    def test_endpoint_without_credential_exits_one(self, tmp_path, guard_c, monkeypatch, capsys):
        # The endpoint alone picks the HTTP backend, which refuses to start
        # without its credential, before the workdir is made.
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        out = tmp_path / "out"
        code = main(["run", str(guard_c), "--endpoint", "http://127.0.0.1:9/x",
                     "--out", str(out)])
        assert code == 1
        assert f"${API_KEY_ENV}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verbose", [True, False])
    def test_analyzer_findings_show_only_with_verbose(self, tmp_path, verbose):
        # In a child process: under pytest the root logger already has
        # handlers, so main's logging.basicConfig would not write to stderr.
        target = tmp_path / "loop.c"
        target.write_text(LOOP_READ_C)
        flags = ["-v"] if verbose else []
        env = {**os.environ, "PYTHONPATH": str(Path(covloop.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "covloop.cli", *flags, "run", str(target),
             "--max-iters", "1", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode in (0, 2), proc.stderr
        finding = f"INFO covloop.analyzer: line 5: {LOOP_READ}\n"
        if verbose:
            assert proc.stderr.count(finding) == 1
        else:
            assert proc.stderr == ""

    def test_source_named_like_an_option(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-g.c").write_text(GUARD_C)
        assert main(["run", "./-g.c", "--out", "out"]) == 0
        assert "branch coverage: 100.00%" in capsys.readouterr().out

    def test_source_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        target = tmp_path / "latin1.c"
        target.write_bytes(LATIN1_C)
        code = main(["run", str(target), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {target} is not UTF-8 text: ")
        assert "Traceback" not in err

    @OUT_OF_RANGE
    def test_out_of_range_flag_exits_64(self, tmp_path, guard_c, capsys, flag, value, message):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", str(guard_c), "--out", str(out), flag, value])
        assert exc.value.code == 64
        assert f"covloop run: error: {message}\n" in capsys.readouterr().err
        assert not out.exists()


class TestRunConfig:
    def test_flag_defaults_are_the_config_defaults(self):
        assert _config_from_args(build_parser().parse_args(["run", "x.c"])) == RunConfig()

    def test_no_endpoint_is_the_stub(self):
        assert isinstance(make_backend(RunConfig()), StubBackend)

    def test_an_endpoint_is_the_http_backend(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "k")
        backend = make_backend(RunConfig(endpoint="http://127.0.0.1:9/x", model_id="m"))
        assert isinstance(backend, HttpBackend)
        assert (backend.endpoint, backend.model_id) == ("http://127.0.0.1:9/x", "m")


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


def assert_one_error_line(err, path):
    """`err` is the single `error:` line that `main` prints, naming `path`."""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert path in err


class TestBenchCommand:
    @OUT_OF_RANGE
    def test_out_of_range_flag_exits_64_before_out_is_made(
            self, tmp_path, bench_dir, capsys, flag, value, message):
        out = tmp_path / "bench_out"
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(bench_dir), "--out", str(out), flag, value])
        assert exc.value.code == 64
        assert f"covloop bench: error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_64_before_out_is_made(self, tmp_path, bench_dir, capsys, jobs):
        out = tmp_path / "bench_out"
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(bench_dir), "--out", str(out), "--jobs", jobs])
        assert exc.value.code == 64
        assert (f"covloop bench: error: argument --jobs: must be >= 1: {jobs}\n"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_endpoint_without_credential_exits_one_before_out_is_made(
            self, tmp_path, bench_dir, monkeypatch, capsys):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        out = tmp_path / "bench_out"
        code = main(["bench", str(bench_dir), "--endpoint", "http://127.0.0.1:9/x",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: an endpoint needs a credential in ${API_KEY_ENV}\n")
        assert not out.exists()

    def test_out_naming_a_file_exits_one(self, tmp_path, bench_dir, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["bench", str(bench_dir), "--out", str(out)]) == 1
        assert_one_error_line(capsys.readouterr().err, str(out))
        assert out.read_text() == ""

    def test_missing_directory_exits_one_before_out_is_made(self, tmp_path, capsys):
        out = tmp_path / "bench_out"
        assert main(["bench", str(tmp_path / "nope"), "--out", str(out)]) == 1
        assert_one_error_line(capsys.readouterr().err, str(tmp_path / "nope"))
        assert not out.exists()

    def test_file_as_directory_exits_one(self, tmp_path, bench_dir, capsys):
        source = bench_dir / "guard.c"
        out = tmp_path / "bench_out"
        assert main(["bench", str(source), "--out", str(out)]) == 1
        assert_one_error_line(capsys.readouterr().err, str(source))
        assert not out.exists()

    def test_each_stub_target_starts_afresh(self, tmp_path):
        # Two copies of one program get the same cases, in the same order, as
        # a run of it alone: no stub state carries over between targets.
        suite = tmp_path / "suite"
        suite.mkdir()
        for name in ("a.c", "b.c"):
            (suite / name).write_text(CHAR_GUARD_C)
        out = tmp_path / "out"
        assert main(["bench", str(suite), "--out", str(out)]) == 0
        assert main(["run", str(suite / "a.c"), "--out", str(tmp_path / "alone")]) == 0

        def cases(workdir):
            return {p.name: p.read_text() for p in (workdir / "TestCases").iterdir()}

        alone = cases(tmp_path / "alone")
        assert len(alone) > 3
        assert cases(out / "a__-") == alone
        assert cases(out / "b__-") == alone

    def test_reports_written_with_one_row_per_target(self, tmp_path, bench_dir, capsys):
        out = tmp_path / "bench_out"
        code = main(["bench", str(bench_dir), "--out", str(out)])
        assert code == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == ("program,bound,branch_coverage,line_coverage,execution_time_sec,"
                            "termination")
        assert len(lines) == 3
        assert lines[1].startswith("echo,-,")
        assert lines[2].startswith("guard,-,")
        table = [line.split(",") for line in lines]
        assert (out / "report.md").read_text().splitlines() == [
            "| " + " | ".join(table[0]) + " |", "|---|---|---|---|---|---|",
            *("| " + " | ".join(row) + " |" for row in table[1:])]
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
            "program,bound,branch_coverage,line_coverage,execution_time_sec,termination"
        ]

    def test_failing_target_marked_error_and_run_continues(self, tmp_path, bench_dir):
        (bench_dir / "broken.c").write_text("int main( {\n")
        out = tmp_path / "out"
        code = main(["bench", str(bench_dir), "--out", str(out)])
        assert code == 0
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        assert "broken,-,ERROR,ERROR,ERROR,ERROR" in rows

    def test_a_backend_failure_still_gets_its_row(self, tmp_path, bench_dir, endpoint):
        ScriptedEndpoint.script = [TEXTLESS_REPLY]
        out = tmp_path / "out"
        assert main(["bench", str(bench_dir), "--endpoint", endpoint, "--out", str(out)]) == 0
        rows = (out / "report.csv").read_text().splitlines()[1:]
        cells = [row.split(",") for row in rows]
        assert [c[:4] + c[5:] for c in cells] == [
            ["echo", "-", "100.00", "0.00", "backend_failure"],
            ["guard", "-", "0.00", "0.00", "backend_failure"],
        ]  # echo has no branch, so none is missed
        assert len(ScriptedEndpoint.seen) == 6

    def test_source_named_like_an_option_is_measured(self, tmp_path, bench_dir):
        (bench_dir / "echo.c").unlink()
        (bench_dir / "-g.c").write_text(GUARD_C)
        out = tmp_path / "out"
        assert main(["bench", str(bench_dir), "--out", str(out)]) == 0
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:4] for row in rows] == [
            ["-g", "-", "100.00", "100.00"], ["guard", "-", "100.00", "100.00"],
        ]

    def test_source_that_is_not_utf8_is_an_error_row(self, tmp_path, bench_dir):
        (bench_dir / "echo.c").unlink()
        (bench_dir / "latin1.c").write_bytes(LATIN1_C)
        out = tmp_path / "out"
        assert main(["bench", str(bench_dir), "--out", str(out)]) == 0
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:4] for row in rows] == [
            ["guard", "-", "100.00", "100.00"], ["latin1", "-", "ERROR", "ERROR"],
        ]

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
            assert cells[5] == result["termination"]

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
