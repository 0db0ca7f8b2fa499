"""covloop benchmark: the refinement loop per target on a seeded offline corpus.

    python3 perfbench/run.py --workload c-small --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

Run from the root of a source checkout; covloop is imported from its `src/`.
Each run generates the workload's programs from the seed, sets up, then makes
serial passes over the programs for about `--seconds` seconds, repeating the
set-up after each of the first passes (`setup_s` is the median). Every target runs through `covloop.driver.run_loop` with a fresh
StubBackend and a fresh absolute workdir; the only concurrency is the
loop driver's own feedback pool. After each target the persisted inputs are
replayed through the corpus oracle and the final report is compared with it.

With `--trace 0` the last line carries the end-to-end metrics. With
`--trace 1` untraced and traced passes alternate; the last line carries the
per-layer metrics from the traced passes and the tracing overhead, and the
span dump and per-layer summary are written next to the run's result file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 5


def import_covloop() -> None:
    src = ROOT / "src"
    if not (src / "covloop" / "__init__.py").is_file():
        sys.exit(f"error: no covloop sources under {src}; run from a covloop checkout")
    sys.path.insert(0, str(src))
    import covloop.driver  # noqa: F401


def timed_import() -> float:
    """Seconds a fresh interpreter spends importing covloop's driver."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import covloop.driver; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def tool_version(cmd: list[str]) -> str:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable ({exc})"
    lines = out.stdout.strip().splitlines()
    return lines[0] if lines else "unknown"


def environment(seed: int) -> dict:
    return {
        "python_harness": platform.python_version(),
        "python_targets": tool_version(
            [sys.executable, "-c", "import platform; print(platform.python_version())"]
        ),
        "gcc": tool_version(["gcc", "--version"]),
        "gcov": tool_version(["gcov", "--version"]),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        from covloop.model import Language

        self.workload = workload
        self.seed = seed
        self.work = work
        self.lane, _, self.threshold = corpus.WORKLOADS[workload]
        self.language = Language.C if self.lane == "c" else Language.PYTHON
        self.targets: list = []
        # One record per target run: (wall seconds, tests executed, final
        # total coverage or None after an error, traced).
        self.records: list[tuple[float, int, float | None, bool]] = []
        self.passes: list[tuple[float, bool]] = []
        self.attempted = 0
        self.errors: list[str] = []
        self.mismatches: list[str] = []
        self._first: dict[str, tuple] = {}
        self._runs = 0

    def setup_once(self, k: int) -> float:
        """Import, corpus generation, toolchain check and one warm-up target."""
        from covloop import harness
        from covloop.model import RunConfig

        import_s = timed_import()
        started = time.perf_counter()
        self.targets = corpus.write_corpus(self.workload, self.seed, self.work / f"corpus{k}")
        harness.check_toolchain(self.language)
        warm = corpus.Program("warmup", ("x",), (), (corpus.If("x > 0", (corpus.Print("x"),)),))
        path = self.work / f"corpus{k}" / f"warmup.{self.lane}"
        path.write_text(corpus.RENDERERS[self.lane](warm).text, encoding="utf-8")
        self._loop(RunConfig(workdir=self.work / f"warmup{k}"), path)
        return import_s + time.perf_counter() - started

    def _loop(self, config, path):
        from covloop.backends import StubBackend
        from covloop.driver import run_loop

        return run_loop(config, path, backend=StubBackend())

    def run_target(self, target, tracer=None) -> float:
        """One timed run_loop call plus its oracle check; returns wall seconds."""
        from covloop.model import RunConfig

        self._runs += 1
        self.attempted += 1
        workdir = self.work / f"run{self._runs}_{target.program.name}"
        config = RunConfig(threshold=self.threshold, workdir=workdir)
        result = None
        started = time.perf_counter()
        try:
            if tracer is None:
                result = self._loop(config, target.path)
            else:
                with tracer.root("driver.run_loop", f"{target.program.name}#{self._runs}"):
                    result = self._loop(config, target.path)
        except Exception as exc:  # a target that raises is counted, not fatal
            self.errors.append(f"{target.program.name}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - started
        if result is None:
            self.records.append((elapsed, 0, None, tracer is not None))
        else:
            self.records.append((elapsed, result.executed_processes,
                                 result.final_report.total_coverage, tracer is not None))
            self._check(target, result)
        shutil.rmtree(workdir, ignore_errors=True)
        return elapsed

    def _check(self, target, result) -> None:
        runs = corpus.read_testcases(result.workdir / "TestCases")
        r = result.final_report
        observed = (
            tuple(runs), r.executed_lines, r.missing_lines,
            r.total_branches, r.taken_branches, r.missing_branches,
        )
        name = target.program.name
        first = self._first.get(name)
        if first is None:
            expected = corpus.expected_coverage(target.program, target.rendered, runs)
            problems = corpus.disagreements(r, expected, target.rendered.n_lines)
            self._first[name] = (observed, problems)
        elif observed != first[0]:
            problems = ["differs from the first pass over the same target"]
        else:
            problems = first[1]
        if problems:
            self.mismatches.append(f"{name}: " + "; ".join(problems))

    def run_pass(self, tracer=None) -> None:
        total = sum(self.run_target(t, tracer) for t in self.targets)
        self.passes.append((total, tracer is not None))

    def by_target(self) -> dict[str, list[float]]:
        """Untraced wall seconds per program, in pass order."""
        out: dict[str, list[float]] = {}
        plain = [r for r in self.records if not r[3]]
        for k, r in enumerate(plain):
            out.setdefault(self.targets[k % len(self.targets)].program.name, []).append(r[0])
        return out

    def durations(self, traced: bool) -> list[float]:
        return [r[0] for r in self.records if r[3] == traced]


def end_to_end(bench: Bench, setups: list[float]) -> dict:
    """Metric name -> (value, sample count), from the untraced passes.

    Each program is summarised by its median over the passes; `target_s_p50`
    is the median of those, `target_s_max` the largest, `suite_s` their sum.
    """
    records = [r for r in bench.records if not r[3]]
    per_program = [statistics.median(d) for d in bench.by_target().values()]
    durations = [r[0] for r in records]
    executed = sum(r[1] for r in records)
    coverage = [r[2] for r in records if r[2] is not None]
    self_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {
        "target_s_p50": (statistics.median(per_program), len(durations)),
        "target_s_max": (max(per_program), len(durations)),
        "suite_s": (sum(per_program), len(durations) // len(per_program)),
        "execs_per_s": (executed / sum(durations), executed),
        "setup_s": (statistics.median(setups), len(setups)),
        "final_cov_pct": (statistics.fmean(coverage) if coverage else 0.0, len(coverage)),
        "rss_mb_self": (self_mb, 1),
        "rss_mb_child_max": (child_mb, 1),
    }


def per_layer(spanlist, n_passes: int, overhead_ms: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from the traced passes' spans."""
    by: dict[str, list] = {}
    for s in spanlist:
        by.setdefault(s.name, []).append(s)

    def p50(*names, pred=lambda s: True):
        ms = [s.duration * 1e3 for n in names for s in by.get(n, []) if pred(s)]
        return statistics.median(ms) if ms else 0.0

    def per_pass(name, pred=lambda s: True, attr=None):
        group = [s for s in by.get(name, []) if pred(s)]
        count = sum(s.attrs[attr] for s in group) if attr else len(group)
        return count / n_passes

    run_ms = [s.duration * 1e3 for s in by.get("harness.run_test", [])] or [0.0]
    schema = lambda value: (lambda s: s.attrs["schema"] == value)  # noqa: E731

    # prompts.build_ms: build + merge + render of one iteration.
    per_iter = []
    steps: dict[int, list[list[float]]] = {}
    for step, name in enumerate(("prompts.build", "prompts.merge", "prompts.render")):
        for s in by.get(name, []):
            steps.setdefault(s.parent, [[], [], []])[step].append(s.duration)
    for build, merge, render in steps.values():
        per_iter += [sum(t) * 1e3 for t in zip(build, merge, render)]

    roots = by.get("driver.run_loop", [])
    own = spans.self_times(spanlist)
    proposed = per_pass("agents.parse_and_filter", attr="proposed")
    novel = per_pass("agents.parse_and_filter", attr="novel")
    return {
        "harness.prepare_target_ms": p50("harness.prepare_target"),
        "harness.run_test_ms_p50": statistics.median(run_ms),
        "harness.run_test_ms_p90": spans.percentile(run_ms, 0.9),
        "harness.run_test.calls": per_pass("harness.run_test"),
        "harness.run_test.timeouts": per_pass(
            "harness.run_test", lambda s: s.attrs["timed_out"]),
        "harness.run_test.nonzero_exits": per_pass(
            "harness.run_test", lambda s: bool(s.attrs["exit_status"])),
        "harness.collect_raw_coverage_ms": p50("harness.collect_raw_coverage"),
        "evaluator.parse_ms": p50("evaluator.parse_gcov", "evaluator.parse_dynamic_coverage"),
        "evaluator.emit_artifact_ms": p50("evaluator.emit_artifact"),
        "agents.complete.test_cases_ms": p50("agents.complete", pred=schema("test_cases")),
        "agents.complete.refinement_ms": p50("agents.complete", pred=schema("refinement")),
        "agents.complete.test_cases.calls": per_pass(
            "agents.complete", schema("test_cases")),
        "agents.complete.refinement.calls": per_pass(
            "agents.complete", schema("refinement")),
        "agents.complete.attempts": per_pass("agents.complete", attr="attempts"),
        "backends.raw_complete_ms": p50("backends.raw_complete"),
        "agents.line_feedback_ms": p50("agents.line_feedback"),
        "agents.branch_feedback_ms": p50("agents.branch_feedback"),
        "agents.parse_and_filter_ms": p50("agents.parse_and_filter"),
        "cache.proposed": proposed,
        "cache.arity_dropped": per_pass("agents.parse_and_filter", attr="arity_dropped"),
        "cache.duplicates": per_pass("agents.parse_and_filter", attr="duplicates"),
        "cache.novel": novel,
        "cache.novel_ratio": novel / proposed if proposed else 0.0,
        "cache.persist_novel_ms": p50("cache.persist_novel"),
        "cache.summary_for_prompt_ms": p50("cache.summary_for_prompt"),
        "prompts.build_ms": statistics.median(per_iter) if per_iter else 0.0,
        "prompts.chars": statistics.median(
            [s.attrs["chars"] for s in by.get("prompts.render", [])] or [0]),
        "analyzer.extract_input_signature_ms": p50("analyzer.extract_input_signature"),
        "driver.self_ms": statistics.median(
            [own[s.id] * 1e3 for s in roots] or [0.0]),
        "driver.iterations": per_pass("agents.parse_and_filter"),
        "driver.zero_novel_iters": per_pass(
            "agents.parse_and_filter", lambda s: s.attrs["novel"] == 0),
        "trace.overhead_ms": overhead_ms,
    }


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def print_row(workload: str, values: dict, units: dict) -> None:
    cells = [f"{name}={values[name][0]:.6g} {units[name]} (n={values[name][1]})"
             for name in units]
    print(f"{workload:<11} " + "  ".join(cells))


def measure(args) -> dict:
    import_covloop()
    out = Path(args.out).resolve()
    work = out / "work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = environment(args.seed)
        bench = Bench(args.workload, args.seed, work)
        # One set-up precedes the first pass; the repeats follow passes, so
        # that their median samples the machine over the whole run.
        setups = [bench.setup_once(0)]
        tracer = spans.Tracer() if args.trace else None
        started = time.perf_counter()
        while True:
            n_traced = sum(traced for _, traced in bench.passes)
            if tracer is not None and len(bench.passes) - n_traced > n_traced:
                with tracer.installed():
                    bench.run_pass(tracer)
            else:
                bench.run_pass()
            if len(setups) < SETUP_REPEATS:
                setups.append(bench.setup_once(len(setups)))
            # Stop at the pass boundary nearest to --seconds; in a traced run
            # only after at least one untraced and one traced pass.
            elapsed = time.perf_counter() - started
            typical = statistics.median(t for t, _ in bench.passes)
            paired = tracer is None or len(bench.passes) >= 2
            if paired and elapsed + typical / 2 >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = end_to_end(bench, setups)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env,
        "attempted": bench.attempted, "failed": len(bench.errors),
        "errors": bench.errors, "mismatches": bench.mismatches,
        "error_frac": len(bench.errors) / bench.attempted,
        "mismatch_frac": len(bench.mismatches) / bench.attempted,
        "end_to_end": {k: {"value": v, "n": n} for k, (v, n) in values.items()},
        "target_s": bench.by_target(),
        "setup_s": setups,
    }
    print("env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    print_row(args.workload, values, declared("end_to_end"))
    print(f"{args.workload:<11} error_frac={result['error_frac']:.6g} "
          f"(n={bench.attempted})  mismatch_frac={result['mismatch_frac']:.6g} "
          f"(n={bench.attempted})")
    for line in sorted(set(bench.errors + bench.mismatches)):
        print(f"  {line}")

    stem = f"{args.workload}_s{args.seed}_t{args.trace}_{time.time_ns()}"
    (out / "results").mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        n_traced = sum(traced for _, traced in bench.passes)
        overhead = (statistics.median(bench.durations(True))
                    - statistics.median(bench.durations(False)))
        layers = per_layer(tracer.spans, n_traced, overhead * 1e3)
        result["per_layer"] = layers
        table = spans.summary(tracer.spans)
        result["span_summary"] = table
        tracer.dump(out / "results" / f"{stem}.spans.jsonl")
        print(f"{'span':<36} {'count':>7} {'p50_ms':>9} {'p90_ms':>9} "
              f"{'total_ms':>10} {'self_ms':>10}")
        for name, row in table.items():
            print(f"{name:<36} {row['count']:>7} {row['p50_ms']:>9.3f} "
                  f"{row['p90_ms']:>9.3f} {row['total_ms']:>10.1f} {row['self_ms']:>10.1f}")
        units = declared("per_layer")
        for name, unit in units.items():
            print(f"{args.workload:<11} {name}={layers[name]:.6g} {unit}")
        metrics = {n: {"value": layers[n], "unit": u} for n, u in units.items()}
    else:
        metrics = {n: {"value": values[n][0], "unit": u}
                   for n, u in declared("end_to_end").items()}
    (out / "results" / f"{stem}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return {
        "correct": not bench.errors and not bench.mismatches,
        "attempted": bench.attempted,
        "failed": len(bench.errors),
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Every workload in its own process, one row each."""
    rows = {}
    for workload in corpus.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: workload {workload} exited with {proc.returncode}")
        print(proc.stdout.rstrip("\n").rsplit("\n", 1)[0])
        rows[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("summary")
    for workload, row in rows.items():
        cells = [f"{n}={m['value']:.6g} {m['unit']}" for n, m in row["metrics"].items()]
        print(f"{workload:<11} correct={row['correct']} " + "  ".join(cells))
    return {
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {f"{w}/{n}": m for w, r in rows.items() for n, m in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*corpus.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "_out"),
                        help="directory for results, span dumps and temporary workdirs")
    args = parser.parse_args(argv)
    if args.workload == "all":
        import_covloop()
        final = run_all(args)
    else:
        final = measure(args)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
