"""Cross-lane oracle: each C/Python twin takes the same branch arms on the
same input, the C side measured by gcov and the Python side by the probes,
on every Python interpreter found."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TWINS, require_interpreter
from covloop import harness
from covloop.model import Language, TestCase

# Where gcc puts a statement's body arm among the two that gcov lists on its
# line, at -O0: (index, whether it is the fallthrough arm). An `if` falls
# through into its body; a loop tests its condition at the bottom and jumps
# back into its body, so its fallthrough arm is the exit.
GCOV_BODY_ARM = {"if": (0, True), "while": (0, False), "for": (0, False)}


def one_run(target, values):
    """(body taken, else taken) of each branch site, in statement order,
    after one run of `values` on a target whose coverage is reset first."""
    if target.language is Language.C:
        (target.build_dir / f"{target.source.stem}.gcda").unlink(missing_ok=True)
    elif target.data_store.exists():
        size = target.data_store.stat().st_size
        with open(target.data_store, "r+b") as hits:
            hits.write(bytes(size))
    outcome = harness.run_test(target, TestCase(tuple(map(str, values))), timeout=10.0)
    assert outcome.exit_status == 0
    entry = harness.collect_raw_coverage(target)
    if target.language is Language.C:
        source = target.source.read_text().splitlines()
    sites = []
    for line in sorted(entry["lines"], key=lambda line: line["line_number"]):
        arms = line["branches"]
        if not arms:
            continue
        body = 0
        if target.language is Language.C:
            kind = re.match(r"[\s}]*(?:else\s+)?(if|while|for)\b", source[line["line_number"] - 1])
            body, fallthrough = GCOV_BODY_ARM[kind.group(1)]
            assert arms[body]["fallthrough"] is fallthrough
        assert len(arms) == 2
        sites.append((arms[body]["count"] > 0, arms[1 - body]["count"] > 0))
    return sites


@pytest.fixture(scope="module")
def c_sites(tmp_path_factory):
    """(twin, values) -> the C side's sites after one run; each twin is
    built once, and each input run once across interpreters."""
    targets, seen = {}, {}

    def sites(name, values):
        if name not in targets:
            source = tmp_path_factory.mktemp(name) / f"{name}.c"
            source.write_text(TWINS[name][1])
            targets[name] = harness.prepare_target(source, source.parent / "work")
        if (name, values) not in seen:
            seen[name, values] = one_run(targets[name], values)
        return seen[name, values]

    yield sites
    for target in targets.values():
        target.close()


@pytest.mark.parametrize("minor", [10, 11, 12, 13])
@pytest.mark.parametrize("name", sorted(TWINS))
def test_twins_take_the_same_arms(tmp_path, c_sites, name, minor):
    python = require_interpreter(minor)
    reads, _, py_source = TWINS[name]
    script = tmp_path / f"{name}.py"
    script.write_text(py_source)
    with harness.prepare_target(script, tmp_path / "work") as target:
        target.test_argv = (python, *target.test_argv[1:])

        @settings(max_examples=12, deadline=None, derandomize=True)
        @given(st.tuples(*[st.integers(-2, 5)] * reads))
        def same_arms(values):
            assert one_run(target, values) == c_sites(name, values)

        same_arms()


def test_every_twin_takes_every_arm(c_sites):
    """The inputs reach both arms of every site, so the oracle above can
    tell a body arm from an else arm."""
    for name, (reads, _, _) in TWINS.items():
        for outcomes in zip(*(c_sites(name, (value,) * reads) for value in range(-2, 6))):
            assert [any(arm) for arm in zip(*outcomes)] == [True, True], name
