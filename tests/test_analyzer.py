"""Tests for language detection and input-signature extraction."""

import logging

import pytest

from covloop.analyzer import LOOP_READ, detect_language, extract_input_signature
from covloop.errors import ContractViolation
from covloop.model import InputKind, Language

INT = InputKind.INTEGER
FLT = InputKind.FLOAT
STR = InputKind.STRING
CHR = InputKind.CHAR


class TestDetectLanguage:
    def test_c(self):
        assert detect_language("prog.c") is Language.C

    def test_python(self):
        assert detect_language("prog.py") is Language.PYTHON

    def test_other_rejected(self):
        with pytest.raises(ContractViolation, match="unsupported extension"):
            detect_language("prog.java")


def kinds_of(source, language):
    return list(extract_input_signature(source, language))


@pytest.fixture
def logged(caplog):
    """Read and clear the findings the analyzer logged since the last call."""
    caplog.set_level(logging.INFO, logger="covloop.analyzer")

    def messages():
        records = [r for r in caplog.records if r.name == "covloop.analyzer"]
        caplog.clear()
        assert all(r.levelno == logging.INFO for r in records)
        return [r.getMessage() for r in records]

    return messages


class TestPythonScan:
    def test_int_then_plain(self):
        sig = extract_input_signature(
            "x = int(input())\ny = input()", Language.PYTHON
        )
        assert len(sig) == 2
        assert list(sig) == [INT, STR]

    def test_float_cast(self):
        assert kinds_of("v = float(input())", Language.PYTHON) == [FLT]

    def test_no_reads(self):
        sig = extract_input_signature("print('hello')", Language.PYTHON)
        assert len(sig) == 0
        assert sig == ()
        assert kinds_of("obj.input()", Language.PYTHON) == []
        assert kinds_of("def input(prompt=''):\n    return '1'\n", Language.PYTHON) == []

    def test_prompt_argument_does_not_confuse(self):
        assert kinds_of('x = int(input("enter x: "))', Language.PYTHON) == [INT]

    def test_read_inside_string_not_counted(self):
        assert kinds_of("s = 'call input() later'", Language.PYTHON) == []

    def test_read_inside_comment_not_counted(self):
        assert kinds_of("# x = input()\ny = 1", Language.PYTHON) == []

    def test_loop_read_warns(self, logged):
        source = "while True:\n    v = input()\n"
        sig = extract_input_signature(source, Language.PYTHON)
        assert len(sig) == 1
        assert logged() == [f"line 2: {LOOP_READ}"]

    def test_loop_reads_are_logged_in_source_order(self, logged):
        source = ("for i in range(2):\n    a = input()\n    b = int(input())\n"
                  "while 1:\n    d = {input(): input()}\n")
        assert kinds_of(source, Language.PYTHON) == [STR, INT, STR, STR]
        assert logged() == [f"line {n}: {LOOP_READ}" for n in (2, 3, 5, 5)]

    def test_top_level_read_does_not_warn_about_loops(self, logged):
        assert kinds_of("v = input()\n", Language.PYTHON) == [STR]
        assert logged() == []

    def test_read_after_loop_block_does_not_warn(self, logged):
        # Nor does a read in a part of a loop that runs once: a `for` header,
        # an `else:`, a comprehension's first iterable.
        for source in ("for i in range(3):\n    print(i)\nv = input()\n",
                       "for i in range(3):\n    print(i)\nelse:\n    v = input()\n",
                       "n = 0\nwhile n < 3:\n    n += 1\nv = input()\n",
                       "for c in input():\n    print(c)\n",
                       "cs = [c for c in input()]\n"):
            assert kinds_of(source, Language.PYTHON) == [STR]
            assert logged() == []

    @pytest.mark.parametrize("source, lines", [
        ("xs = [int(input()) for _ in range(3)]\n", [1]),
        ("d = {input(): input() for _ in range(2)}\n", [1, 1]),
        ("n = sum(1 for _ in range(3)\n        if input())\n", [2]),
        ("ys = {y for x in range(2) for y in input()}\n", [1]),
    ])
    def test_comprehension_reads_are_loop_reads(self, logged, source, lines):
        assert len(kinds_of(source, Language.PYTHON)) == len(lines)
        assert logged() == [f"line {n}: {LOOP_READ}" for n in lines]

    def test_while_test_read_is_a_loop_read(self, logged):
        source = 'n = 0\nwhile input() != "q":\n    n += 1\n'
        assert kinds_of(source, Language.PYTHON) == [STR]
        assert logged() == [f"line 2: {LOOP_READ}"]

    def test_direct_stdin_access_is_logged(self, logged):
        source = "import sys\nx = int(input())\ndata = sys.stdin.read()\n"
        assert kinds_of(source, Language.PYTHON) == [INT]
        assert logged() == ["direct sys.stdin access is not classified"]

    def test_pure_function_of_source(self):
        source = "a = int(input())\nb = float(input())\n"
        first = extract_input_signature(source, Language.PYTHON)
        second = extract_input_signature(source, Language.PYTHON)
        assert first == second


class TestCScan:
    def test_two_ints_one_call(self):
        sig = extract_input_signature(
            'int main(){int a,b;scanf("%d %d",&a,&b);return 0;}', Language.C
        )
        assert len(sig) == 2
        assert list(sig) == [INT, INT]

    def test_specifier_classification(self):
        source = 'scanf("%d %i %u %ld %f %lf %c %s", ...);'
        assert kinds_of(source, Language.C) == [
            INT, INT, INT, INT, FLT, FLT, CHR, STR
        ]

    def test_literal_percent_not_a_read(self):
        assert kinds_of('scanf("100%% %d", &x);', Language.C) == [INT]
        assert kinds_of('scanf("%d%", &x);', Language.C) == [INT]

    def test_width_skipped(self):
        assert kinds_of('scanf("%5d %10s", &x, s);', Language.C) == [INT, STR]

    def test_suppressed_conversion_still_consumes(self):
        assert kinds_of('scanf("%*d %d", &x);', Language.C) == [INT, INT]

    def test_unknown_conversion_defaults_to_string_with_warning(self, logged):
        sig = extract_input_signature('int x;\nscanf("%d %x", &x, &x);', Language.C)
        assert list(sig) == [INT, STR]
        assert logged() == ["line 2: unclassified conversion %x; treated as string"]

    def test_scanset_reads_a_string(self, logged):
        sig = extract_input_signature('scanf("%[a-z]", s);', Language.C)
        assert list(sig) == [STR]
        assert logged() == ["line 1: unclassified conversion %[a-z]; treated as string"]

    def test_fscanf_stdin_counted(self):
        assert kinds_of('fscanf(stdin, "%d", &x);', Language.C) == [INT]

    def test_fscanf_file_not_counted(self, logged):
        sig = extract_input_signature('fscanf(fp, "%d", &x);', Language.C)
        assert sig == ()
        assert logged() == []

    def test_format_not_a_closed_literal_warns(self, logged):
        for source in ('scanf(fmt, &x);', 'int x;\n\nscanf("%d'):
            sig = extract_input_signature(source, Language.C)
            assert sig == ()
            line = source.count("\n") + 1
            assert logged() == [f"line {line}: stdin read without a literal format string"]

    def test_comment_before_format_literal_still_counts(self):
        assert kinds_of('scanf(/* fmt */ "%d", &x);', Language.C) == [INT]
        assert kinds_of('fscanf(stdin, // fmt\n "%c", &c);', Language.C) == [CHR]

    def test_count_conversion_is_not_a_read(self, logged):
        sig = extract_input_signature('scanf("%d%n", &x, &n);', Language.C)
        assert list(sig) == [INT]
        assert logged() == []

    def test_float_conversions(self, logged):
        sig = extract_input_signature(
            'double d; scanf("%lg %a %A %e %E %F %g %G", &d);', Language.C
        )
        assert list(sig) == [FLT] * 8
        assert logged() == []

    def test_scanf_in_comment_not_counted(self):
        assert kinds_of('/* scanf("%d", &x); */ int y;', Language.C) == []
        assert kinds_of('// scanf("%d", &x);\nint y;', Language.C) == []

    def test_scanf_word_in_string_not_counted(self):
        assert kinds_of('printf("scanf(%d) docs");', Language.C) == []
        assert kinds_of('char q = \'"\';\nscanf("%d", &x);', Language.C) == [INT]

    def test_loop_read_warns(self, logged):
        source = 'int main(){int i,x;for(i=0;i<3;i++){scanf("%d",&x);}return 0;}'
        sig = extract_input_signature(source, Language.C)
        assert len(sig) == 1
        assert logged() == [f"line 1: {LOOP_READ}"]

    @pytest.mark.parametrize("source, line", [
        ('int main(){int x,s=0;\nwhile (scanf("%d", &x) == 1)\n  s += x;\nreturn s;}', 2),
        ('int main(){int i,a[3];\nfor (i = 0; i < 3; i++) scanf("%d", &a[i]);\nreturn 0;}', 2),
        ('int main(){int i,x;\nfor (i = 0; i < 3; i++)\n  scanf("%d", &x);\nreturn 0;}', 3),
        ('int main(){int x,n=0;\ndo {\n  n++;\n} while (scanf("%d", &x) == 1);\n'
         'return n;}', 4),
    ])
    def test_header_and_unbraced_body_reads_are_loop_reads(self, logged, source, line):
        assert kinds_of(source, Language.C) == [INT]
        assert logged() == [f"line {line}: {LOOP_READ}"]

    @pytest.mark.parametrize("source", [
        'int main(){int i,s=0,x;\nfor (i = 0; i < 3; i++)\n  s += i;\nscanf("%d", &x);\n}',
        'int main(){int i=3,x;\nwhile (i--)\n  ;\nscanf("%d", &x);\n}',
        'int main(){int i=3,x;\ndo {\n  i--;\n} while (i);\nscanf("%d", &x);\n}',
    ])
    def test_read_after_a_loop_does_not_warn(self, logged, source):
        assert kinds_of(source, Language.C) == [INT]
        assert logged() == []

    def test_findings_of_one_read_are_logged_in_order(self, logged):
        source = ('int main(void){\n  int x;\n  while (1) {\n'
                  '    scanf("%x %d", &x, &x);\n    scanf(fmt);\n  }\n}\n')
        assert kinds_of(source, Language.C) == [STR, INT]
        assert logged() == [
            "line 4: unclassified conversion %x; treated as string",
            f"line 4: {LOOP_READ}",
            "line 5: stdin read without a literal format string",
        ]

    def test_straight_line_read_does_not_warn(self, logged):
        source = 'int main(){int x;scanf("%d",&x);return 0;}'
        assert kinds_of(source, Language.C) == [INT]
        assert logged() == []

    def test_getchar_warns_without_counting(self, logged):
        sig = extract_input_signature(
            "int main(){int c=getchar();return 0;}", Language.C
        )
        assert len(sig) == 0
        assert logged() == ["character/line read functions present but not counted"]

    @pytest.mark.parametrize("call", ["gets(b)", "fgets(b, 8, stdin)"])
    def test_line_reads_warn_without_counting(self, logged, call):
        source = f"int main(){{char b[8];{call};return 0;}}"
        assert kinds_of(source, Language.C) == []
        assert logged() == ["character/line read functions present but not counted"]

    def test_fgets_from_a_file_logs_nothing(self, logged):
        assert kinds_of("int main(){char b[8];fgets(b, 8, fp);return 0;}", Language.C) == []
        assert logged() == []


def test_kinds_length_always_matches_count():
    sources = [
        ("x = int(input())\n" * 4, Language.PYTHON, 4),
        ('scanf("%d%s%c", &a, s, &c);', Language.C, 3),
        ("", Language.PYTHON, 0),
    ]
    for source, language, count in sources:
        sig = extract_input_signature(source, language)
        assert len(sig) == count
        assert all(isinstance(kind, InputKind) for kind in sig)
