"""Tests for language detection and input-signature extraction."""

import pytest

from covloop.analyzer import detect_language, extract_input_signature
from covloop.errors import UnsupportedLanguage
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
        with pytest.raises(UnsupportedLanguage):
            detect_language("prog.java")


def kinds_of(source, language):
    sig, _ = extract_input_signature(source, language)
    return list(sig)


class TestPythonScan:
    def test_int_then_plain(self):
        sig, _ = extract_input_signature(
            "x = int(input())\ny = input()", Language.PYTHON
        )
        assert len(sig) == 2
        assert list(sig) == [INT, STR]

    def test_float_cast(self):
        assert kinds_of("v = float(input())", Language.PYTHON) == [FLT]

    def test_no_reads(self):
        sig, _ = extract_input_signature("print('hello')", Language.PYTHON)
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

    def test_loop_read_warns(self):
        source = "while True:\n    v = input()\n"
        sig, warnings = extract_input_signature(source, Language.PYTHON)
        assert len(sig) == 1
        assert any("loop" in w.message for w in warnings)

    def test_top_level_read_does_not_warn_about_loops(self):
        _, warnings = extract_input_signature("v = input()\n", Language.PYTHON)
        assert not any("loop" in w.message for w in warnings)

    def test_read_after_loop_block_does_not_warn(self):
        source = "for i in range(3):\n    print(i)\nv = input()\n"
        _, warnings = extract_input_signature(source, Language.PYTHON)
        assert not any("loop" in w.message for w in warnings)
        source = "for i in range(3):\n    print(i)\nelse:\n    v = input()\n"
        _, warnings = extract_input_signature(source, Language.PYTHON)
        assert not any("loop" in w.message for w in warnings)

    def test_pure_function_of_source(self):
        source = "a = int(input())\nb = float(input())\n"
        first, _ = extract_input_signature(source, Language.PYTHON)
        second, _ = extract_input_signature(source, Language.PYTHON)
        assert first == second


class TestCScan:
    def test_two_ints_one_call(self):
        sig, _ = extract_input_signature(
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

    def test_unknown_conversion_defaults_to_string_with_warning(self):
        sig, warnings = extract_input_signature('scanf("%x", &x);', Language.C)
        assert list(sig) == [STR]
        assert any("unclassified" in w.message for w in warnings)

    def test_scanset_reads_a_string(self):
        sig, warnings = extract_input_signature('scanf("%[a-z]", s);', Language.C)
        assert list(sig) == [STR]
        assert warnings

    def test_fscanf_stdin_counted(self):
        assert kinds_of('fscanf(stdin, "%d", &x);', Language.C) == [INT]

    def test_fscanf_file_not_counted(self):
        sig, warnings = extract_input_signature('fscanf(fp, "%d", &x);', Language.C)
        assert sig == ()
        assert warnings == []

    def test_format_not_a_closed_literal_warns(self):
        for source in ('scanf(fmt, &x);', 'scanf("%d'):
            sig, warnings = extract_input_signature(source, Language.C)
            assert sig == ()
            assert [w.message for w in warnings] == [
                "stdin read without a literal format string"
            ]

    def test_comment_before_format_literal_still_counts(self):
        assert kinds_of('scanf(/* fmt */ "%d", &x);', Language.C) == [INT]
        assert kinds_of('fscanf(stdin, // fmt\n "%c", &c);', Language.C) == [CHR]

    def test_count_conversion_is_not_a_read(self):
        sig, warnings = extract_input_signature('scanf("%d%n", &x, &n);', Language.C)
        assert list(sig) == [INT]
        assert warnings == []

    def test_float_conversions(self):
        sig, warnings = extract_input_signature(
            'double d; scanf("%lg %a %A %e %E %F %g %G", &d);', Language.C
        )
        assert list(sig) == [FLT] * 8
        assert warnings == []

    def test_scanf_in_comment_not_counted(self):
        assert kinds_of('/* scanf("%d", &x); */ int y;', Language.C) == []
        assert kinds_of('// scanf("%d", &x);\nint y;', Language.C) == []

    def test_scanf_word_in_string_not_counted(self):
        assert kinds_of('printf("scanf(%d) docs");', Language.C) == []
        assert kinds_of('char q = \'"\';\nscanf("%d", &x);', Language.C) == [INT]

    def test_loop_read_warns(self):
        source = 'int main(){int i,x;for(i=0;i<3;i++){scanf("%d",&x);}return 0;}'
        sig, warnings = extract_input_signature(source, Language.C)
        assert len(sig) == 1
        assert any("loop" in w.message for w in warnings)

    def test_straight_line_read_does_not_warn(self):
        source = 'int main(){int x;scanf("%d",&x);return 0;}'
        _, warnings = extract_input_signature(source, Language.C)
        assert not any("loop" in w.message for w in warnings)

    def test_getchar_warns_without_counting(self):
        sig, warnings = extract_input_signature(
            "int main(){int c=getchar();return 0;}", Language.C
        )
        assert len(sig) == 0
        assert warnings


def test_kinds_length_always_matches_count():
    sources = [
        ("x = int(input())\n" * 4, Language.PYTHON, 4),
        ('scanf("%d%s%c", &a, s, &c);', Language.C, 3),
        ("", Language.PYTHON, 0),
    ]
    for source, language, count in sources:
        sig, _ = extract_input_signature(source, language)
        assert len(sig) == count
        assert all(isinstance(kind, InputKind) for kind in sig)
