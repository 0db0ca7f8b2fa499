"""Input-signature extraction from target source text.

Python sources are parsed with `ast`: a read is a bare `input(...)` call.
C sources are scanned lexically: comments and literal contents are blanked
first (offsets and line breaks stay put), then `scanf`/`fscanf(stdin, ...)`
calls are matched and their format strings classified. Reads inside loops are
counted once per textual site and flagged with a warning, since their runtime
repetition count is not statically known here.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import CompileError, UnsupportedLanguage
from .model import InputKind, InputSignature, Language


@dataclass(frozen=True)
class AnalyzerWarning:
    message: str
    line: int | None = None


_EXTENSIONS = {".c": Language.C, ".py": Language.PYTHON}


def detect_language(path: str | Path) -> Language:
    suffix = Path(path).suffix
    try:
        return _EXTENSIONS[suffix]
    except KeyError:
        raise UnsupportedLanguage(
            f"unsupported extension {suffix!r} for {path} (expected .c or .py)"
        ) from None


def extract_input_signature(
    source: str, language: Language
) -> tuple[InputSignature, list[AnalyzerWarning]]:
    """Count stdin reads and classify each one, in source order."""
    if language is Language.PYTHON:
        kinds, warnings = _scan_python(source)
    else:
        kinds, warnings = _scan_c(source)
    return InputSignature(count=len(kinds), kinds=tuple(kinds)), warnings


# --- Python scanning ---

_PY_CASTS = {"int": InputKind.INTEGER, "float": InputKind.FLOAT}


def _scan_python(source: str) -> tuple[list[InputKind], list[AnalyzerWarning]]:
    try:
        tree = ast.parse(source, "<target>")
    except (SyntaxError, ValueError) as exc:
        raise CompileError(f"target does not parse: {exc}") from None
    reads: list[tuple[int, int, InputKind, bool]] = []
    cast_args: dict[int, InputKind] = {}  # id of a cast's first argument -> cast
    reads_stdin = False
    stack: list[tuple[ast.AST, bool]] = [(tree, False)]
    while stack:
        node, in_loop = stack.pop()
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "input":
                kind = cast_args.get(id(node), InputKind.STRING)
                reads.append((node.lineno, node.col_offset, kind, in_loop))
            elif node.func.id in _PY_CASTS and node.args:
                cast_args[id(node.args[0])] = _PY_CASTS[node.func.id]
        elif (
            isinstance(node, ast.Attribute) and node.attr == "stdin"
            and isinstance(node.value, ast.Name) and node.value.id == "sys"
        ):
            reads_stdin = True
        for field, value in ast.iter_fields(node):
            # Only a loop's body repeats a read; its header and else: run once.
            child_in_loop = in_loop or (
                field == "body" and isinstance(node, (ast.For, ast.While))
            )
            for child in value if isinstance(value, list) else (value,):
                if isinstance(child, ast.AST):
                    stack.append((child, child_in_loop))

    kinds: list[InputKind] = []
    warnings: list[AnalyzerWarning] = []
    for lineno, _, kind, in_loop in sorted(reads):
        kinds.append(kind)
        if in_loop:
            warnings.append(
                AnalyzerWarning(
                    "stdin read inside a loop; counted once per textual site",
                    line=lineno,
                )
            )
    if reads_stdin:
        warnings.append(AnalyzerWarning("direct sys.stdin access is not classified"))
    return kinds, warnings


# --- C scanning ---

# Conversion classification: only d/i/u, f, c, s are recognized; everything
# else is a read we cannot type, so it degrades to string with a warning.
_C_KIND_BY_CONV = {
    "d": InputKind.INTEGER,
    "i": InputKind.INTEGER,
    "u": InputKind.INTEGER,
    "f": InputKind.FLOAT,
    "c": InputKind.CHAR,
    "s": InputKind.STRING,
}
# One conversion per match. Group 1 is empty for "%%" and for a "%" dangling at
# the end; `.?` rather than `.` keeps a trailing "%l" from backtracking into
# the length modifiers and reading "l" as the conversion.
_C_CONVERSION = re.compile(r"%(?:%|\*?\d*[hlLjzt]*(\[\^?\]?[^\]]*\]?|.?))", re.S)
# Comments (an unclosed block comment runs to the end) and closed string or
# char literals; group 1 is a string literal's raw content.
_C_LEXEME = re.compile(
    r'//[^\n]*|/\*.*?(?:\*/|\Z)|"((?:[^"\\\n]|\\.)*)"|\'(?:[^\'\\\n]|\\.)*\'',
    re.S,
)
_NOT_NEWLINE = re.compile(r"[^\n]")
_C_UNCOUNTED_READS = re.compile(r"\b(?:getchar|gets)\s*\(|\bfgets\s*\([^)]*\bstdin\b")


def _scan_c(source: str) -> tuple[list[InputKind], list[AnalyzerWarning]]:
    blanked, strings = _blank_c_lexemes(source)
    kinds: list[InputKind] = []
    warnings: list[AnalyzerWarning] = []
    loop_lines = _c_loop_lines(blanked)

    for m in re.finditer(r"\b(?:scanf|fscanf)\s*\(", blanked):
        lineno = blanked.count("\n", 0, m.start()) + 1
        call = m.group(0)
        fmt = _format_string_for_call(blanked, strings, m.end(), call)
        if fmt is None:
            warnings.append(
                AnalyzerWarning("stdin read without a literal format string", lineno)
            )
            continue
        specs, unknown = _parse_conversions(fmt)
        kinds.extend(specs)
        for conv in unknown:
            warnings.append(
                AnalyzerWarning(
                    f"unclassified conversion %{conv}; treated as string", lineno
                )
            )
        if lineno in loop_lines and specs:
            warnings.append(
                AnalyzerWarning(
                    "stdin read inside a loop; counted once per textual site", lineno
                )
            )
    if _C_UNCOUNTED_READS.search(blanked):
        warnings.append(
            AnalyzerWarning("character/line read functions present but not counted")
        )
    return kinds, warnings


def _format_string_for_call(
    blanked: str, strings: dict[int, str], call_end: int, call_text: str
) -> str | None:
    """Find the format-string literal of a scanf-family call.

    For fscanf the first argument must be stdin for the call to count as a
    stdin read at all.
    """
    if "fscanf" in call_text:
        rest = blanked[call_end : call_end + 80]
        if not re.match(r"\s*stdin\s*,", rest):
            return None
    for pos in sorted(strings):
        if pos >= call_end:
            # Must be within this call's argument list, not a later statement.
            between = blanked[call_end:pos]
            if ";" in between or ")" in between:
                return None
            return strings[pos]
    return None


def _parse_conversions(fmt: str) -> tuple[list[InputKind], list[str]]:
    """A kind per conversion specifier of one format string, and the unclassified ones."""
    kinds: list[InputKind] = []
    unknown: list[str] = []
    for m in _C_CONVERSION.finditer(fmt):
        conv = m.group(1)
        if not conv:
            continue
        kind = _C_KIND_BY_CONV.get(conv)
        if kind is None:
            unknown.append(conv)
        kinds.append(kind or InputKind.STRING)
    return kinds, unknown


def _blank_c_lexemes(source: str) -> tuple[str, dict[int, str]]:
    """Blank comments and literal contents, keeping quotes and line breaks.

    Returns the blanked text and {string literal start: raw content}.
    """
    strings: dict[int, str] = {}

    def blank(m: re.Match) -> str:
        text = m.group()
        if text[0] not in "\"'":
            return _NOT_NEWLINE.sub(" ", text)
        if m.group(1) is not None:
            strings[m.start()] = m.group(1)
        return text[0] + _NOT_NEWLINE.sub(" ", text[1:-1]) + text[0]

    return _C_LEXEME.sub(blank, source), strings


def _c_loop_lines(blanked: str) -> set[int]:
    """Line numbers inside any brace-delimited loop body (best effort).

    Loop bodies without braces are not detected; the warning this feeds is
    advisory only.
    """
    loop_lines: set[int] = set()
    stack: list[bool] = []
    pending_loop = False
    paren_depth = 0
    lineno = 1
    for m in re.finditer(r"\n|[{}();]|[A-Za-z_]\w*", blanked):
        tok = m.group(0)
        if tok == "\n":
            lineno += 1
            continue
        if any(stack):
            loop_lines.add(lineno)
        if tok == "(":
            paren_depth += 1
        elif tok == ")":
            paren_depth = max(0, paren_depth - 1)
        elif tok == "{":
            stack.append(pending_loop)
            pending_loop = False
        elif tok == "}":
            if stack:
                stack.pop()
        elif tok == ";":
            if paren_depth == 0:
                pending_loop = False
        elif tok in ("for", "while", "do"):
            pending_loop = True
    return loop_lines
