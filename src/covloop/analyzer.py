"""Input-signature extraction from target source text.

Python sources are parsed with `ast`: a read is a bare `input(...)` call.
C sources are scanned lexically: comments and literal contents are blanked
first (offsets and line breaks stay put), then each `scanf(` or
`fscanf(stdin,` call is matched with one pattern and the conversions of its
literal format string are typed: `d i u` integer, `a e f g` in either case
float, `c` char, `s` string; `%n` is not a read, and anything else reads a
string. A read whose format is not a closed literal is not counted. Reads
inside loops are counted once per textual site, since their runtime
repetition count is not statically known here. In Python a loop is a loop's
body, a `while` test, or a comprehension past its first iterable; in C, a
loop's header and its braced or unbraced body.

What the scan cannot type or count it logs at INFO (shown by `covloop -v`),
with the line where it has one: a read inside a loop, direct `sys.stdin`
access, a C read without a closed literal format, a conversion it cannot
type, and `getchar`, `gets` or `fgets(..., stdin)`.
"""

from __future__ import annotations

import ast
import logging
import re
from pathlib import Path

from .errors import ContractViolation, CovloopError
from .model import InputKind, InputSignature, Language

log = logging.getLogger(__name__)

LOOP_READ = "stdin read inside a loop; counted once per textual site"


# A source's suffix decides its language.
EXTENSIONS = {".c": Language.C, ".py": Language.PYTHON}


def detect_language(path: str | Path) -> Language:
    suffix = Path(path).suffix
    try:
        return EXTENSIONS[suffix]
    except KeyError:
        raise ContractViolation(
            f"unsupported extension {suffix!r} for {path} (expected .c or .py)"
        ) from None


def extract_input_signature(source: str, language: Language) -> InputSignature:
    """Count stdin reads and classify each one, in source order."""
    if language is Language.PYTHON:
        return _scan_python(source)
    return _scan_c(source)


# --- Python scanning ---

_PY_CASTS = {"int": InputKind.INTEGER, "float": InputKind.FLOAT}


def _scan_python(source: str) -> InputSignature:
    try:
        tree = ast.parse(source, "<target>")
    except (SyntaxError, ValueError) as exc:
        raise CovloopError(f"target does not parse: {exc}") from None
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
            children = value if isinstance(value, list) else (value,)
            for i, child in enumerate(children):
                if isinstance(child, ast.AST):
                    stack.append((child, in_loop or _repeats(node, field, i)))

    reads.sort()
    for lineno, _, _, in_loop in reads:
        if in_loop:
            log.info("line %d: %s", lineno, LOOP_READ)
    if reads_stdin:
        log.info("direct sys.stdin access is not classified")
    return tuple(kind for _, _, kind, _ in reads)


_PY_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _repeats(node: ast.AST, field: str, index: int) -> bool:
    """Whether `node.<field>[index]` can run more than once each time `node`
    runs: a loop's body, a `while` test, and all of a comprehension but its
    first iterable. A `for` header and a loop's `else:` run once."""
    if isinstance(node, ast.For):
        return field == "body"
    if isinstance(node, ast.While):
        return field in ("body", "test")
    if isinstance(node, _PY_COMPREHENSIONS):
        return field != "generators" or index > 0
    if isinstance(node, ast.comprehension):
        return field != "iter"
    return False


# --- C scanning ---

# Conversion classification: d/i/u, a/e/f/g in either case, c and s are
# typed; %n stores a count and reads nothing; anything else is a read we cannot
# type, so it degrades to string and is logged.
_C_KIND_BY_CONV = {
    **dict.fromkeys("diu", InputKind.INTEGER),
    **dict.fromkeys("aAeEfFgG", InputKind.FLOAT),
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
# One stdin read, matched in blanked text up to where its format argument
# starts: that offset is a key of the string table only when the format is a
# closed literal.
_C_STDIN_READ = re.compile(r"\b(?:scanf\s*\(|fscanf\s*\(\s*stdin\s*,)\s*")
_C_UNCOUNTED_READS = re.compile(r"\b(?:getchar|gets)\s*\(|\bfgets\s*\([^)]*\bstdin\b")


def _scan_c(source: str) -> InputSignature:
    blanked, strings = _blank_c_lexemes(source)
    kinds: list[InputKind] = []
    loop_lines = _c_loop_lines(blanked)

    for m in _C_STDIN_READ.finditer(blanked):
        lineno = blanked.count("\n", 0, m.start()) + 1
        fmt = strings.get(m.end())
        if fmt is None:
            log.info("line %d: stdin read without a literal format string", lineno)
            continue
        specs = _parse_conversions(fmt, lineno)
        kinds.extend(specs)
        if lineno in loop_lines and specs:
            log.info("line %d: %s", lineno, LOOP_READ)
    if _C_UNCOUNTED_READS.search(blanked):
        log.info("character/line read functions present but not counted")
    return tuple(kinds)


def _parse_conversions(fmt: str, lineno: int) -> list[InputKind]:
    """A kind per conversion specifier of the format string on that line."""
    kinds: list[InputKind] = []
    for m in _C_CONVERSION.finditer(fmt):
        conv = m.group(1)
        if not conv or conv == "n":
            continue
        kind = _C_KIND_BY_CONV.get(conv)
        if kind is None:
            log.info("line %d: unclassified conversion %%%s; treated as string",
                     lineno, conv)
        kinds.append(kind or InputKind.STRING)
    return kinds


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
    """Line numbers of tokens inside a loop (best effort): from a loop
    keyword through its header, and then its braced body or its single
    unbraced statement. A line counts whole, so a read that shares a line
    with a loop counts as inside it; the finding this feeds is advisory only.
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
        if pending_loop or any(stack):
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
