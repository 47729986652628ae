"""A ceiling on the package's code lines, so that `src/` cannot grow unseen.

A code line holds a token other than a comment, NL, NEWLINE, INDENT, DEDENT
or ENDMARKER, and is not part of a module, class or function docstring:
blank lines, comments and docstrings are free. A change that adds code
lines raises CEILING in the same diff and says why in CHANGES.md; one that
deletes code lines lowers it to the new count.
"""

import ast
import io
import tokenize
from pathlib import Path

import cantornorm

CEILING = 1438

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """How many lines of `source` are code lines."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            # a string spanning lines, an f-string's parts too, holds each
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def test_counter_counts_code_lines_only():
    source = '''"""Module docstring,
on two lines."""

import sys  # a comment after code


def f(x):
    """Function docstring."""
    # a comment alone
    total = (x +
             1)
    return f"""{total}
{sys.argv}"""
'''
    # import, def, the two lines of the continued statement and the two of
    # the multi-line f-string
    assert code_lines(source) == 6


def test_src_code_lines_stay_under_the_ceiling():
    package = Path(cantornorm.__file__).resolve().parent
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py"))}
    total = sum(counts.values())
    assert total <= CEILING, (
        f"src/ has {total} code lines, more than the ceiling of {CEILING}: "
        + ", ".join(f"{name} {count}" for name, count in counts.items()))
