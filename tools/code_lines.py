"""Count the code lines of Python source files.

A line counts when it holds a token other than a comment, a line break,
an indent or a dedent, or a string that makes up a whole statement (a
docstring). Every line a counted token spans counts, so each line of a
multi-line expression or string counts. Blank lines, comment-only lines
and docstrings do not.

Usage: python3 tools/code_lines.py PATH [PATH ...]

Prints the count of each .py file under the paths, then their total. It
writes nothing.
"""

from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of source, by the rule above."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Count the code lines of Python source files.")
    parser.add_argument("paths", nargs="+", type=Path,
                        help="files, or directories searched for *.py")
    files = sorted(f for p in parser.parse_args(argv).paths
                   for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for f in files:
        n = code_lines(f.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
