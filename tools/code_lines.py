"""Count the code lines of every Python module under a directory.

A line counts when a token other than a comment, a line break
(NL/NEWLINE), an INDENT/DEDENT or a docstring covers it; a docstring is a
string token that opens a statement.  Blank lines, comments and docstrings
therefore never count, and a statement over several lines counts each of
its lines.

Usage: python3 tools/code_lines.py DIR

Prints one "count path" line per module, sorted by path, then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                    tokenize.ENCODING}


def code_lines(path: Path) -> int:
    lines: set[int] = set()
    previous = tokenize.ENCODING  # the last token that was not a comment or NL
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in (tokenize.COMMENT, tokenize.NL):
                continue
            docstring = tok.type == tokenize.STRING and previous in _STATEMENT_START
            if tok.type not in _SKIPPED and not docstring:
                lines.update(range(tok.start[0], tok.end[0] + 1))
            previous = tok.type
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: code_lines.py DIR", file=sys.stderr)
        return 2
    root = Path(argv[0])
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path.relative_to(root)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
