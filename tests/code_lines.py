"""Count the code lines of the latsize package, per module and in total.

A code line is a line that holds a tokenize token other than a comment,
NL, NEWLINE, INDENT, DEDENT, ENDMARKER or a statement-level string (a
docstring, or any string that is a statement by itself). Blank lines,
comment lines and docstring lines are not code lines; a line with code
and a trailing comment is one.

Run it from the root of the checkout:

    python tests/code_lines.py [package directory, default src/latsize]

It is a script, not a test: pytest collects only files named test_*.py.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# comments and NL tokens are dropped on reading, so that a string after a comment line still starts a statement
_SKIPPED = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
# tokens after which a string starts a statement
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """The number of code lines of the Python source file at path."""
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.type == tokenize.STRING and tokens[i - 1].type in _STATEMENT_START:
            # a run of strings (implicit concatenation) that ends the statement is statement-level
            j = i
            while tokens[j].type == tokenize.STRING:
                j += 1
            if tokens[j].type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                i = j
                continue
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        i += 1
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path("src/latsize")
    counts = {path.stem: code_lines(path) for path in sorted(root.glob("*.py"))}
    for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:12} {n:6,}")
    print(f"{'total':12} {sum(counts.values()):6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
