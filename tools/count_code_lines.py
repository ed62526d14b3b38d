"""Count the code lines of the slowdrive sources.

A code line is a physical line that holds at least one token that is neither
a comment nor part of a docstring. A docstring is a statement made of string
literals alone, such as the first statement of a module, class or function.
Blank lines, comment lines and docstring lines do not count.

Usage: python tools/count_code_lines.py [DIR ...]   (default: src/slowdrive)
"""

from __future__ import annotations

import os
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: str) -> int:
    """The number of code lines in one Python file."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in _LAYOUT:
                statement.append(tok)
    return len(lines)


def count(root: str) -> int:
    """Code lines summed over every ``.py`` file below ``root``."""
    total = 0
    for folder, _, files in os.walk(root):
        total += sum(code_lines(os.path.join(folder, f)) for f in files if f.endswith(".py"))
    return total


def main(argv: list[str]) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    roots = argv or [os.path.join(here, "..", "src", "slowdrive")]
    for root in roots:
        print(f"{count(root)} {os.path.normpath(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
