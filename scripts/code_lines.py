"""Count the code lines of Python files: lines that hold a token other than a comment.

A line counts when it holds a token that is not a comment, a blank or a
docstring. A docstring here is any string statement: a logical line made of
string literals alone. A string that is assigned, passed or returned is
code, and every line of a multi-line token counts. Prints each file's count,
then the total:

    python3 scripts/code_lines.py src/einselect
"""

from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

# Tokens that are layout, not code.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of lines of source that hold code (see the module docstring)."""
    lines = set()
    logical = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in logical):
                for t in logical:
                    lines.update(range(t.start[0], t.end[0] + 1))
            logical = []
        elif token.type not in _LAYOUT:
            logical.append(token)
    return len(lines)


def _files(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="Python files or directories to search for them")
    args = parser.parse_args(argv)
    total = 0
    for path in _files(args.paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
