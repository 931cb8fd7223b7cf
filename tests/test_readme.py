"""The README's Python blocks run, and each print's comment agrees with what it prints.

A comment's decimal numbers must each be a printed word, or with a trailing
"..." the start of one, and its quoted strings must each be a printed word.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
NUMBER = re.compile(r"-?\d+\.\d+(?:e-?\d+)?(\.\.\.)?")
QUOTED = re.compile(r'"([^"]*)"')


def test_readme_python_blocks_print_what_their_comments_say():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        printed = [line.split() for line in out.getvalue().splitlines()]
        comments = [
            line.partition("#")[2] for line in block.splitlines() if line.startswith("print(")
        ]
        assert len(printed) == len(comments)
        for words, comment in zip(printed, comments):
            for match in NUMBER.finditer(comment):
                if match.group(1):
                    prefix = match.group(0)[: -len("...")]
                    assert any(word.startswith(prefix) for word in words), (comment, words)
                else:
                    assert match.group(0) in words, (comment, words)
            for text in QUOTED.findall(comment):
                assert text in words, (comment, words)
