"""Count the code lines of the ``apdrec`` package.

A code line holds at least one token that is not a comment, a newline, an
indent or dedent, or part of a statement that is a string alone (a
docstring).  Run from anywhere, with no arguments:

    python tools/code_lines.py

It prints each module's count and the total for ``src/apdrec``.
"""

import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "apdrec"
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
}


def code_lines(path: Path) -> int:
    """Lines holding a token of a statement that is not a string alone."""
    lines = set()
    statement = []
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in LAYOUT:
                continue
            if tok.type not in (tokenize.NEWLINE, tokenize.ENDMARKER):
                statement.append(tok)
                continue
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  src/apdrec")


if __name__ == "__main__":
    main()
