#!/usr/bin/env python3
"""Count the code lines of every module in ``src/fracmom``.

A line counts when a token other than a comment or a docstring starts
on it or spans it; blank lines, comment-only lines and docstring lines
do not.  A docstring is a string literal that forms a statement of its
own.  Prints one row per module and then the total:

    python scripts/code_lines.py
    python scripts/code_lines.py --src path/to/package
"""

import argparse
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fracmom"

# tokens that carry no code of their own
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_STATEMENT_START = {None, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(path: Path) -> int:
    """Number of lines of ``path`` that hold code."""
    with tokenize.open(path) as handle:
        tokens = [t for t in tokenize.generate_tokens(handle.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    prev = None
    for i, tok in enumerate(tokens):
        nxt = tokens[i + 1].type if i + 1 < len(tokens) else None
        docstring = (tok.type == tokenize.STRING and prev in _STATEMENT_START
                     and nxt == tokenize.NEWLINE)
        if tok.type not in _LAYOUT and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        prev = tok.type
    return len(lines)


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=PACKAGE,
                    help="package directory (default: src/fracmom)")
    args = ap.parse_args(argv)

    counts = {p.name: code_lines(p) for p in sorted(args.src.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
