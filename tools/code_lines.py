#!/usr/bin/env python3
"""Count code lines: ``python tools/code_lines.py PATH... [--ceiling N]``.

A line counts if it carries a token that is not a comment, a docstring
or a bare string statement.  Prints one row per argument (a directory
is every ``*.py`` under it) and a total; exits 1 above the ceiling.
"""

import argparse
import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Code lines of one Python source file."""
    with tokenize.open(path) as handle:
        source = handle.read()
    prose = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            prose.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(iter(source.splitlines(True)).__next__):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - prose)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path, metavar="PATH")
    parser.add_argument("--ceiling", type=int, default=None)
    args = parser.parse_args(argv)
    total = 0
    for root in args.paths:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        count = sum(code_lines(path) for path in files)
        print(f"{count:7d}  {root}")
        total += count
    print(f"{total:7d}  total")
    if args.ceiling is not None and total > args.ceiling:
        print(f"over the ceiling of {args.ceiling} by {total - args.ceiling}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
