#!/usr/bin/env python
"""Count the project's Python lines, per package and per tree.

A counted line is a non-blank line of a ``*.py`` file that does not
start with ``#`` (leading whitespace aside).  One row per
``src/repro/`` package (a package counts its subpackages; the modules
directly under ``src/repro/`` are ``repro``), then one total per tree:
``src/``, ``tests/``, ``benchmarks/``, ``scripts/``, ``examples/``.

``--against REV`` adds REV's counts and the change to every row, then
lists each file whose count changed.  REV's files are read with
``git show`` (nothing is checked out); the other side is the working
tree.  Run from anywhere::

    python scripts/count_lines.py
    python scripts/count_lines.py --against HEAD~1
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks", "scripts", "examples")


def count(text: str) -> int:
    """Counted lines of one file's text."""
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def worktree_counts(root: Path = ROOT) -> dict[str, int]:
    """``{path: counted lines}`` for every ``*.py`` file in the trees."""
    return {path.relative_to(root).as_posix():
            count(path.read_text(encoding="utf-8"))
            for tree in TREES for path in sorted((root / tree).rglob("*.py"))}


def revision_counts(rev: str, root: Path = ROOT) -> dict[str, int]:
    """The same counts for the files committed at ``rev``."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=root, check=True,
                              capture_output=True, text=True).stdout

    paths = git("ls-tree", "-r", "--name-only", rev, "--", *TREES).split()
    return {path: count(git("show", f"{rev}:{path}"))
            for path in paths if path.endswith(".py")}


def package(path: str) -> str:
    """The package row of a file under ``src/repro/``."""
    parts = path.split("/")
    return "repro" if len(parts) == 3 else f"repro.{parts[2]}"


def totals(counts: dict[str, int]) -> dict[str, int]:
    """Package rows (``src/repro/`` only), then one row per tree."""
    packages: dict[str, int] = {}
    trees = dict.fromkeys((f"{tree}/" for tree in TREES), 0)
    for path, lines in counts.items():
        trees[path.split("/")[0] + "/"] += lines
        if path.startswith("src/repro/"):
            key = package(path)
            packages[key] = packages.get(key, 0) + lines
    return {**dict(sorted(packages.items())), **trees}


def render(now: dict[str, int], before: "dict[str, int] | None" = None,
           rev: str = "") -> str:
    rows_now = totals(now)
    if before is None:
        return "\n".join(f"{key:<24}{lines:>8,}"
                         for key, lines in rows_now.items())
    rows_before = totals(before)
    keys = [*rows_before, *(k for k in rows_now if k not in rows_before)]
    lines = [f"{'':<24}{rev[:10]:>10}{'now':>10}{'change':>9}"]
    for key in keys:
        a, b = rows_before.get(key, 0), rows_now.get(key, 0)
        lines.append(f"{key:<24}{a:>10,}{b:>10,}{b - a:>+9,}")
    changed = [(path, before.get(path, 0), now.get(path, 0))
               for path in sorted(set(before) | set(now))
               if before.get(path, 0) != now.get(path, 0)]
    if changed:
        width = max(len(path) for path, _a, _b in changed)
        lines += ["", f"{'file':<{width}}{rev[:10]:>10}{'now':>10}"
                      f"{'change':>9}"]
        lines += [f"{path:<{width}}{a:>10,}{b:>10,}{b - a:>+9,}"
                  for path, a, b in changed]
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="REV", default=None,
                        help="also print the change from REV, per file")
    args = parser.parse_args(argv)
    before = revision_counts(args.against) if args.against else None
    print(render(worktree_counts(), before, args.against or ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
