#!/usr/bin/env python3
"""Counts the lines of the library's C++ sources, per module and in total.

Usage:

    python3 tools/src_lines.py [--root DIR]

Counts every line (blank and comment lines included, as `wc -l` does) of
each `*.cpp` and `*.hpp` file under `src/`. A module is the first directory
below `src/arfs/` (`storage` includes `storage/durable`); a file anywhere
else under `src/` counts under its own directory. It prints one line per
module in name order, then the total, so line targets and before/after
counts of a change come from one reproducible command.
"""

import argparse
import pathlib
import sys


def module_of(path: pathlib.Path, src: pathlib.Path) -> str:
    parts = path.relative_to(src).parts
    if len(parts) > 2 and parts[0] == "arfs":
        return parts[1]
    return "/".join(parts[:-1]) or "."


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: the checkout this script is in)",
    )
    args = parser.parse_args()
    src = args.root / "src"
    if not src.is_dir():
        print(f"no src/ directory under {args.root}", file=sys.stderr)
        return 2

    modules: dict[str, list[int]] = {}
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".cpp", ".hpp") or not path.is_file():
            continue
        files_lines = modules.setdefault(module_of(path, src), [0, 0])
        files_lines[0] += 1
        files_lines[1] += path.read_bytes().count(b"\n")

    width = max((len(name) for name in modules), default=5)
    total_files = total_lines = 0
    for name in sorted(modules):
        files, lines = modules[name]
        total_files += files
        total_lines += lines
        print(f"{name:<{width}}  {files:4d} files  {lines:7,d} lines")
    print(f"{'total':<{width}}  {total_files:4d} files  {total_lines:7,d} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
