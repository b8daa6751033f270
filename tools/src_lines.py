#!/usr/bin/env python3
"""Counts the lines of the library's C++ sources, per module and in total.

Usage:

    python3 tools/src_lines.py [--root DIR] [--against REV]

Counts every line (blank and comment lines included, as `wc -l` does) of
each `*.cpp` and `*.hpp` file under `src/`. A module is the first directory
below `src/arfs/` (`storage` includes `storage/durable`); a file anywhere
else under `src/` counts under its own directory. It prints one line per
module in name order, then the total, so line targets and before/after
counts of a change come from one reproducible command.

`--against REV` also reads `src/` at git revision REV (`git ls-tree` and
`git show`) and prints, per module and in total, the lines at REV, the
lines now and the difference.
"""

import argparse
import pathlib
import subprocess
import sys


def module_of(parts: tuple[str, ...]) -> str:
    """The module of a path given as its parts below `src/`."""
    if len(parts) > 2 and parts[0] == "arfs":
        return parts[1]
    return "/".join(parts[:-1]) or "."


def is_source(name: str) -> bool:
    return name.endswith((".cpp", ".hpp"))


def count_tree(src: pathlib.Path) -> dict[str, list[int]]:
    """[files, lines] per module of the working tree's `src/`."""
    modules: dict[str, list[int]] = {}
    for path in sorted(src.rglob("*")):
        if not is_source(path.name) or not path.is_file():
            continue
        entry = modules.setdefault(module_of(path.relative_to(src).parts),
                                   [0, 0])
        entry[0] += 1
        entry[1] += path.read_bytes().count(b"\n")
    return modules


def git(root: pathlib.Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True).stdout


def count_rev(root: pathlib.Path, rev: str) -> dict[str, list[int]]:
    """[files, lines] per module of `src/` at git revision `rev`."""
    modules: dict[str, list[int]] = {}
    listing = git(root, "ls-tree", "-r", "--name-only", rev, "src/")
    for name in sorted(listing.decode().splitlines()):
        if not is_source(name):
            continue
        parts = pathlib.PurePosixPath(name).relative_to("src").parts
        entry = modules.setdefault(module_of(parts), [0, 0])
        entry[0] += 1
        entry[1] += git(root, "show", f"{rev}:{name}").count(b"\n")
    return modules


def print_counts(modules: dict[str, list[int]]) -> None:
    width = max((len(name) for name in modules), default=5)
    total_files = total_lines = 0
    for name in sorted(modules):
        files, lines = modules[name]
        total_files += files
        total_lines += lines
        print(f"{name:<{width}}  {files:4d} files  {lines:7,d} lines")
    print(f"{'total':<{width}}  {total_files:4d} files  {total_lines:7,d} lines")


def print_against(old: dict[str, list[int]], new: dict[str, list[int]],
                  rev: str) -> None:
    names = sorted(set(old) | set(new))
    width = max([len(name) for name in names] + [6])
    label = rev[:12]
    col = max(9, len(label))
    print(f"{'module':<{width}}  {label:>{col}}  {'now':>{col}}  "
          f"{'change':>7}")
    total_old = total_new = 0
    for name in names + ["total"]:
        if name == "total":
            before, after = total_old, total_new
        else:
            before = old.get(name, [0, 0])[1]
            after = new.get(name, [0, 0])[1]
            total_old += before
            total_new += after
        print(f"{name:<{width}}  {before:{col},d}  {after:{col},d}  "
              f"{after - before:+7,d}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: the checkout this script is in)",
    )
    parser.add_argument("--against", metavar="REV",
                        help="also count src/ at REV and print the change")
    args = parser.parse_args()
    src = args.root / "src"
    if not src.is_dir():
        print(f"no src/ directory under {args.root}", file=sys.stderr)
        return 2

    modules = count_tree(src)
    if args.against is None:
        print_counts(modules)
        return 0
    try:
        old = count_rev(args.root, args.against)
    except subprocess.CalledProcessError as error:
        print(error.stderr.decode().strip(), file=sys.stderr)
        return 2
    print_against(old, modules, args.against)
    return 0


if __name__ == "__main__":
    sys.exit(main())
