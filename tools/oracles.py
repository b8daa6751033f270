#!/usr/bin/env python3
"""Lists every recorded oracle of the repository: name, value and place.

Usage:

    python3 tools/oracles.py [--root DIR] [--against REV] [--check]

Prints one `name value file:line` line per recorded oracle, read from:

  * `tests/*.cpp`: each top-level `constexpr` constant (or brace list) of
    64-bit hex pins (a list entry is `name[i]`), every other literal
    constant of `digest_pin_test.cpp`, and each hex pin written inline as
    the expected value of an `EXPECT_EQ`/`ASSERT_EQ`/`EXPECT_PIN`/
    `expect_sweep_digest` call, named `Suite.Test` after its enclosing
    gtest (`Suite.Test#2` for the second pin of one test);
  * `tests/frame_alloc_test.cpp`: each exact `k...Allocs` pin;
  * `tools/CMakeLists.txt`: each `check` of the `arfsctl_sweep_digests`
    ctest, named by its `arfsctl sweep` arguments;
  * `perfbench/oracles.hpp`: each workload's recorded run digest.

A hex pin counts only with at least 12 significant hex digits, so mixing
constants and input words written in hex stay out of the list.

`--against REV` reads the same files at git revision REV (`git show`) and
prints, for every name whose value changed, was added or was removed, the
old value next to the new one, then a one-line summary. `--check` exits 1
unless names are unique and the known anchors are present
(`kChainFleetDigest`, the six sweep checks, the three perfbench oracles).
"""

import argparse
import pathlib
import re
import subprocess
import sys

HEX_LITERAL = re.compile(r"\b0[xX]([0-9a-fA-F]+)")
CONSTANT = re.compile(
    r"^constexpr\s+[\w:<>]+\s+(k\w+)(?:\[\])?\s*=")
TEST_HEADER = re.compile(r"^TEST(?:_F|_P)?\((\w+),\s*(\w+)\)")
INLINE_CALL = re.compile(
    r"\b(EXPECT_EQ|ASSERT_EQ|EXPECT_PIN|expect_sweep_digest)\(")
ALLOC_PIN = re.compile(
    r"^constexpr\s+std::uint64_t\s+(k\w+Allocs)\s*=\s*([^;]+);")
SWEEP_CHECK = re.compile(r"\bcheck\s+(0x[0-9a-fA-F]+)\s+([^;]*);")
PERFBENCH = re.compile(
    r'workload\s*==\s*"(\w+)"\)\s*return\s+(0x[0-9a-fA-F]+)')
NON_ORACLE = {"kFnvBasis"}

SWEEP_TEST = "arfsctl_sweep_digests"
PERFBENCH_WORKLOADS = ("fleet_wide", "crash_sweep", "serve_stream")


def hex_pins(text: str) -> list[str]:
    """The hex pins in `text`, lower-cased as written."""
    return ["0x" + digits.lower() for digits in HEX_LITERAL.findall(text)
            if len(digits.lstrip("0")) >= 12]


def same_value(a: str, b: str) -> bool:
    """Numeric equality (0x0b85... equals 0xb85...); text if not numbers."""
    try:
        return int(a, 0) == int(b, 0)
    except ValueError:
        return a == b


def statement_at(lines: list[str], start: int) -> str:
    """Lines from `start` up to the one that ends the statement."""
    text = ""
    for line in lines[start:start + 8]:
        text += line.split("//", 1)[0]
        if ";" in line:
            break
    return text


def scan_test_file(name: str, text: str, out: list) -> None:
    lines = text.splitlines()
    is_pin_file = name.endswith("digest_pin_test.cpp")
    is_alloc_file = name.endswith("frame_alloc_test.cpp")
    test = None
    pins_in_test = 0
    for i, line in enumerate(lines):
        where = f"{name}:{i + 1}"
        header = TEST_HEADER.match(line)
        if header:
            test = f"{header.group(1)}.{header.group(2)}"
            pins_in_test = 0
            continue
        if line.startswith("}"):
            test = None
        if is_alloc_file:
            alloc = ALLOC_PIN.match(line)
            if alloc:
                out.append([alloc.group(1), alloc.group(2).strip(), where])
                continue
        constant = CONSTANT.match(line)
        if constant and constant.group(1) not in NON_ORACLE:
            body = statement_at(lines, i)
            value = body.split("=", 1)[1]
            pins = hex_pins(value)
            if "{" in value and pins:
                for k, pin in enumerate(pins):
                    out.append([f"{constant.group(1)}[{k}]", pin, where])
            elif pins:
                out.append([constant.group(1), pins[0], where])
            elif is_pin_file:
                literal = re.fullmatch(r"\s*([0-9']+)[uU]?\s*;\s*",
                                       value)
                if literal:
                    out.append([constant.group(1),
                                literal.group(1).replace("'", ""), where])
            continue
        if test is None or not INLINE_CALL.search(line):
            continue
        for pin in hex_pins(statement_at(lines, i)):
            pins_in_test += 1
            suffix = "" if pins_in_test == 1 else f"#{pins_in_test}"
            out.append([test + suffix, pin, where])


def resolve_alloc_pins(entries: list) -> None:
    """Sums `k...Allocs = kOther + 3`-style pins out to integers."""
    known: dict[str, int] = {}
    for entry in entries:
        terms = [t.strip().replace("'", "") for t in entry[1].split("+")]
        if all(t.isdigit() or t in known for t in terms):
            total = sum(known[t] if t in known else int(t) for t in terms)
            entry[1] = str(total)
            known[entry[0]] = total


def scan_sweep_checks(name: str, text: str, out: list) -> None:
    inside = False
    for i, line in enumerate(text.splitlines()):
        if f"add_test(NAME {SWEEP_TEST}" in line:
            inside = True
        elif inside and line.startswith("set_tests_properties"):
            break
        if not inside:
            continue
        for digest, args in SWEEP_CHECK.findall(line):
            label = ",".join(args.split())
            out.append([f"{SWEEP_TEST}[{label}]", digest.lower(),
                        f"{name}:{i + 1}"])


def scan_perfbench(name: str, text: str, out: list) -> None:
    for i, line in enumerate(text.splitlines()):
        for workload, digest in PERFBENCH.findall(line):
            out.append([f"perfbench:{workload}", digest.lower(),
                        f"{name}:{i + 1}"])


class Tree:
    """Reads repository files from the working tree or from a git rev."""

    def __init__(self, root: pathlib.Path, rev: str | None):
        self.root = root
        self.rev = rev

    def test_files(self) -> list[str]:
        if self.rev is None:
            return sorted(str(p.relative_to(self.root))
                          for p in (self.root / "tests").glob("*.cpp"))
        listing = self.git("ls-tree", "--name-only", self.rev, "tests/")
        return sorted(p for p in listing.splitlines() if p.endswith(".cpp"))

    def read(self, path: str) -> str:
        if self.rev is None:
            return (self.root / path).read_text()
        return self.git("show", f"{self.rev}:{path}")

    def git(self, *args: str) -> str:
        return subprocess.run(["git", "-C", str(self.root), *args],
                              check=True, capture_output=True,
                              text=True).stdout


def collect(tree: Tree) -> list:
    entries: list = []
    for path in tree.test_files():
        scan_test_file(path, tree.read(path), entries)
    resolve_alloc_pins(entries)
    scan_sweep_checks("tools/CMakeLists.txt",
                      tree.read("tools/CMakeLists.txt"), entries)
    scan_perfbench("perfbench/oracles.hpp",
                   tree.read("perfbench/oracles.hpp"), entries)
    return entries


def check(entries: list) -> list[str]:
    problems = []
    seen: dict[str, str] = {}
    for name, _, where in entries:
        if name in seen:
            problems.append(f"duplicate name {name} at {seen[name]} and "
                            f"{where}")
        seen.setdefault(name, where)
    if "kChainFleetDigest" not in seen:
        problems.append("anchor kChainFleetDigest not found")
    sweeps = [n for n in seen if n.startswith(SWEEP_TEST + "[")]
    if len(sweeps) != 6:
        problems.append(f"{len(sweeps)} {SWEEP_TEST} checks, want 6")
    for workload in PERFBENCH_WORKLOADS:
        if f"perfbench:{workload}" not in seen:
            problems.append(f"perfbench oracle {workload} not found")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: the checkout this script is in)",
    )
    parser.add_argument("--against", metavar="REV",
                        help="print only the oracles that differ from REV")
    parser.add_argument("--check", action="store_true",
                        help="check unique names and the known anchors")
    args = parser.parse_args()

    entries = collect(Tree(args.root, None))
    if args.check:
        problems = check(entries)
        for problem in problems:
            print(problem, file=sys.stderr)
        if problems:
            return 1
        print(f"oracles-ok {len(entries)}")
        return 0
    if args.against is None:
        for name, value, where in entries:
            print(f"{name} {value} {where}")
        return 0

    old = {name: (value, where)
           for name, value, where in collect(Tree(args.root, args.against))}
    new = {name: (value, where) for name, value, where in entries}
    changed = added = removed = 0
    for name, (value, where) in new.items():
        before = old.get(name)
        if before is None:
            added += 1
            print(f"{name} (none) -> {value} {where}")
        elif not same_value(before[0], value):
            changed += 1
            print(f"{name} {before[0]} -> {value} {where}")
    for name, (value, where) in old.items():
        if name not in new:
            removed += 1
            print(f"{name} {value} -> (none) {where} (at {args.against})")
    print(f"{changed} changed, {added} added, {removed} removed of "
          f"{len(new)} oracles")
    return 0


if __name__ == "__main__":
    sys.exit(main())
