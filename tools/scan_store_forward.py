#!/usr/bin/env python3
"""Lists the functions of a built binary that reload a split-stored id.

Usage:

    python3 tools/scan_store_forward.py <binary> [--function SUBSTRING]

GCC builds a `std::optional<T>` of a 4-byte T (a KeyId, a ProcessorId)
that it returns by value in two stack stores: the 4-byte value and the
1-byte engaged flag next to it. It then often reloads both as one 8-byte
word. A CPU cannot forward two smaller stores into one wider load, so the
reload waits until both stores have retired, about a dozen cycles.

The scan disassembles the binary with `objdump -d -C` and reports each
8-byte load from a stack slot (%rsp or %rbp based) at offset D that follows,
within a few instructions, a 4-byte store to D and a 1-byte store to D + 4,
with no 8-byte store to D between them. It prints one line per function
with its site count, then the totals.

It reads code generation, not behaviour: the same source gives other
counts under another compiler or other flags. It is a developer aid for
keeping such reloads off the frame path, not a test.
"""

import argparse
import re
import subprocess
import sys

WINDOW = 8  # instructions a split store may precede its reload by

FUNC = re.compile(r"^[0-9a-f]+ <(.*)>:$")
INSN = re.compile(r"^\s*[0-9a-f]+:\s+(\S+)\s*(.*)$")
MEM = re.compile(r"^(-?0x[0-9a-f]+|-?\d+)?\((%r[bs]p)\)$")

REG64 = {"rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp"} | {
    "r%d" % i for i in range(8, 16)}
REG32 = {"eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp"} | {
    "r%dd" % i for i in range(8, 16)}
REG8 = {"al", "bl", "cl", "dl", "ah", "bh", "ch", "dh", "sil", "dil", "bpl",
        "spl"} | {"r%db" % i for i in range(8, 16)}
SUFFIX = {"movq": 8, "movl": 4, "movb": 1}


def stack_slot(operand):
    """(base, offset) of a %rsp/%rbp-relative operand, else None."""
    m = MEM.match(operand)
    if not m:
        return None
    return m.group(2), int(m.group(1) or "0", 0)


def width(mnemonic, register):
    """Access size of a mov, from its suffix or its register operand."""
    if mnemonic in SUFFIX:
        return SUFFIX[mnemonic]
    name = register.lstrip("%")
    if name in REG64:
        return 8
    if name in REG32:
        return 4
    if name in REG8:
        return 1
    return None


def split_operands(text):
    """The two operands of an AT&T two-operand instruction."""
    text = text.split("#")[0].strip()
    depth, parts, cur = 0, [], ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    return [p.strip() for p in parts]


def scan(lines):
    """Yields (function, site count) for every function with a site."""
    func, sites, stores = None, 0, []
    for line in lines:
        head = FUNC.match(line)
        if head:
            if func is not None and sites:
                yield func, sites
            func, sites, stores = head.group(1), 0, []
            continue
        insn = INSN.match(line)
        if not insn or func is None:
            continue
        mnemonic, operands = insn.group(1), split_operands(insn.group(2))
        stores = [(age + 1, slot, size) for age, slot, size in stores
                  if age < WINDOW]
        if mnemonic.startswith("set") and len(operands) == 1:
            flag = stack_slot(operands[0])  # setcc: a 1-byte store
            if flag is not None:
                stores.append((0, flag, 1))
            continue
        if not mnemonic.startswith("mov") or len(operands) != 2:
            continue
        src, dst = operands
        to_slot, from_slot = stack_slot(dst), stack_slot(src)
        if to_slot is not None:
            size = width(mnemonic, src)
            if size is not None:
                stores.append((0, to_slot, size))
        elif from_slot is not None and width(mnemonic, dst) == 8:
            base, off = from_slot
            low = high = False
            for _, (sbase, soff), size in sorted(stores):  # newest first
                if sbase != base:
                    continue
                if soff == off and size == 8:
                    break  # a full-width store forwards
                low = low or (soff == off and size == 4)
                high = high or (soff == off + 4 and size == 1)
            if low and high:
                sites += 1
    if func is not None and sites:
        yield func, sites


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("binary")
    parser.add_argument("--function", default="",
                        help="only report functions whose name contains this")
    args = parser.parse_args()
    dump = subprocess.run(
        ["objdump", "-d", "-C", "--no-show-raw-insn", args.binary],
        capture_output=True, text=True)
    if dump.returncode != 0:
        sys.exit("scan_store_forward: objdump failed: " + dump.stderr.strip())
    total = functions = 0
    for func, sites in scan(dump.stdout.splitlines()):
        if args.function not in func:
            continue
        print("%3d  %s" % (sites, func))
        total += sites
        functions += 1
    print("%d sites in %d functions" % (total, functions))


if __name__ == "__main__":
    main()
