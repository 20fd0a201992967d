#!/usr/bin/env python3
"""Symbolizes a prof.c sample file with `nm -C` and prints three views:
self time per function, inclusive time per function, and the call tree
under a chosen root.

    sym.py run.prof [--root SUBSTR] [--top N] [--depth D] [--min PCT]
    sym.py run.prof --callers-of SUBSTR
    sym.py run.prof --locked
    sym.py run.prof --lines SUBSTR

Percentages are of all samples; the tree's are too, so a subtree reads as
its share of the whole run. An address inside a mapped file but outside
every symbol `nm` knows prints as [file]; one in no file-backed mapping as
[anon]. A leaf that keeps no frame pointer (most of libc) loses the frames
between it and the binary, and prof.c finds the binary's frames again by
scanning the stack (the header line counts those samples as recovered); a
sample it could not recover stays a stack of one, so the samples under a
root are a lower bound.

--callers-of answers "who calls malloc": for the samples whose leaf name
contains SUBSTR it prints, instead of the three views, the first frame
inside the profiled binary — the allocator's, memmove's or libm's quarter
of a profile by the engine function that asked.

--locked answers "how much of the run waits on a lock prefix": a locked
read-modify-write (an `Arc` count, a mutex, an atomic counter) drains the
store buffer, and a sample that interrupts it lands on the instruction right
after it. For each function it prints the samples whose leaf sits right
after a `lock`-prefixed instruction or an `xchg` with a memory operand
(implicitly locked), found by disassembling each mapped file with `objdump`.

--lines answers "where inside this function": for the samples whose leaf
name contains SUBSTR it prints, instead of the three views, their count by
the source line of the innermost inlined frame and that frame's function,
read from the binary's line tables with `llvm-addr2line` (profile.sh builds
them). A function's self time is mostly its inlined callees', and this is
the view that tells them apart.
"""
import argparse
import bisect
import collections
import json
import os
import re
import subprocess
import sys


def read_profile(path):
    """-> (mappings [(start, end, offset, file)], stacks [[addr, …] leaf first],
    recovered sample count, the profiled binary's path)"""
    mappings, stacks, in_samples = [], [], False
    recovered, binary = 0, None
    with open(path) as f:
        for line in f:
            if line.startswith("---"):
                in_samples = True
                header = re.search(r"recovered (\d+); binary (.*)$", line.rstrip("\n"))
                if header:
                    recovered, binary = int(header.group(1)), header.group(2)
            elif in_samples:
                stacks.append([int(a, 16) for a in line.split()])
            else:
                parts = line.split(None, 5)
                if len(parts) == 6 and parts[5].startswith("/"):
                    start, end = (int(x, 16) for x in parts[0].split("-"))
                    mappings.append((start, end, int(parts[2], 16), parts[5].strip()))
    # A file written before prof.c named the binary: the executable is the
    # lowest file-backed mapping.
    return mappings, stacks, recovered, binary or (mappings[0][3] if mappings else None)


class Symbols:
    """The text symbols of one ELF file, by address."""

    def __init__(self, path):
        self.starts, self.ends, self.names = [], [], []
        for flags in (["-C", "-n", "-S", "--defined-only"], ["-C", "-n", "-S", "-D", "--defined-only"]):
            try:
                out = subprocess.run(["nm", *flags, path], capture_output=True, text=True).stdout
            except OSError:
                out = ""
            rows = []
            for line in out.splitlines():
                parts = line.split(None, 3)
                if len(parts) == 4 and parts[2] in "tTwW":
                    rows.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
            if rows:  # a stripped library only has its dynamic table
                rows.sort()
                self.starts = [r[0] for r in rows]
                self.ends = [r[0] + max(r[1], 1) for r in rows]
                self.names = [r[2] for r in rows]
                break

    def name(self, vaddr):
        i = bisect.bisect_right(self.starts, vaddr) - 1
        if i >= 0 and vaddr < self.ends[i]:
            return self.names[i]
        return None


class Symbolizer:
    def __init__(self, mappings):
        self.mappings = sorted(mappings)
        # A position-independent file's symbol addresses are relative to its
        # load bias: where its lowest segment (virtual address 0) is mapped.
        # Not `start - offset` of the text mapping: lld gives a segment a
        # virtual address that differs from its file offset.
        self.base = {}
        for start, _, _, path in self.mappings:
            self.base[path] = min(self.base.get(path, start), start)
        self.symbols, self.cache = {}, {}

    def name(self, addr):
        if addr not in self.cache:
            self.cache[addr] = self.lookup(addr)
        return self.cache[addr]

    def inside(self, addr, path):
        """True when `addr` lies in a mapping of the file `path`."""
        return any(start <= addr < end for start, end, _, p in self.mappings if p == path)

    def lookup(self, addr):
        for start, end, _, path in self.mappings:
            if start <= addr < end:
                if path not in self.symbols:
                    self.symbols[path] = Symbols(path) if os.path.exists(path) else None
                table = self.symbols[path]
                found = table and (table.name(addr - self.base[path]) or table.name(addr))
                return found or "[%s]" % os.path.basename(path)
        return "[anon]"


def locked_successors(path):
    """-> the addresses (file virtual addresses) of `path`'s instructions
    that directly follow a lock-prefixed instruction or a memory `xchg`."""
    try:
        out = subprocess.run(["objdump", "-d", "--no-show-raw-insn", path], capture_output=True, text=True).stdout
    except OSError:
        return set()
    after, locked = set(), False
    for line in out.splitlines():
        m = re.match(r"\s*([0-9a-f]+):\t(.*)$", line)
        if not m:
            locked = False  # a label or a section break ends the run of code
            continue
        if locked:
            after.add(int(m.group(1), 16))
        text = m.group(2).strip()
        locked = text.startswith("lock ") or (text.startswith("xchg") and "(" in text)
    return after


def inlined_lines(path, addrs):
    """-> {addr: (file:line, function)} of the innermost inlined frame at
    each file virtual address of `path`, from its line tables."""
    try:
        out = subprocess.run(
            ["llvm-addr2line", "--output-style=JSON", "-f", "-i", "-C", "-e", path],
            input="".join("0x%x\n" % a for a in addrs), capture_output=True, text=True,
        ).stdout
    except OSError:
        sys.exit("--lines needs llvm-addr2line")
    found, cwd = {}, os.getcwd() + os.sep
    for line in out.splitlines():
        entry = json.loads(line)
        frames = entry.get("Symbol") or [{}]
        inner = frames[0]
        where = inner.get("FileName") or "??"
        if where.startswith(cwd):
            where = where[len(cwd):]
        elif "/library/" in where:  # the standard library's sources
            where = where[where.index("/library/") + 1 :]
        # llvm-addr2line leaves a legacy Rust name's escapes in place.
        name = inner.get("FunctionName") or "??"
        for code, text in (("$LT$", "<"), ("$GT$", ">"), ("$u20$", " "), ("$RF$", "&"), ("$C$", ","), ("..", "::")):
            name = name.replace(code, text)
        found[int(entry["Address"], 16)] = ("%s:%s" % (where, inner.get("Line", 0)), name)
    return found


def shorten(name, width):
    # Drop the hash suffix rustc appends and clip what is left.
    if len(name) > 19 and name[-19:-16] == "::h" and all(c in "0123456789abcdef" for c in name[-16:]):
        name = name[:-19]
    return name if len(name) <= width else name[: width - 1] + "…"


def table(title, counts, total, top, width):
    print("\n== %s ==" % title)
    for name, n in counts.most_common(top):
        print("%6.2f%% %7d  %s" % (100.0 * n / total, n, shorten(name, width)))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("profile")
    ap.add_argument("--root", default="main", help="tree root: first frame, from the outside in, whose name contains this")
    ap.add_argument("--top", type=int, default=30, help="rows per table")
    ap.add_argument("--depth", type=int, default=8, help="tree depth below the root")
    ap.add_argument("--min", type=float, default=1.0, help="smallest tree node, in percent of all samples")
    ap.add_argument("--width", type=int, default=110, help="longest printed name")
    ap.add_argument("--callers-of", metavar="SUBSTR", help="only: the first frame inside the binary of the samples whose leaf matches")
    ap.add_argument("--locked", action="store_true", help="only: per function, the samples whose leaf follows a locked instruction")
    ap.add_argument("--lines", metavar="SUBSTR", help="only: the self samples of the functions matching SUBSTR, by source line of the innermost inlined frame")
    args = ap.parse_args()

    mappings, stacks, recovered, binary = read_profile(args.profile)
    if not stacks:
        sys.exit("%s: no samples" % args.profile)
    sym = Symbolizer(mappings)
    total = len(stacks)
    if args.callers_of is not None:
        callers = collections.Counter()
        for stack in stacks:
            if args.callers_of not in sym.name(stack[0]):
                continue
            # A return address points after its call: step back into it.
            inside = (a - 1 for a in stack[1:] if sym.inside(a - 1, binary))
            callers[next((sym.name(a) for a in inside), "[no frame inside the binary]")] += 1
        matched = sum(callers.values())
        print("%d samples, %d (%.2f%%) with a leaf matching %r" % (total, matched, 100.0 * matched / total, args.callers_of))
        table("first frame inside %s" % os.path.basename(binary or "?"), callers, total, args.top, args.width)
        return
    if args.lines is not None:
        # File virtual addresses of the matching leaves: a position-independent
        # binary's are relative to its load bias, as in Symbolizer.lookup.
        hits = collections.Counter()
        for stack in stacks:
            if args.lines in sym.name(stack[0]) and sym.inside(stack[0], binary):
                rel = stack[0] - sym.base[binary]
                hits[rel if sym.symbols[binary].name(rel) else stack[0]] += 1
        matched = sum(hits.values())
        print("%d samples, %d (%.2f%%) with a leaf matching %r" % (total, matched, 100.0 * matched / total, args.lines))
        lines = collections.Counter()
        where = inlined_lines(binary, sorted(hits))
        for addr, n in hits.items():
            loc, name = where.get(addr, ("??:0", "??"))
            lines["%s  %s" % (loc, name)] += n
        print("\n== by source line (share of all samples; of the matched samples) ==")
        for text, n in lines.most_common(args.top):
            print("%6.2f%% %7d %5.1f%%  %s" % (100.0 * n / total, n, 100.0 * n / matched, shorten(text, args.width)))
        return
    if args.locked:
        successors, locked, leaves = {}, collections.Counter(), collections.Counter()
        for stack in stacks:
            name = sym.name(stack[0])
            leaves[name] += 1
            path = next((p for start, end, _, p in sym.mappings if start <= stack[0] < end), None)
            if path is None:
                continue
            if path not in successors:
                successors[path] = locked_successors(path) if os.path.exists(path) else set()
            # Like Symbolizer.lookup: a position-independent file's addresses
            # are relative to its load bias, a fixed-address one's are not.
            if stack[0] - sym.base[path] in successors[path] or stack[0] in successors[path]:
                locked[name] += 1
        n = sum(locked.values())
        print("%d samples, %d (%.2f%%) with a leaf right after a locked instruction" % (total, n, 100.0 * n / total))
        print("\n== locked (share of all samples; of the function's self samples) ==")
        for name, k in locked.most_common(args.top):
            print("%6.2f%% %7d %5.1f%%  %s" % (100.0 * k / total, k, 100.0 * k / leaves[name], shorten(name, args.width)))
        return
    self_time, inclusive = collections.Counter(), collections.Counter()
    tree = {}  # name -> [count, children]
    rooted = 0
    for stack in stacks:
        # A return address points after its call: step back into it.
        names = [sym.name(a if i == 0 else a - 1) for i, a in enumerate(stack)]
        self_time[names[0]] += 1
        inclusive.update(set(names))
        outside_in = names[::-1]
        at = next((i for i, n in enumerate(outside_in) if args.root in n), None)
        if at is None:
            continue
        rooted += 1
        level = tree
        for name in outside_in[at : at + args.depth + 1]:
            node = level.setdefault(name, [0, {}])
            node[0] += 1
            level = node[1]

    print("%d samples (%d recovered by stack scan), %d under a frame matching %r" % (total, recovered, rooted, args.root))
    table("self", self_time, total, args.top, args.width)
    table("inclusive", inclusive, total, args.top, args.width)
    print("\n== call tree under %r (>= %.1f%% of all samples) ==" % (args.root, args.min))

    def walk(level, indent):
        for name, (n, children) in sorted(level.items(), key=lambda kv: -kv[1][0]):
            if 100.0 * n / total >= args.min:
                print("%6.2f%% %s%s" % (100.0 * n / total, "  " * indent, shorten(name, args.width)))
                walk(children, indent + 1)

    walk(tree, 0)


if __name__ == "__main__":
    main()
