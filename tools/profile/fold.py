#!/usr/bin/env python3
"""Folds the samples `sampler.c` wrote into the phases of the scoring kernel.

usage: fold.py SAMPLES [--top N]

Each program counter in the executable is symbolised once with
`addr2line -i` (the binary needs its debug info, which the release profile
keeps). Its inline chain, innermost frame first, is matched against RULES:
the first frame naming a phase decides. A sample in libm or libc counts as
that library. `--top N` also lists the N hottest inline chains of `other`.
"""
import collections
import re
import subprocess
import sys

# Innermost match wins: the select, bucket and commit helpers are inlined
# into `OmsSink::assign`, whose own remaining body is the neighbour gather.
RULES = [
    ("select", ("select_child", "select_champion", "select_narrow", "pick_narrow")),
    ("bucket", ("bucket_by_child", "bucket_u64")),
    ("commit", ("set_weight", "reweigh", "OmsSink::take_out", "leave_wide", "commit_wide",
                "flush_stale", "settle", "replay", "rebuild_champions", "add_along_path",
                "load_term")),
    ("tally", ("LevelTally", "PassTally", "SymmetryProof", "executor::measure")),
    ("gather", ("OmsSink::assign",)),
    ("decode", ("oms_graph::io", "oms_graph::stream", "oms_graph::batch")),
]
LIBRARIES = [("libm", "libm.so"), ("libc", "libc.so")]


def symbolise(exe, offsets):
    """Inline chain (innermost first) of every offset in `exe`."""
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", exe] + [hex(o) for o in offsets],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    chains, current = {}, []
    for line in out:
        if re.fullmatch(r"0x[0-9a-f]{16}", line):
            current = chains.setdefault(int(line, 16), [])
            frame = 0
        else:
            # Function and file:line lines alternate within an address.
            if frame % 2 == 0:
                current.append(line)
            frame += 1
    return chains


def phase(chain):
    for frame in chain:
        for name, markers in RULES:
            if any(marker in frame for marker in markers):
                return name
    return "other"


def main():
    args = sys.argv[1:]
    top = int(args[args.index("--top") + 1]) if "--top" in args else 0
    path = args[0]
    samples = collections.Counter()
    for line in open(path):
        obj, offset = line.split()
        samples[(obj, int(offset, 16))] += 1
    executables = {obj for obj, _ in samples if obj != "?" and ".so" not in obj}
    chains = {}
    for exe in executables:
        offsets = sorted(o for obj, o in samples if obj == exe)
        chains.update({(exe, o): c for o, c in symbolise(exe, offsets).items()})
    phases, others = collections.Counter(), collections.Counter()
    for (obj, offset), n in samples.items():
        library = next((name for name, so in LIBRARIES if so in obj), None)
        chain = chains.get((obj, offset), [])
        name = library or (phase(chain) if chain else "other")
        phases[name] += n
        if name == "other":
            others[" < ".join(chain[:4]) or obj] += n
    total = sum(phases.values())
    print(f"{'phase':<8} {'samples':>8} {'share':>7}   ({total} samples)")
    for name, n in phases.most_common():
        print(f"{name:<8} {n:>8} {n / total:>7.1%}")
    for chain, n in others.most_common(top):
        print(f"{n:>6}  {chain}")


main()
