#!/usr/bin/env python3
"""Reachability census of the library API: what only the tests call.

Usage:
    tools/api_census.py [--build DIR] [--allow FILE]

Reads a tree that tools/run_static_analysis.sh builds at -O0 with
-ffunction-sections and links with -Wl,--gc-sections (default
build-census/): the liblexfor_*.a libraries under DIR/src, and the
product binaries, which are the examples (DIR/examples), the benches
(DIR/bench) and perfbench (DIR/perfbench/perfbench).

A function is counted when a library defines it out of line in
namespace lexfor (an `nm` symbol of type T).  It is test-only when no
product binary keeps it: the linker drops every function that nothing
reachable from main() calls, and at -O0 a call from the same
translation unit stays a real call, so it still counts.  Inline and
template functions are not counted.  The test oracles (lexfor_oracles)
are test code and are not counted either.

FILE (default tools/api_census_allow.txt) lists the functions that may
stay test-only, one per line:

    <class> | <demangled signature> | <reason>

The check fails on a test-only function that is not listed, and on a
stale entry: a listed function that a product now keeps or that no
longer exists.  Signatures are c++filt's, with std::string,
std::string_view and std::vector<unsigned char> spelled so and no ABI
tags.

Exit status: 0 when the census matches the list, 1 when it does not,
2 on usage errors (missing build tree or list, unreadable line).
"""

import argparse
import os
import subprocess
import sys

CLASSES = ("test-hook", "doctrine", "waits")

# Long spellings c++filt prints, and the short ones the list uses.
_SHORT_NAMES = (
    ("std::__cxx11::basic_string<char, std::char_traits<char>, "
     "std::allocator<char> >", "std::string"),
    ("std::basic_string_view<char, std::char_traits<char> >",
     "std::string_view"),
    ("std::vector<unsigned char, std::allocator<unsigned char> >",
     "std::vector<unsigned char>"),
    ("[abi:cxx11]", ""),
)


def usage_fail(msg):
    print(f"api_census: {msg}", file=sys.stderr)
    sys.exit(2)


def nm_defined(paths):
    """Yield (type, mangled name) for every defined symbol in `paths`."""
    out = subprocess.run(["nm", "--defined-only", *paths], check=True,
                         capture_output=True, text=True).stdout
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3:
            yield fields[1], fields[2]


def demangle(names):
    """Map each mangled name to its demangled, shortened spelling."""
    names = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout.splitlines()
    result = {}
    for mangled, plain in zip(names, out):
        for long_name, short in _SHORT_NAMES:
            plain = plain.replace(long_name, short)
        result[mangled] = plain
    return result


def find_files(root, keep):
    found = []
    for dirpath, _, files in os.walk(root):
        found.extend(os.path.join(dirpath, f) for f in files if keep(f))
    return sorted(found)


def product_binaries(build):
    binaries = []
    for sub in ("examples", "bench"):
        d = os.path.join(build, sub)
        if os.path.isdir(d):
            binaries.extend(sorted(
                os.path.join(d, f) for f in os.listdir(d)
                if os.path.isfile(os.path.join(d, f))
                and os.access(os.path.join(d, f), os.X_OK)))
    perfbench = os.path.join(build, "perfbench", "perfbench")
    if os.path.isfile(perfbench):
        binaries.append(perfbench)
    return binaries


def load_allowlist(path):
    """Map signature -> (class, reason), in file order."""
    entries = {}
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as err:
        usage_fail(f"cannot read {path}: {err.strerror}")
    for number, line in enumerate(lines, 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = [f.strip() for f in line.split(" | ")]
        if len(fields) != 3 or fields[0] not in CLASSES or not fields[2]:
            usage_fail(f"{path}:{number}: want '<class> | <signature> | "
                       f"<reason>' with class one of {', '.join(CLASSES)}")
        if fields[1] in entries:
            usage_fail(f"{path}:{number}: {fields[1]} is listed twice")
        entries[fields[1]] = (fields[0], fields[2])
    return entries


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", default=os.path.join(root, "build-census"))
    parser.add_argument("--allow",
                        default=os.path.join(root, "tools",
                                             "api_census_allow.txt"))
    args = parser.parse_args()

    libs = find_files(os.path.join(args.build, "src"),
                      lambda f: f.startswith("liblexfor_") and f.endswith(".a"))
    binaries = product_binaries(args.build)
    if not libs or not binaries:
        usage_fail(f"no liblexfor_*.a or no product binary under {args.build}")

    library = {name for kind, name in nm_defined(libs) if kind == "T"}
    kept = {name for _, name in nm_defined(binaries)}
    plain = demangle(library | kept)
    functions = {plain[n] for n in library if plain[n].startswith("lexfor::")}
    kept_plain = {plain[n] for n in kept}
    test_only = functions - kept_plain

    allow = load_allowlist(args.allow)
    unlisted = sorted(test_only - allow.keys())
    now_kept = sorted(s for s in allow if s in functions and s not in test_only)
    missing = sorted(s for s in allow if s not in functions)

    for sig in unlisted:
        print(f"api_census: test-only and not allowlisted: {sig}")
    for sig in now_kept:
        print(f"api_census: stale entry, a product keeps it: {sig}")
    for sig in missing:
        print(f"api_census: stale entry, no such function: {sig}")
    print(f"api_census: {len(test_only)} of {len(functions)} out-of-line "
          f"lexfor:: functions are test-only across {len(binaries)} "
          f"product binaries", end="")
    if unlisted or now_kept or missing:
        print(f"; {len(unlisted)} unlisted, "
              f"{len(now_kept) + len(missing)} stale")
        return 1
    print(", all allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
