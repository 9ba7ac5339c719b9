#!/usr/bin/env python3
"""Determinism-contract linter for the deterministic layers of src/.

The repo's load-bearing guarantee is bit-identical results at any
thread count or --cells tiling (docs/ARCHITECTURE.md, "The
determinism contract"). The end-to-end diff tests catch violations
after the fact; this linter catches the *sources* of nondeterminism at
review time by banning the constructs that have no place in a
deterministic layer:

  raw-rand            rand()/srand(): global-state RNG, seeded (or
                      not) per process, never per cell.
  random-device       std::random_device: hardware entropy, different
                      every run by design.
  wall-clock          time()/clock()/gettimeofday()/localtime()/
                      gmtime(): wall-clock reads outside the
                      timing-key files.
  chrono              std::chrono outside the timing-key files.
                      Timing may only feed the "timing" subtree,
                      which determinism diffs exclude.
  unordered-iteration std::unordered_{map,set,multimap,multiset}:
                      iteration order is implementation-defined, and
                      anything that iterates one eventually feeds a
                      ReportSink row or JSON document.
  pointer-order       std::less<T*> / reinterpret_cast to
                      (u)intptr_t: pointer values vary per run (ASLR,
                      allocator), so orderings or hashes derived from
                      them are nondeterministic.
  unseeded-rng        default-constructed <random> engines: an
                      unseeded engine is a fixed seed at best and an
                      implementation choice at worst; every engine
                      takes its seed from the splitmix64 stream
                      (src/util/rng.h).

Escape hatch: a line ending in `// determinism: allow(<reason>)` is
exempt from every rule; the reason is mandatory and lands in review.
The timing-key allowlist (TIMING_KEY_FILES) exempts the files whose
entire job is wall-clock measurement — their output travels in the
"timing" subtree, which merge/diff tooling excludes by rule. Two
findings police those escape hatches rather than code constructs:

  allow-comment       an allow() escape hatch with a blank reason.
  stale-allowlist     a TIMING_KEY_FILES entry that names a missing
                      file or suppresses no wall-clock/chrono finding
                      (the allowlist lists exactly the files that
                      read the clock).

Usage: check_determinism.py [root] [extra files...]
Scans <root>/src by default; extra explicit files are scanned with the
same rules (used by the fixture self-tests). Exit 1 on any finding.
"""
import pathlib
import re
import sys

# Files whose whole purpose is wall-clock measurement: the WallTimer
# and the real-thread runtime's wall caps. Their measurements only
# ever feed the "timing" subtree of a document (each section's
# "timing" object and the top-level one), which core::strip_timing_keys
# excludes from determinism diffs — see docs/STATIC_ANALYSIS.md for the
# policy on growing this list. Every entry must suppress at least one
# wall-clock/chrono finding (the stale-allowlist check).
TIMING_KEY_FILES = {
    "src/core/runner.h",        # WallTimer
    "src/runtime/executor.h",   # max_wall caps
    "src/runtime/executor.cpp",
    "src/runtime/rt_harness.h",
}

# Rules whose scope the timing-key allowlist narrows; every other rule
# applies to every file (escape hatch: the allow comment).
TIMING_SCOPED_RULES = {"wall-clock", "chrono"}

# Findings about the escape hatches (the allow() comment and the
# timing-key allowlist) rather than code constructs; check_docs.py
# requires these names documented alongside RULES.
ESCAPE_HATCH_RULES = ("allow-comment", "stale-allowlist")

# (name, compiled regex, message). Names are load-bearing: the fixture
# tests fire each one, and check_docs.py requires each to be
# documented in docs/STATIC_ANALYSIS.md.
RULES = [
    ("raw-rand",
     re.compile(r"(?<![\w.>:])s?rand\s*\("),
     "rand()/srand() is global-state RNG; use util::SplitMix64 with a "
     "derived seed"),
    ("random-device",
     re.compile(r"\bstd\s*::\s*random_device\b"),
     "std::random_device is hardware entropy; seeds must come from "
     "the experiment's seed stream"),
    ("wall-clock",
     re.compile(
         r"(?<![\w.>:])(time|clock|gettimeofday|localtime|gmtime)\s*\("),
     "wall-clock read in a deterministic layer; only timing-key files "
     "may observe the clock"),
    ("chrono",
     re.compile(r"\bstd\s*::\s*chrono\b"),
     "std::chrono in a deterministic layer; timing belongs to the "
     "timing-key files and their timing keys"),
    ("unordered-iteration",
     re.compile(r"\bstd\s*::\s*unordered_(map|set|multimap|multiset)\b"),
     "unordered container iteration order is implementation-defined "
     "and leaks into ReportSink/JSON rows; use std::map/std::vector"),
    ("pointer-order",
     re.compile(r"\bstd\s*::\s*less\s*<[^<>]*\*\s*>"
                r"|\breinterpret_cast\s*<\s*(std\s*::\s*)?u?intptr_t\b"),
     "ordering/hashing by pointer value varies per run (ASLR, "
     "allocator); order by index or name instead"),
    ("unseeded-rng",
     re.compile(r"\bstd\s*::\s*(mt19937(_64)?|minstd_rand0?|"
                r"ranlux(24|48)(_base)?|knuth_b|default_random_engine)"
                r"\s+\w+\s*(;|\{\s*\})"),
     "default-constructed <random> engine; every engine is seeded "
     "from the splitmix64 stream"),
]

ALLOW_RE = re.compile(r"//\s*determinism:\s*allow\(([^)]+)\)")


def strip_noise(line, in_block_comment):
    """Blanks string/char literals and comments so rule regexes only
    see code. Returns (code, still_in_block_comment)."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
            continue
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break  # line comment: rest is not code
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            in_block_comment = True
            i += 2
            continue
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            out.append(quote)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out), in_block_comment


def lint_file(path, rel, findings):
    """Appends the file's findings; returns how many timing-scoped
    matches the allowlist suppressed in it."""
    timing_file = rel in TIMING_KEY_FILES
    suppressed = 0
    in_block = False
    try:
        text = path.read_text()
    except UnicodeDecodeError:
        return suppressed
    for lineno, line in enumerate(text.splitlines(), start=1):
        allow = ALLOW_RE.search(line)
        if allow and not allow.group(1).strip():
            findings.append(
                (rel, lineno, "allow-comment",
                 "determinism: allow() needs a non-empty reason"))
            continue
        code, in_block = strip_noise(line, in_block)
        if allow:
            continue
        for name, pattern, message in RULES:
            if not pattern.search(code):
                continue
            if timing_file and name in TIMING_SCOPED_RULES:
                suppressed += 1
            else:
                findings.append((rel, lineno, name, message))
    return suppressed


def check_allowlist(root, suppressed, findings):
    """stale-allowlist: every TIMING_KEY_FILES entry must exist under
    root and suppress at least one finding (`suppressed` maps each
    scanned relpath to its lint_file count)."""
    for rel in sorted(TIMING_KEY_FILES):
        if not (root / rel).is_file():
            findings.append((rel, 0, "stale-allowlist",
                             "TIMING_KEY_FILES names a missing file"))
        elif suppressed.get(rel, 0) == 0:
            findings.append((rel, 0, "stale-allowlist",
                             "TIMING_KEY_FILES entry suppresses no "
                             "wall-clock/chrono finding; drop it"))


def lint_paths(root, extra_files=()):
    """Lints <root>/src (and checks the allowlist against it) plus any
    explicit extra files; returns the finding list
    [(relpath, line, rule, message)]."""
    findings = []
    if (root / "src").is_dir():
        files = sorted((root / "src").rglob("*.h")) + \
            sorted((root / "src").rglob("*.cpp"))
        suppressed = {}
        for path in files:
            rel = path.relative_to(root).as_posix()
            suppressed[rel] = lint_file(path, rel, findings)
        check_allowlist(root, suppressed, findings)
    for path in extra_files:
        path = pathlib.Path(path)
        lint_file(path, path.name, findings)
    return findings


def main():
    default_root = pathlib.Path(__file__).resolve().parent.parent
    args = sys.argv[1:]
    root = default_root
    extra = []
    for arg in args:
        p = pathlib.Path(arg)
        if p.is_dir():
            # Accept either the repo root or the src/ tree itself.
            root = p if (p / "src").is_dir() else p.parent
        else:
            extra.append(p)
    findings = lint_paths(root, extra)
    for rel, lineno, rule, message in findings:
        print(f"FAIL {rel}:{lineno}: [{rule}] {message}")
    scanned = len(list((root / "src").rglob("*.h"))) + \
        len(list((root / "src").rglob("*.cpp"))) + len(extra)
    print(f"determinism: {scanned} files scanned, "
          f"{len(findings)} finding(s)")
    if scanned == 0:
        raise SystemExit("no files scanned: pass the repo root "
                         "(or its src/ dir), not an arbitrary path")
    if findings:
        raise SystemExit(1)
    print("deterministic layers are clean")


if __name__ == "__main__":
    main()
