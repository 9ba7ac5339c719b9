#!/usr/bin/env python3
"""Cross-checks the docs pages against the repo.

Usage: check_docs.py [repo_root]

Every check is fatal on failure:
  1. Every relative markdown link in docs/*.md and README.md resolves
     to an existing file (http(s) links, pure #anchors, and links that
     escape the repo root — e.g. the CI badge's ../../actions URL —
     are skipped).
  2. Every `bench_<name>` mentioned in docs/EXPERIMENTS.md exists as
     bench/<name>.cpp (CMake globs bench/*.cpp into one target per
     file, so file presence == target presence).
  3. Every shipped bench binary (bench/*.cpp) is covered by
     docs/EXPERIMENTS.md.
  4. Every example (examples/*.cpp) has a row in docs/EXPERIMENTS.md's
     example table, and every row names an existing example.
  5. Every public core header (src/core/*.h) is mentioned by stem in
     docs/ARCHITECTURE.md — the layer map must not silently fall
     behind the core surface.
  6. Every runtime header (src/runtime/*.h) is mentioned by stem in
     docs/ARCHITECTURE.md — same rule for the runtime layer (the
     work-stealing pool and the real-thread executor live there).
  7. Every sched header (src/sched/*.h) is mentioned by stem in
     docs/ARCHITECTURE.md — same rule for the model layer (the
     observation feed and the reactive adversaries live there).
  8. Every util header (src/util/*.h) is mentioned by stem in
     docs/ARCHITECTURE.md — same rule for the foundation layer (the
     arena allocator and the contract macros live there).
  9. Every determinism-linter rule name (check_determinism.RULES,
     plus its ESCAPE_HATCH_RULES: allow-comment and stale-allowlist)
     is documented in
     docs/STATIC_ANALYSIS.md — the linter must not grow a rule the
     policy page never explains.
"""
import pathlib
import re
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BENCH_RE = re.compile(r"\bbench_[a-z0-9_]+\b")
EXAMPLE_ROW_RE = re.compile(r"^\| `([a-z0-9_]+)` \|", re.MULTILINE)


def check_links(root):
    failures = []
    pages = sorted((root / "docs").glob("*.md")) + [root / "README.md"]
    checked = 0
    for page in pages:
        if not page.exists():
            failures.append(f"{page}: page itself is missing")
            continue
        for link in LINK_RE.findall(page.read_text()):
            if link.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = (page.parent / link.split("#")[0]).resolve()
            if not target.is_relative_to(root.resolve()):
                continue  # escapes the repo (e.g. the CI badge URL)
            checked += 1
            if not target.exists():
                failures.append(
                    f"{page.relative_to(root)}: broken link -> {link}")
    print(f"links: {checked} internal links checked, "
          f"{len(failures)} broken")
    return failures


def check_benches(root):
    failures = []
    experiments = root / "docs" / "EXPERIMENTS.md"
    mentioned = set(BENCH_RE.findall(experiments.read_text()))
    shipped = {p.stem for p in (root / "bench").glob("*.cpp")}
    for name in sorted(mentioned - shipped):
        failures.append(
            f"EXPERIMENTS.md names {name}, but bench/{name}.cpp "
            f"does not exist")
    for name in sorted(shipped - mentioned):
        failures.append(
            f"bench/{name}.cpp ships, but EXPERIMENTS.md never "
            f"mentions {name}")
    print(f"benches: {len(shipped)} shipped, {len(mentioned)} "
          f"documented, {len(failures)} mismatches")
    return failures


def check_examples(root):
    failures = []
    text = (root / "docs" / "EXPERIMENTS.md").read_text()
    table = text.split("## Example binaries", 1)[-1].split("\n## ", 1)[0]
    listed = set(EXAMPLE_ROW_RE.findall(table))
    shipped = {p.stem for p in (root / "examples").glob("*.cpp")}
    for name in sorted(listed - shipped):
        failures.append(
            f"EXPERIMENTS.md lists example {name}, but "
            f"examples/{name}.cpp does not exist")
    for name in sorted(shipped - listed):
        failures.append(
            f"examples/{name}.cpp ships, but EXPERIMENTS.md's example "
            f"table has no row for it")
    print(f"examples: {len(shipped)} shipped, {len(listed)} "
          f"documented, {len(failures)} mismatches")
    return failures


def check_headers(root, layer):
    failures = []
    architecture = (root / "docs" / "ARCHITECTURE.md").read_text()
    headers = sorted((root / "src" / layer).glob("*.h"))
    for header in headers:
        if not re.search(rf"\b{re.escape(header.stem)}\b", architecture):
            failures.append(
                f"src/{layer}/{header.name} is a public {layer} header, "
                f"but ARCHITECTURE.md never mentions '{header.stem}'")
    print(f"{layer} headers: {len(headers)} shipped, "
          f"{len(failures)} undocumented")
    return failures


def check_linter_rules(root):
    failures = []
    sys.path.insert(0, str(root / "scripts"))
    import check_determinism
    doc = (root / "docs" / "STATIC_ANALYSIS.md").read_text()
    names = [name for name, _, _ in check_determinism.RULES]
    names.extend(check_determinism.ESCAPE_HATCH_RULES)
    for name in names:
        if f"`{name}`" not in doc:
            failures.append(
                f"determinism-linter rule '{name}' is undocumented in "
                f"docs/STATIC_ANALYSIS.md")
    print(f"linter rules: {len(names)} rules, "
          f"{len(failures)} undocumented")
    return failures


def main():
    default_root = pathlib.Path(__file__).resolve().parent.parent
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else default_root
    failures = (check_links(root) + check_benches(root) +
                check_examples(root) +
                check_headers(root, "core") +
                check_headers(root, "runtime") +
                check_headers(root, "sched") +
                check_headers(root, "util") +
                check_linter_rules(root))
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        raise SystemExit(f"{len(failures)} docs check(s) failed")
    print("docs are consistent with the repo")


if __name__ == "__main__":
    main()
