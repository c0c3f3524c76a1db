#!/usr/bin/env python3
"""Docs-link checker: every repo-local path the markdown docs mention
must exist.

Checked, in every tracked ``*.md`` outside ``third_party/``:

* markdown links ``[text](target)`` whose target is not a URL or an
  in-page anchor;
* backticked path mentions like ``docs/OPERATIONS.md``,
  ``tests/cross_runner.rs``, ``results/BENCH_disk.json``, or
  ``crates/core/src/seq.rs`` — the idiom the prose leans on. Only
  mentions that *look like* repo paths (a known top-level directory, or
  a ``*.md`` file at the root) are checked; type names, globs, and
  shell fragments are not paths and are skipped.

Exits non-zero listing every dangling reference, and every tracked
markdown file missing from the worktree, so CI catches docs drift the
moment a file is renamed without its mentions.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Directories whose backticked mentions are treated as repo paths.
PATH_ROOTS = ("docs/", "crates/", "tests/", "examples/", "results/", "scripts/", "benches/")

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BACKTICK = re.compile(r"`([^`\n]+)`")


def tracked_markdown():
    out = subprocess.run(
        # PAPERS.md / SNIPPETS.md are retrieved reference material, not
        # repo docs — their links point at their original sources.
        # CHANGES.md is a history: each entry names files as they were
        # when it was written, including files a later change deleted.
        [
            "git",
            "ls-files",
            "*.md",
            ":!:third_party/*",
            ":!:PAPERS.md",
            ":!:SNIPPETS.md",
            ":!:CHANGES.md",
        ],
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return [ROOT / line for line in out.splitlines() if line]


def candidate_paths(text):
    for m in MD_LINK.finditer(text):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target.split("#", 1)[0]
    for m in BACKTICK.finditer(text):
        t = m.group(1).strip()
        # Path-like: a known top-level dir, or a root-level markdown file.
        # Reject anything with spaces, globs, or code punctuation.
        if re.search(r"[\s*{}()<>|:\"'=,§]|\.\.", t):
            continue
        if t.startswith(PATH_ROOTS) or re.fullmatch(r"[A-Z_]+\.md", t):
            yield t


def main():
    bad = []
    for md in tracked_markdown():
        if not md.is_file():
            bad.append(f"{md.relative_to(ROOT)}: tracked but missing from the worktree")
            continue
        text = md.read_text(encoding="utf-8")
        for rel in sorted(set(candidate_paths(text))):
            if not rel or (ROOT / rel).exists():
                continue
            bad.append(f"{md.relative_to(ROOT)}: dangling reference `{rel}`")
    if bad:
        print("\n".join(bad))
        print(f"\n{len(bad)} doc reference problem(s)", file=sys.stderr)
        return 1
    print(f"ok: all repo-local references in {len(tracked_markdown())} markdown files resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
