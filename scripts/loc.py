#!/usr/bin/env python3
"""Lines of Rust per crate — the number ROADMAP aim 2 tracks.

Per crate under crates/ (and per file with --files CRATE): total lines
of src/**/*.rs, and lines outside test code. Test code is a
`#[cfg(test)]` item (attribute line to the item's closing brace or
semicolon) or a whole file that starts with `#![cfg(test)]`. Braces are
counted textually — good enough for rustfmt-formatted code, which keeps
an item's closing brace on its own line at the attribute's indent.

    scripts/loc.py              # table over all crates
    scripts/loc.py --files io   # per-file rows for crates/io
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def count(path):
    """(total, non_test) line counts of one .rs file."""
    lines = path.read_text().splitlines()
    if any(line.strip() == "#![cfg(test)]" for line in lines[:5]):
        return len(lines), 0
    test, i = 0, 0
    while i < len(lines):
        if lines[i].strip() != "#[cfg(test)]":
            i += 1
            continue
        # The item ends at the first `;` before any `{`, or where the
        # braces opened after the attribute balance again.
        start, depth, opened = i, 0, False
        while i < len(lines):
            line = lines[i]
            depth += line.count("{") - line.count("}")
            opened = opened or "{" in line
            i += 1
            if (opened and depth == 0) or (not opened and line.rstrip().endswith(";")):
                break
        test += i - start
    return len(lines), len(lines) - test


def main():
    args = sys.argv[1:]
    if args[:1] == ["--files"] and len(args) == 2:
        rows = [(str(p.relative_to(ROOT)), *count(p))
                for p in sorted((ROOT / "crates" / args[1] / "src").rglob("*.rs"))]
    elif not args:
        rows = []
        for crate in sorted((ROOT / "crates").iterdir()):
            counts = [count(p) for p in (crate / "src").rglob("*.rs")]
            if counts:
                rows.append((crate.name, *map(sum, zip(*counts))))
    else:
        sys.exit(__doc__)
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'':{width}}  {'total':>7}  {'non-test':>8}")
    for name, total, non_test in rows:
        print(f"{name:{width}}  {total:7}  {non_test:8}")


if __name__ == "__main__":
    main()
