#!/usr/bin/env python3
"""Documentation link checker (run by the ``docs-links`` CI job).

Three rules, all over the repository's markdown:

1. **Reachability** — every ``docs/*.md`` page must be referenced (by
   its ``docs/<name>.md`` path) from ``README.md`` or
   ``docs/architecture.md``, so no documentation page is orphaned.
2. **No dead links** — every ``*.md`` path mentioned in ``README.md``
   or ``docs/*.md`` (markdown links and inline-code mentions alike)
   must resolve to an existing file, relative to the repository root or
   to the mentioning file's directory.
3. **No dead code paths** — every ``repro.<pkg>[.<mod>][.<name>]`` path
   mentioned in ``README.md`` or ``docs/*.md`` must resolve to a module
   under ``src/``, or to a name bound at the top level of that
   package's ``__init__.py`` or of that module (read with ``ast``, so
   nothing is imported). ``repro.pkg.{a,b}`` expands to both paths.
   Mentions under a heading that ends in "(removed)" are exempt: those
   sections document deleted code on purpose.

Exits non-zero with one line per violation.
"""

from __future__ import annotations

import ast
import functools
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
SRC_DIR = REPO_ROOT / "src"

#: Files whose mentions anchor rule 1.
ENTRY_POINTS = ("README.md", "docs/architecture.md")

#: Any relative markdown-file path: ``docs/fleet.md``, ``DESIGN.md``,
#: ``../README.md`` — but not URLs (no scheme separator matches).
_MD_PATH = re.compile(r"(?<![\w/])((?:[\w.-]+/)*[\w.-]+\.md)(?:#[\w-]*)?\b")

#: A dotted code path rooted at the package, optionally ending in a
#: ``{a,b}`` group — but not a file path such as ``src/repro/cli.py``.
_CODE_PATH = re.compile(r"(?<![\w./])(repro(?:\.\w+)+)(?:\.\{([\w,]+)\})?")

_HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")


def _mentions(path: Path) -> set[str]:
    return set(_MD_PATH.findall(path.read_text(encoding="utf-8")))


def _code_mentions(path: Path) -> set[str]:
    """Dotted ``repro`` paths outside "(removed)" sections."""
    found: set[str] = set()
    headings: list[tuple[int, str]] = []
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        heading = None if in_fence else _HEADING.match(line)
        if heading:
            level = len(heading.group(1))
            while headings and headings[-1][0] >= level:
                headings.pop()
            headings.append((level, heading.group(2)))
            continue
        if any(title.endswith("(removed)") for _, title in headings):
            continue
        for base, group in _CODE_PATH.findall(line):
            if group:
                found.update(f"{base}.{name}" for name in group.split(","))
            else:
                found.add(base)
    return found


@functools.cache
def _bound_names(source: Path) -> frozenset[str]:
    """Names bound at the top level of one Python file."""
    names: set[str] = set()

    def visit(body: list[ast.stmt]) -> None:
        for node in body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.add(node.name)
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            names.add(sub.id)
            # Definitions under if/try/with still bind at the top level.
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                visit(handler.body)

    visit(ast.parse(source.read_text(encoding="utf-8")).body)
    return frozenset(names)


def _resolves(dotted: str) -> bool:
    """True when ``repro.a.b[.name]`` names a module or a bound name."""
    parts = dotted.split(".")
    package = SRC_DIR / parts[0]
    if not (package / "__init__.py").is_file():
        return False
    for index, part in enumerate(parts[1:], start=1):
        if (package / part / "__init__.py").is_file():
            package = package / part
            continue
        if (package / f"{part}.py").is_file():
            rest = parts[index + 1:]
            return not rest or rest[0] in _bound_names(package / f"{part}.py")
        return part in _bound_names(package / "__init__.py")
    return True


def main() -> int:
    errors: list[str] = []

    entry_mentions: set[str] = set()
    for name in ENTRY_POINTS:
        entry = REPO_ROOT / name
        if not entry.is_file():
            errors.append(f"missing entry point: {name}")
            continue
        entry_mentions |= _mentions(entry)

    for page in sorted(DOCS_DIR.glob("*.md")):
        rel = page.relative_to(REPO_ROOT).as_posix()
        if rel in ENTRY_POINTS:
            continue
        if rel not in entry_mentions:
            errors.append(
                f"orphaned page: {rel} is referenced by neither "
                + " nor ".join(ENTRY_POINTS)
            )

    checked = [REPO_ROOT / "README.md", *sorted(DOCS_DIR.glob("*.md"))]
    for source in checked:
        if not source.is_file():
            continue
        rel = source.relative_to(REPO_ROOT).as_posix()
        for target in sorted(_mentions(source)):
            candidates = (REPO_ROOT / target, source.parent / target)
            if not any(c.is_file() for c in candidates):
                errors.append(f"dead link: {rel} mentions {target}")
        for dotted in sorted(_code_mentions(source)):
            if not _resolves(dotted):
                errors.append(f"dead code path: {rel} mentions {dotted}")

    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"{len(errors)} documentation link problem(s)",
              file=sys.stderr)
        return 1
    count = len(list(DOCS_DIR.glob('*.md')))
    print(f"docs links OK ({count} pages, {len(checked)} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
