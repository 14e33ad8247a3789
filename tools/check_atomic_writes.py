#!/usr/bin/env python3
"""Lint: workspace artifacts reach disk only through ``write_atomic``.

``repro.core.io.write_atomic`` writes a temp file in the target's
directory, fsyncs it and ``os.replace``s it over the target, so a reader
-- or a crash -- sees the old artifact or the new one, never a torn
file, and a live mmap of the ondisk sidecar keeps its inode.  Any other
write in the modules that persist artifacts reopens that hole.  This AST
lint fails when a module under ``src/repro/workspace/``,
``src/repro/index/backends/`` or ``src/repro/core/io.py`` calls, outside
the body of ``write_atomic``:

- ``open(...)`` / ``io.open(...)`` with a writing mode (``w``, ``a``,
  ``x`` or ``+``), or with a mode that is not a string literal;
- ``json.dump(...)`` (encode with ``json.dumps`` and hand the text to
  ``write_atomic``);
- ``<path>.write_text(...)`` / ``<path>.write_bytes(...)``.

Exit status 1 on any violation; intended for tools/ci.sh.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Modules that persist workspace artifacts.
SCANNED = (
    "src/repro/workspace",
    "src/repro/index/backends",
    "src/repro/core/io.py",
)
#: The one function allowed to open files for writing.
WRITER = "write_atomic"
WRITING_MODE_CHARS = set("wax+")


def _scanned_files() -> Iterator[Path]:
    for entry in SCANNED:
        path = REPO_ROOT / entry
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def _open_mode(call: ast.Call) -> Optional[ast.expr]:
    """The mode argument of an ``open`` call (None when defaulted to "r")."""
    if len(call.args) >= 2:
        return call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return None


def _is_open(func: ast.expr) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "open"
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "open"
        and isinstance(func.value, ast.Name)
        and func.value.id == "io"
    )


def _violation(call: ast.Call) -> Optional[str]:
    func = call.func
    if _is_open(func):
        mode = _open_mode(call)
        if mode is None:
            return None
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return "open() with a non-literal mode"
        if WRITING_MODE_CHARS & set(mode.value):
            return f"open(..., {mode.value!r})"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    if (
        func.attr == "dump"
        and isinstance(func.value, ast.Name)
        and func.value.id == "json"
    ):
        return "json.dump(...)"
    if func.attr in ("write_text", "write_bytes"):
        return f".{func.attr}(...)"
    return None


def _scan(tree: ast.AST, inside_writer: bool = False) -> Iterator[ast.Call]:
    """Calls that violate the rule, skipping the body of ``write_atomic``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scan(node, inside_writer or node.name == WRITER)
            continue
        if isinstance(node, ast.Call) and not inside_writer and _violation(node):
            yield node
        yield from _scan(node, inside_writer)


def check_file(path: Path) -> List[str]:
    relative = path.relative_to(REPO_ROOT) if path.is_relative_to(REPO_ROOT) else path
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{relative}:{call.lineno}: {_violation(call)} writes outside "
        f"{WRITER} (route the artifact through repro.core.io.{WRITER})"
        for call in _scan(tree)
    ]


def main(argv: List[str]) -> int:
    paths = [Path(arg).resolve() for arg in argv] or list(_scanned_files())
    problems = [problem for path in paths for problem in check_file(path)]
    if problems:
        print("non-atomic artifact writes:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(
        f"check_atomic_writes: {len(paths)} modules write artifacts only "
        f"through {WRITER}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
