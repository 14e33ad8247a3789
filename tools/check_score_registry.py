#!/usr/bin/env python3
"""Lint the score-function registry against its derived surfaces.

The registry in ``src/repro/scoring/`` is the single source of truth
for prestige score functions.  This lint (modeled on
``check_metric_names.py``) fails CI when any derived surface drifts:

1. the CLI ``--function`` choice lists must equal the registered names
   and ``--paper-set`` must equal ``scoring.PAPER_SET_NAMES`` on every
   subcommand, nested ones included; ``repro search`` and ``repro
   tune`` must both expose ``--function``;
2. the workspace must derive exactly one ``scores_<function>_<paper_set>``
   artifact per evaluation arm, with the dependency chain
   ``(<paper_set>_paper_set,) + spec.substrates``;
3. the "Registered score functions" table of ``docs/architecture.md``
   must list exactly the registered names;
4. no literal function-name dispatch ladder (``function == "citation"``)
   and no hand-rolled choices tuple of function names may exist in
   ``src/`` outside ``src/repro/scoring/`` -- derive from the registry
   instead.

Exit status 1 on any violation; intended for tools/ci.sh.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DOCS_PATH = "docs/architecture.md"
#: The registry package itself is where literal names belong.
EXEMPT_PREFIX = "src/repro/scoring/"


#: Subcommands (nested ones space-joined) required to expose --function.
REQUIRED_SUBCOMMANDS = {"search", "tune"}


def check_cli_choices(scoring) -> list:
    """CLI --function / --paper-set choices must come from the registry."""
    from repro.cli import build_parser

    problems = []
    names = tuple(scoring.function_names())
    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    seen = set()

    def scan(subcommand, parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for nested_name, nested in action.choices.items():
                    scan(f"{subcommand} {nested_name}", nested)
                continue
            if "--function" in action.option_strings:
                seen.add(subcommand)
                if tuple(action.choices or ()) != names:
                    problems.append(
                        f"cli: `{subcommand} --function` choices "
                        f"{tuple(action.choices or ())} != registry {names}"
                    )
            if "--paper-set" in action.option_strings:
                if tuple(action.choices or ()) != scoring.PAPER_SET_NAMES:
                    problems.append(
                        f"cli: `{subcommand} --paper-set` choices "
                        f"{tuple(action.choices or ())} != "
                        f"{scoring.PAPER_SET_NAMES}"
                    )

    for subcommand, parser in subparsers.choices.items():
        scan(subcommand, parser)
    for subcommand in sorted(REQUIRED_SUBCOMMANDS - seen):
        problems.append(f"cli: `{subcommand}` has no --function flag")
    return problems


def check_workspace_artifacts(scoring) -> list:
    """One fingerprinted score artifact per arm, deps from the spec."""
    from repro.workspace import ARTIFACTS

    problems = []
    expected = {
        f"scores_{fn}_{ps}": (f"{ps}_paper_set",) + scoring.get(fn).substrates
        for fn, ps in scoring.evaluation_arms()
    }
    actual = {
        name: artifact.deps
        for name, artifact in ARTIFACTS.items()
        if name.startswith("scores_")
    }
    for name in sorted(set(expected) - set(actual)):
        problems.append(f"workspace: arm artifact {name} missing from ARTIFACTS")
    for name in sorted(set(actual) - set(expected)):
        problems.append(
            f"workspace: score artifact {name} has no registry arm"
        )
    for name in sorted(set(expected) & set(actual)):
        if expected[name] != actual[name]:
            problems.append(
                f"workspace: {name} deps {actual[name]} != spec-derived "
                f"{expected[name]}"
            )
    return problems


#: First cell of a "Registered score functions" table row.
DOCS_ROW_RE = re.compile(r"^\|\s*`([a-z][a-z0-9_]*)`\s*\|")


def docs_table_names() -> list:
    """Function names listed in the architecture docs table, in order."""
    text = (REPO_ROOT / DOCS_PATH).read_text(encoding="utf-8")
    names = []
    in_section = False
    for line in text.splitlines():
        if line.strip() == "Registered score functions:":
            in_section = True
            continue
        if in_section:
            row = DOCS_ROW_RE.match(line)
            if row:
                names.append(row.group(1))
            elif names:
                break  # table ended
    return names


def check_docs(scoring) -> list:
    documented = docs_table_names()
    registered = list(scoring.function_names())
    problems = []
    if not documented:
        problems.append(
            f"docs: no 'Registered score functions' table found in {DOCS_PATH}"
        )
        return problems
    for name in registered:
        if name not in documented:
            problems.append(
                f"docs: registered function {name!r} missing from the "
                f"{DOCS_PATH} table"
            )
    for name in documented:
        if name not in registered:
            problems.append(
                f"docs: {DOCS_PATH} table lists unregistered function {name!r}"
            )
    return problems


#: ``function == "..."`` / ``function_name == '...'`` dispatch ladders.
DISPATCH_RE = re.compile(r"\bfunction(?:_name)?\s*==\s*[\"'][a-z0-9_]+[\"']")
#: A run of two or more adjacent string literals (a choices tuple body).
LITERAL_RUN_RE = re.compile(
    r"[\"']([a-z][a-z0-9_]*)[\"'](?:\s*,\s*[\"']([a-z][a-z0-9_]*)[\"'])+"
)
COMMENT_RE = re.compile(r"#.*$")


def scan_for_ladders(scoring) -> list:
    """No literal dispatch or function-name tuples outside the registry."""
    names = set(scoring.function_names())
    paper_sets = set(scoring.PAPER_SET_NAMES)
    problems = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        relative = str(path.relative_to(REPO_ROOT))
        if relative.startswith(EXEMPT_PREFIX):
            continue
        for lineno, raw in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = COMMENT_RE.sub("", raw)
            if DISPATCH_RE.search(line):
                problems.append(
                    f"src: {relative}:{lineno}: literal function dispatch "
                    f"(derive from repro.scoring instead)"
                )
            for match in LITERAL_RUN_RE.finditer(line):
                literals = re.findall(r"[\"']([a-z][a-z0-9_]*)[\"']", match.group(0))
                # A hand-rolled choices tuple: every literal is a registered
                # function name and at least one is unambiguously a function
                # (the text/pattern paper-set pair stays legal).
                if set(literals) <= names and not set(literals) <= paper_sets:
                    problems.append(
                        f"src: {relative}:{lineno}: literal function-name "
                        f"tuple {tuple(literals)} (use scoring.function_names())"
                    )
    return problems


def main() -> int:
    from repro import scoring

    problems = []
    problems.extend(check_cli_choices(scoring))
    problems.extend(check_workspace_artifacts(scoring))
    problems.extend(check_docs(scoring))
    problems.extend(scan_for_ladders(scoring))
    if problems:
        print("score-registry violations:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    arms = len(scoring.evaluation_arms())
    print(
        f"check_score_registry: {len(scoring.function_names())} functions, "
        f"{arms} arms -- CLI, workspace, and docs agree with the registry"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
