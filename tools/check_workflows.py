#!/usr/bin/env python3
"""Checks that every GitHub Actions workflow file parses as YAML.

Usage:
    check_workflows.py [file ...]   default: .github/workflows/*.yml

A workflow that does not parse runs no job at all, and nothing else in a
local build notices. Registered as the tier-1 ctest CiWorkflowsParse
(cmake/StaticAnalysis.cmake).

Exit status: 0 every file parses, 1 a file does not (the parser's message
on stderr), 77 PyYAML is not installed (ctest reports the test skipped).
"""

import pathlib
import sys

SKIP = 77


def main(argv):
    try:
        import yaml
    except ImportError:
        print("check_workflows: PyYAML not installed; skipped",
              file=sys.stderr)
        return SKIP
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = [pathlib.Path(arg) for arg in argv] or sorted(
        (root / ".github" / "workflows").glob("*.yml"))
    if not paths:
        print("check_workflows: no workflow files found", file=sys.stderr)
        return 1
    failed = False
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                document = yaml.safe_load(f)
        except (OSError, yaml.YAMLError) as e:
            print(f"{path}: {e}", file=sys.stderr)
            failed = True
            continue
        if not isinstance(document, dict) or "jobs" not in document:
            print(f"{path}: no 'jobs' mapping", file=sys.stderr)
            failed = True
            continue
        print(f"{path}: ok ({len(document['jobs'])} jobs)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
