"""``python -m repro.lint [paths]`` — run the determinism rules over the tree.

Paths default to ``src benchmarks examples`` and directory policies
resolve against the current directory, so run it from the repo root.
Exit status is 0 when every checked file is clean and 1 on any finding.
``--list-rules`` prints the rule table and the directory policies.
"""

from __future__ import annotations

import argparse
import sys

from repro.lint.config import POLICIES
from repro.lint.engine import Linter
from repro.lint.rules import RULES

__all__ = ["main"]

DEFAULT_PATHS = ("src", "benchmarks", "examples")


def _list_rules() -> int:
    table = {rule_id: rule.description for rule_id, rule in RULES.items()}
    table["parse-error"] = "file does not parse as Python"
    width = max(len(rule_id) for rule_id in table)
    print("rules:")
    for rule_id in sorted(table):
        print(f"  {rule_id:<{width}}  {table[rule_id]}")
    print("\ndirectory policies (longest prefix wins; unmatched paths get "
          "every rule):")
    for policy in POLICIES:
        print(f"  {policy.prefix}: {', '.join(sorted(policy.disable))}")
        print(f"      {policy.note}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based determinism/reproducibility linter "
                    "(see --list-rules for the rule table and directory "
                    "policies)")
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and directory policies, then exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        return _list_rules()

    report = Linter().lint_paths(args.paths)
    for finding in report.findings:
        print(finding.render())
    print(f"{len(report.findings)} finding(s) in {report.n_files} file(s)"
          if report.findings
          else f"ok: {report.n_files} file(s) clean")
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
