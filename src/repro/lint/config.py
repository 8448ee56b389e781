"""Per-directory rule policies: which rules apply where, and why.

The default is maximal: every rule applies to any path no policy matches
(so seeding a violation into a scratch file anywhere fails the lint).
Policies then *subtract* rules for directories whose job makes a rule
wrong, each with a recorded reason.  They are the only exemption
mechanism; there are no inline waivers.

- ``src/repro/obs`` may read the wall clock: it *owns* the clock
  (``repro.obs.clock``), and keeping every other directory wallclock-free
  is exactly what makes metrics provably out-of-band.  ``benchmarks`` and
  ``examples`` get no policy: they time through ``repro.obs.clock`` like
  library code.
- ``tests`` may time and use ad-hoc randomness locally: the suite
  *asserts* library determinism, it does not need to be deterministic
  itself (hypothesis, timing-tolerance checks).
- ``tests/lint_fixtures`` is the deliberate-violation corpus; it is
  linted only with explicit rule sets by ``tests/test_lint.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.lint.rules import RULES

__all__ = ["POLICIES", "Policy", "rules_for"]


@dataclass(frozen=True)
class Policy:
    """Rules subtracted for one directory subtree, with the reason why."""

    prefix: str                    # repo-relative, forward slashes
    disable: frozenset[str]
    note: str

    def matches(self, rel_path: str) -> bool:
        return rel_path == self.prefix or rel_path.startswith(
            self.prefix + "/")


#: The policies; for a path several match, the longest prefix wins.
POLICIES: tuple[Policy, ...] = (
    Policy(
        prefix="src/repro/obs",
        disable=frozenset({"no-wallclock"}),
        note=("obs owns the clock: repro.obs.clock is the one sanctioned "
              "wall-clock read, which is what keeps metrics out-of-band "
              "everywhere else"),
    ),
    Policy(
        prefix="tests",
        disable=frozenset({
            "no-wallclock", "no-unseeded-rng", "canonical-serialization",
        }),
        note=("tests assert library determinism but may time and "
              "randomize locally, and write deliberately non-canonical "
              "store files (the quarantine tests) that the serialization "
              "rule would flag"),
    ),
    Policy(
        prefix="tests/lint_fixtures",
        disable=frozenset(RULES),
        note=("deliberate-violation corpus, linted with explicit rule "
              "sets by tests/test_lint.py"),
    ),
)


def rules_for(rel_path: str) -> frozenset[str]:
    """Enabled rules for a repo-relative path: every rule, minus those the
    longest matching policy disables."""
    rel = rel_path.replace(os.sep, "/")
    matching = [policy for policy in POLICIES if policy.matches(rel)]
    if not matching:
        return frozenset(RULES)
    longest = max(matching, key=lambda policy: len(policy.prefix))
    return frozenset(RULES) - longest.disable
