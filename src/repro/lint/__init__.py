"""AST-based determinism and reproducibility linter.

The repo's headline guarantees — byte-identical store files, worker-count
invariant sweeps — rest on source-level invariants that a ``grep`` cannot
see through an import alias, and that a behavioural test misses when the
nondeterminism happens to leave its outputs alone:

- no wall-clock reads outside :mod:`repro.obs` (``no-wallclock``),
- no ``PYTHONHASHSEED``-dependent seeding via builtin ``hash()``
  (``no-builtin-hash`` — the fig8_10 incident class),
- no unseeded or global-state RNG in library code (``no-unseeded-rng``),
- no function that both accepts and independently constructs a
  ``Generator`` (``rng-stream-discipline``),
- no order-nondeterministic serialization: set iteration, unsorted
  directory listings, ``json.dumps`` without ``sort_keys``
  (``canonical-serialization``).

:mod:`repro.lint.engine` provides the visitor framework (import/alias
resolution, bound names, parent links); :mod:`repro.lint.rules` the
rules; :mod:`repro.lint.config` the per-directory policies (``obs/`` may
read the clock, ``tests/`` may time); and ``python -m repro.lint`` the
CLI.
"""

from repro.lint.config import POLICIES, Policy, rules_for
from repro.lint.engine import Finding, Linter, LintReport
from repro.lint.rules import RULES

__all__ = [
    "Finding",
    "LintReport",
    "Linter",
    "POLICIES",
    "Policy",
    "RULES",
    "rules_for",
]
