"""repro.lint: rule positives/negatives, config, CLI, and the live-tree
cleanliness gate."""

import os
import re

import pytest

from repro.lint import Linter, RULES, rules_for
from repro.lint.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "lint_fixtures")

ALL_RULES = frozenset(RULES)


def lint_fixture(name, rules=ALL_RULES):
    path = os.path.join(FIXTURES, name)
    return Linter(rules=rules, root=REPO_ROOT).lint_file(path)


def rule_lines(findings, rule):
    return [f.line for f in findings if f.rule == rule]


# -------------------------------------------------------------------------
# one positive and one negative fixture per rule
# -------------------------------------------------------------------------

def test_no_wallclock_positive_catches_aliased_imports():
    findings = lint_fixture("wallclock_bad.py")
    assert rule_lines(findings, "no-wallclock") == [9, 10, 11]
    assert all(f.rule == "no-wallclock" for f in findings)
    assert "repro.obs.clock" in findings[0].hint


def test_no_wallclock_negative():
    assert lint_fixture("wallclock_ok.py") == []


def test_no_builtin_hash_positive():
    findings = lint_fixture("builtin_hash_bad.py")
    assert rule_lines(findings, "no-builtin-hash") == [5]
    assert "PYTHONHASHSEED" in findings[0].message


def test_no_builtin_hash_negative_digest_and_shadowing():
    assert lint_fixture("builtin_hash_ok.py") == []


def test_no_unseeded_rng_positive():
    findings = lint_fixture("unseeded_rng_bad.py")
    assert rule_lines(findings, "no-unseeded-rng") == [9, 10, 11]


def test_no_unseeded_rng_negative():
    assert lint_fixture("unseeded_rng_ok.py") == []


def test_rng_stream_discipline_positive():
    findings = lint_fixture("stream_discipline_bad.py")
    assert rule_lines(findings, "rng-stream-discipline") == [7]
    assert "measure" in findings[0].message


def test_rng_stream_discipline_negative_coerce_split_nested():
    assert lint_fixture("stream_discipline_ok.py") == []


def test_canonical_serialization_positive():
    findings = lint_fixture("serialization_bad.py")
    lines = rule_lines(findings, "canonical-serialization")
    assert lines == [9, 10, 12, 14]  # listdir, glob, set-iter, dumps


def test_canonical_serialization_negative():
    assert lint_fixture("serialization_ok.py") == []


# -------------------------------------------------------------------------
# per-directory config
# -------------------------------------------------------------------------

def test_obs_may_read_the_clock_nobody_else_may():
    assert "no-wallclock" not in rules_for("src/repro/obs/registry.py")
    assert "no-wallclock" in rules_for("src/repro/core/decoder.py")
    assert "no-wallclock" in rules_for("benchmarks/bench_kernels.py")
    assert "no-wallclock" in rules_for("examples/quickstart.py")


def test_fixture_corpus_is_policy_disabled():
    assert rules_for("tests/lint_fixtures/wallclock_bad.py") == frozenset()


def test_unmatched_paths_get_every_rule():
    assert rules_for("scratch.py") == ALL_RULES
    assert rules_for("somewhere/else/deep.py") == ALL_RULES


# -------------------------------------------------------------------------
# the live tree is lint-clean (the CI gate, run in-process)
# -------------------------------------------------------------------------

def test_live_tree_is_lint_clean():
    linter = Linter(root=REPO_ROOT)
    paths = [os.path.join(REPO_ROOT, d)
             for d in ("src", "benchmarks", "examples", "tests")]
    report = linter.lint_paths(paths)
    assert report.ok, "\n" + "\n".join(
        f.render() for f in report.findings)
    assert report.n_files > 100


# -------------------------------------------------------------------------
# acceptance: each rule's violation seeded into a scratch file fails the
# CLI with the correct rule id (default config: unmatched path, all rules)
# -------------------------------------------------------------------------

_SCRATCH_VIOLATIONS = {
    "no-wallclock": "from time import perf_counter as pc\nt = pc()\n",
    "no-builtin-hash": "seed = hash('sched') % 1000\n",
    "no-unseeded-rng": "import numpy as np\nr = np.random.default_rng()\n",
    "rng-stream-discipline": (
        "import numpy as np\n"
        "def f(rng):\n"
        "    return np.random.default_rng(7)\n"),
    "canonical-serialization": (
        "import os\nfiles = os.listdir('.')\n"),
}


@pytest.mark.parametrize("rule", sorted(_SCRATCH_VIOLATIONS))
def test_scratch_violation_fails_cli_with_correct_rule(rule, tmp_path,
                                                       capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / f"{rule.replace('-', '_')}_scratch.py"
    path.write_text(_SCRATCH_VIOLATIONS[rule])
    exit_code = main([str(path)])
    out = capsys.readouterr().out
    locations = re.findall(r"^\S+_scratch\.py:(\d+):\d+: \[([a-z-]+)\]",
                           out, re.MULTILINE)
    assert exit_code == 1
    assert locations
    assert {rule_id for _, rule_id in locations} == {rule}
    assert all(int(line) >= 1 for line, _ in locations)
    assert out.count("hint: ") == len(locations)


# -------------------------------------------------------------------------
# CLI surface
# -------------------------------------------------------------------------

def test_cli_clean_exit(tmp_path, capsys):
    path = tmp_path / "clean.py"
    path.write_text("import numpy as np\nr = np.random.default_rng(3)\n")
    assert main([str(path)]) == 0
    assert "ok: 1 file(s) clean" in capsys.readouterr().out


def test_cli_text_output_includes_location_and_rule(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "bad.py"
    path.write_text("import time\nt = time.time()\n")
    exit_code = main([str(path)])
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "bad.py:2:4: [no-wallclock]" in out
    assert "1 finding(s)" in out


def test_cli_list_rules_renders_table_and_policies(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    table = out.split("\n\n")[0].splitlines()
    assert table[0] == "rules:"
    assert [line.split()[0] for line in table[1:]] == sorted(
        {*RULES, "parse-error"})
    assert "src/repro/obs: no-wallclock" in out


def test_parse_error_is_a_finding(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n")
    findings = Linter(rules=ALL_RULES,
                      root=str(tmp_path)).lint_file(str(path))
    assert [f.rule for f in findings] == ["parse-error"]
