"""repro.lint.contracts: the cross-module contract layer.

Positives pin exact line numbers against the seeded-bug fixtures under
``tests/lint_fixtures/contracts/``; negatives assert the clean twins are
silent; plus the module graph, suppression interplay, ``--changed-only``,
SARIF, and the live-tree gate under the full contract rule set.
"""

import json
import os
import subprocess

import pytest

from repro.lint import Linter, RULES
from repro.lint.cli import main
from repro.lint.contracts import ModuleGraph, module_name_for_path
from repro.lint.engine import ModuleContext
from repro.lint.rules import checkable_rule_ids
from repro.lint.sarif import sarif_report

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONTRACTS = os.path.join(REPO_ROOT, "tests", "lint_fixtures", "contracts")
BROKEN = os.path.join(CONTRACTS, "brokenpkg")
GOOD = os.path.join(CONTRACTS, "goodpkg")
MIRROR = "tests/lint_fixtures/contracts/brokenpkg/mirror_backend.py"

ALL_RULES = checkable_rule_ids() | {"unused-suppression"}

CONTRACT_RULE_IDS = {"backend-parity", "kernel-dtype-flow",
                     "fork-fence-safety"}


def lint_tree(path, rules=ALL_RULES):
    return Linter(rules=rules, root=REPO_ROOT).lint_paths([path])


def findings_by_rule(report, rule):
    return [f for f in report.findings if f.rule == rule]


# -------------------------------------------------------------------------
# registry and engine integration
# -------------------------------------------------------------------------

def test_contract_rules_registered_and_cross_file():
    for rule_id in CONTRACT_RULE_IDS:
        assert rule_id in RULES
        assert RULES[rule_id].cross_file
        assert RULES[rule_id].checkable
    # the per-file PR-7 rules stay file-scoped
    assert not RULES["no-wallclock"].cross_file


def test_module_graph_names_and_call_edges():
    source = open(os.path.join(BROKEN, "mirror_backend.py"),
                  encoding="utf-8").read()
    import ast as ast_mod
    ctx = ModuleContext(MIRROR, ast_mod.parse(source), source)
    graph = ModuleGraph([ctx])
    name = module_name_for_path(MIRROR)
    assert name == "tests.lint_fixtures.contracts.brokenpkg.mirror_backend"
    info = graph.module(name)
    assert "_hash_word" in info.njit_functions
    assert (name, "_hash_word") in graph.reachable([(name, "make_backend")])


def test_module_name_strips_src_prefix():
    assert module_name_for_path(
        "src/repro/backend/numpy_backend.py"
    ) == "repro.backend.numpy_backend"


# -------------------------------------------------------------------------
# backend-parity: positives with exact lines, then the clean twin
# -------------------------------------------------------------------------

def test_parity_reports_swapped_args_and_missing_kernel_with_lines():
    report = lint_tree(BROKEN)
    parity = findings_by_rule(report, "backend-parity")
    assert [(f.path, f.line) for f in parity] == [
        (MIRROR, 29),   # branch_costs(slots, states, ...): swapped args
        (MIRROR, 42),   # Backend(...) missing select_beams
    ]
    drift, missing = parity
    assert "positional parameters" in drift.message
    assert "numpy_backend" in drift.message
    assert "missing kernel 'select_beams'" in missing.message


def test_parity_negative_on_clean_package():
    report = lint_tree(GOOD)
    assert findings_by_rule(report, "backend-parity") == []


# -------------------------------------------------------------------------
# kernel-dtype-flow: positives with exact lines, then the clean twin
# -------------------------------------------------------------------------

def test_dtypeflow_reports_seeded_kernel_bugs_with_lines():
    report = lint_tree(BROKEN)
    flow = findings_by_rule(report, "kernel-dtype-flow")
    lines = {(f.line, f.message.split(":")[0]) for f in flow}
    assert (24, "unmasked uint subtraction in an @njit kernel") in lines
    assert any(f.line == 25 and "bare float literal" in f.message
               for f in flow)
    assert any(f.line == 32 and "complex multiply" in f.message
               for f in flow)
    # cross-backend drift: mirror converts to float32/complex128 where the
    # reference kernel uses only float64
    drift = [f for f in flow if "reference backend" in f.message]
    assert [(f.line, f.message.split(" ")[3]) for f in drift] == [
        (30, "float32"), (31, "complex128")]
    assert all(f.path == MIRROR for f in flow)


def test_dtypeflow_negative_on_sanctioned_idioms_through_shim():
    # goodpkg/alt_backend.py uses the numba-absent njit shim plus every
    # sanctioned form: const-left subtraction, masked adds, (1<<c)-1
    report = lint_tree(GOOD)
    assert findings_by_rule(report, "kernel-dtype-flow") == []


def test_dtypeflow_single_file_scope_still_fires():
    # run() findings need no graph: lint_file on the mirror alone reports
    # the in-kernel bugs (drift needs the pair, so it is absent)
    findings = Linter(rules=ALL_RULES, root=REPO_ROOT).lint_file(
        os.path.join(BROKEN, "mirror_backend.py"))
    flow = [f for f in findings if f.rule == "kernel-dtype-flow"]
    assert {f.line for f in flow} >= {24, 25, 32}
    assert not any("reference backend" in f.message for f in flow)


# -------------------------------------------------------------------------
# fork-fence-safety
# -------------------------------------------------------------------------

def test_fork_safety_reports_unguarded_worker_mutation_with_line():
    report = lint_tree(os.path.join(CONTRACTS, "fork_bad.py"))
    fork = findings_by_rule(report, "fork-fence-safety")
    assert [(f.path, f.line) for f in fork] == [
        ("tests/lint_fixtures/contracts/fork_bad.py", 15)]
    assert "_COUNTER" in fork[0].message
    assert "adopt()" in fork[0].hint


def test_fork_safety_covers_process_pool_executor():
    """``utils.parallel`` fans out through ``ProcessPoolExecutor.map``;
    that call site is a worker entry point too."""
    report = lint_tree(os.path.join(CONTRACTS, "fork_executor_bad.py"))
    fork = findings_by_rule(report, "fork-fence-safety")
    path = "tests/lint_fixtures/contracts/fork_executor_bad.py"
    assert [(f.path, f.line) for f in fork] == [(path, 16)]


def test_fork_safety_negative_on_guarded_memo():
    report = lint_tree(os.path.join(CONTRACTS, "fork_ok.py"))
    assert findings_by_rule(report, "fork-fence-safety") == []


# -------------------------------------------------------------------------
# suppression interplay: graph findings ride the same machinery
# -------------------------------------------------------------------------

def test_graph_finding_suppressed_and_audited_like_file_finding(tmp_path):
    src = open(os.path.join(CONTRACTS, "fork_bad.py"),
               encoding="utf-8").read()
    waived = src.replace(
        "_COUNTER = _COUNTER + 1   # seeded: unguarded worker-side rebind",
        "_COUNTER = _COUNTER + 1  # repro: disable=fork-fence-safety")
    p = tmp_path / "fork_waived.py"
    p.write_text(waived)
    report = Linter(rules=ALL_RULES, root=str(tmp_path)).lint_paths(
        [str(p)])
    assert report.ok  # suppressed, and the suppression counts as used

    stale = src.replace(
        "return job * 2",
        "return job * 2  # repro: disable=fork-fence-safety")
    p2 = tmp_path / "fork_stale.py"
    p2.write_text(stale)
    report2 = Linter(rules=ALL_RULES, root=str(tmp_path)).lint_paths(
        [str(p2)])
    rules = sorted(f.rule for f in report2.findings)
    assert rules == ["fork-fence-safety", "unused-suppression"]


# -------------------------------------------------------------------------
# acceptance: CLI --json on the seeded fixture reports exact file:line
# -------------------------------------------------------------------------

def test_cli_json_reports_underflow_and_missing_kernel(tmp_path, capsys):
    out = tmp_path / "findings.json"
    rc = main([BROKEN, "--json", "--output", str(out),
               "--rules", ",".join(sorted(CONTRACT_RULE_IDS)),
               "--root", REPO_ROOT])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == json.loads(out.read_text())
    locs = {(f["rule"], f["path"], f["line"]) for f in payload["findings"]}
    assert ("kernel-dtype-flow", MIRROR, 24) in locs   # x - y underflow
    assert ("backend-parity", MIRROR, 42) in locs      # missing kernel


# -------------------------------------------------------------------------
# SARIF
# -------------------------------------------------------------------------

def test_sarif_structure_and_locations(tmp_path):
    sarif_path = tmp_path / "lint.sarif"
    rc = main([BROKEN, "--sarif", str(sarif_path),
               "--rules", ",".join(sorted(CONTRACT_RULE_IDS)),
               "--root", REPO_ROOT])
    assert rc == 1
    doc = json.loads(sarif_path.read_text())
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.lint"
    declared = {r["id"] for r in run["tool"]["driver"]["rules"]}
    used = {r["ruleId"] for r in run["results"]}
    assert used <= declared <= CONTRACT_RULE_IDS
    by_loc = {
        (r["ruleId"],
         r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"],
         r["locations"][0]["physicalLocation"]["region"]["startLine"])
        for r in run["results"]}
    assert ("kernel-dtype-flow", MIRROR, 24) in by_loc
    assert all(r["level"] == "error" for r in run["results"])
    # SARIF columns are 1-based; the engine's are 0-based
    cols = [r["locations"][0]["physicalLocation"]["region"]["startColumn"]
            for r in run["results"]]
    assert min(cols) >= 1


def test_sarif_empty_report_is_valid():
    report = lint_tree(GOOD)
    doc = sarif_report(report)
    assert doc["runs"][0]["results"] == []
    assert doc["runs"][0]["tool"]["driver"]["rules"] == []


# -------------------------------------------------------------------------
# --changed-only
# -------------------------------------------------------------------------

def _git(cwd, *args):
    subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True,
        env={**os.environ,
             "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
             "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"})


def test_changed_only_lints_only_git_modified_files(tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    clean = repo / "clean.py"
    clean.write_text("import time\n\n\ndef f():\n    return time.time()\n")
    _git(repo, "init", "-q")
    _git(repo, "add", ".")
    _git(repo, "commit", "-qm", "seed")
    # clean.py is committed and untouched; bad.py is new (untracked)
    bad = repo / "bad.py"
    bad.write_text("import time\n\n\ndef f():\n    return time.time()\n")
    rc = main([str(repo), "--changed-only", "--json",
               "--rules", "no-wallclock", "--root", str(repo)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_files"] == 1
    assert [f["path"] for f in payload["findings"]] == ["bad.py"]


def test_changed_only_falls_back_to_full_walk_outside_git(
        tmp_path, capsys):
    d = tmp_path / "plain"
    d.mkdir()
    (d / "bad.py").write_text(
        "import time\n\n\ndef f():\n    return time.time()\n")
    rc = main([str(d), "--changed-only", "--json",
               "--rules", "no-wallclock", "--root", str(d)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_files"] == 1  # fell back to the full walk


def test_changed_only_documented_in_help(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    help_text = capsys.readouterr().out
    assert "--changed-only" in help_text
    assert "--sarif" in help_text


# -------------------------------------------------------------------------
# live-tree gate under the full contract rule set
# -------------------------------------------------------------------------

def test_live_tree_clean_under_forced_contract_rules():
    # Force the contract rules everywhere (no per-directory subtractions)
    # over the shipped code: src, benchmarks, examples must be clean even
    # without the policy layer.
    linter = Linter(rules=frozenset(CONTRACT_RULE_IDS), root=REPO_ROOT)
    report = linter.lint_paths(
        [os.path.join(REPO_ROOT, d)
         for d in ("src", "benchmarks", "examples")])
    assert report.ok, "\n" + "\n".join(
        f.render() for f in report.findings)
    assert report.n_files > 50


def test_live_backend_pair_is_discovered():
    # the real seam must actually be analyzed, not silently skipped
    from repro.lint.contracts.backendinfo import find_backend_packages
    import ast as ast_mod
    ctxs = []
    for stem in ("base", "numpy_backend", "numba_backend"):
        path = os.path.join("src", "repro", "backend", f"{stem}.py")
        source = open(os.path.join(REPO_ROOT, path),
                      encoding="utf-8").read()
        ctxs.append(ModuleContext(path, ast_mod.parse(source), source))
    pkgs = find_backend_packages(ModuleGraph(ctxs))
    assert len(pkgs) == 1
    assert pkgs[0].package == "repro.backend"
    assert pkgs[0].reference.name == "repro.backend.numpy_backend"
    assert [b.name for b in pkgs[0].others()] == [
        "repro.backend.numba_backend"]
