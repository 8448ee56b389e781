"""Frozen catalog: every entry's spec and report output, pinned as literals.

The catalog is data that feeds a content-addressed store, so a change to
``repro/experiments/catalog.py`` that is meant to be a pure refactor must
build the same specs and render the same reports.  Two literal tables
make that checkable without running a single simulation:

- ``SPEC_DIGESTS`` pins, per entry and profile, ``spec_hash(spec)`` (the
  store file name) and the sha256 of ``canonical_json(spec.as_dict())``.
  The second is needed because ``spec_hash`` leaves out ``batch_size``
  (an execution knob), so a change of cohort sizes would keep every store
  address and still change how the sweep runs.
- ``REPORT_DIGESTS`` pins, per entry and profile, what ``entry.report``
  makes of a synthetic run whose records derive deterministically from
  each point's hash: the sha256 of stdout (results directory replaced by
  ``<results>``), of every CSV/JSON artifact, and of a typed dump of the
  returned dict.

Digests are truncated to 16 hex characters.  They were captured once and
must never be re-captured to make a refactor pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from repro.experiments import build_spec, catalog_names, get_entry
from repro.experiments.catalog import PROFILES
from repro.experiments.orchestrator import ExperimentRun
from repro.experiments.spec import point_hash, spec_hash
from repro.utils.results import canonical_json


def _sha(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()[:16]


def spec_digests(name: str, profile: str) -> tuple[str, str]:
    spec = build_spec(name, profile)
    return spec_hash(spec), _sha(canonical_json(spec.as_dict()))


# --------------------------------------------------------------------------
# synthetic runs: one deterministic record per point, shaped by its kind
# --------------------------------------------------------------------------

def _synthetic_record(point) -> dict:
    h = point_hash(point)
    v = int(h[:8], 16)
    if point.kind == "symbol_cdf":
        counts = [32 + int(h[i:i + 2], 16) for i in range(0, 16, 2)]
        record = {"counts": counts, "n_messages": point.n_messages,
                  "n_success": len(counts)}
    elif point.kind == "papr":
        record = {"mean_papr_db": (v % 1000) / 100.0,
                  "p9999_papr_db": 10.0 + (v % 777) / 100.0}
    elif point.kind == "link":
        symbols = 16 + v % 500
        bits = 8 * (v % 64)
        record = {
            "channel": point.channel.kind,
            "feedback_delay": point.options["config"].get(
                "feedback_delay", 0),
            "flow": point.options["job_id"],
            "framing_overhead": (v % 97) / 100.0,
            "goodput": round(bits / symbols, 9),
            "job_id": point.options["job_id"],
            "latency_p50": float(v % 40),
            "latency_p90": float(v % 50),
            "latency_p99": float(v % 60),
            "n_delivered": v % 3,
            "n_packets": point.options["n_packets"],
            "payload_bits_delivered": bits,
            "retransmissions": v % 5,
            "seed": point.seed,
            "snr_db": float(point.x),
            "symbols": symbols,
            "wasted_symbols": v % 7,
        }
    else:  # measure and ldpc_envelope: reports read only ``rate``
        # about one point in eleven has rate 0, exercising the gap
        # reports' "no finite gap" branch
        record = {"rate": 0.0 if v % 11 == 0 else (v % 9973) / 1000.0}
    record["series"] = point.series
    record["x"] = float(point.x)
    return record


def synthetic_run(name: str, profile: str) -> ExperimentRun:
    spec = build_spec(name, profile)
    return ExperimentRun(
        spec=spec,
        results={point_hash(p): _synthetic_record(p) for p in spec.points})


def _typed(value):
    """A JSON dump of ``value`` that keeps container order, every type
    name and every float bit (``float.hex``)."""
    kind = type(value).__name__
    if isinstance(value, dict):
        return [kind, [[_typed(k), _typed(v)] for k, v in value.items()]]
    if isinstance(value, (list, tuple)):
        return [kind, [_typed(v) for v in value]]
    if isinstance(value, np.ndarray):
        return [kind, str(value.dtype), [_typed(v) for v in value.tolist()]]
    if isinstance(value, (float, np.floating)):
        return [kind, float(value).hex()]
    if isinstance(value, (bool, int, np.integer, str)) or value is None:
        return [kind, value if not isinstance(value, np.integer)
                else int(value)]
    raise TypeError(f"unexpected report value type {kind}")


def report_digests(name: str, profile: str, results_dir: str,
                   capsys) -> tuple[dict[str, str], dict]:
    capsys.readouterr()
    returned = get_entry(name).report(synthetic_run(name, profile),
                                      results_dir)
    out = capsys.readouterr().out.replace(results_dir, "<results>")
    digests = {"stdout": _sha(out),
               "return": _sha(json.dumps(_typed(returned)))}
    for root, _, files in os.walk(results_dir):
        for fname in files:
            path = os.path.join(root, fname)
            rel = os.path.relpath(path, results_dir)
            with open(path, "rb") as f:
                digests[rel] = _sha(f.read())
    return digests, returned


CASES = [(name, profile) for name in catalog_names() for profile in PROFILES]


@pytest.mark.parametrize("name,profile", CASES)
def test_spec_is_frozen(name, profile):
    assert spec_digests(name, profile) == SPEC_DIGESTS[(name, profile)]


@pytest.mark.parametrize("name,profile", CASES)
def test_report_is_frozen(name, profile, tmp_path, capsys):
    digests, _ = report_digests(name, profile, str(tmp_path), capsys)
    assert digests == REPORT_DIGESTS[(name, profile)]


def test_every_entry_is_pinned():
    assert set(CASES) == set(SPEC_DIGESTS) == set(REPORT_DIGESTS)


# --------------------------------------------------------------------------
# the shapes of the dicts each entry's report returns
# --------------------------------------------------------------------------

def _floats(curve: dict) -> bool:
    return all(isinstance(x, float) and isinstance(y, float)
               for x, y in curve.items())


def _report(name: str, tmp_path, capsys, profile: str = "quick") -> dict:
    return report_digests(name, profile, str(tmp_path), capsys)[1]


def test_rate_curve_reports_return_snrs_and_curves(tmp_path, capsys):
    for name, keys in (
            ("fig8_4", {"spinal tau=1", "strider+ tau=100"}),
            ("fig8_5", {"spinal tau=10"}),
            ("ablation_constellation", {"uniform", "gaussian"}),
            ("ablation_hash", {"one_at_a_time", "lookup3", "salsa20"})):
        report = _report(name, tmp_path / name, capsys)
        assert all(isinstance(s, float) for s in report["snrs"]), name
        assert keys <= set(report["curves"]), name
        assert all(_floats(c) for c in report["curves"].values()), name


def test_knob_keyed_curves(tmp_path, capsys):
    fig8_7 = _report("fig8_7", tmp_path / "7", capsys)
    assert list(fig8_7["curves"]) == [(512, 1), (64, 2), (8, 3), (1, 4)]
    assert _floats(fig8_7["curves"][(512, 1)])
    assert list(_report("fig8_8", tmp_path / "8", capsys)["curves"]) == \
        [1, 2, 3, 4, 5, 6]
    assert list(_report("fig8_9", tmp_path / "9", capsys)["curves"]) == \
        [1, 2, 3, 4, 5]
    assert list(_report("fig8_10", tmp_path / "10", capsys)["curves"]) == \
        ["none", "2-way", "4-way", "8-way"]
    fig8_12 = _report("fig8_12", tmp_path / "12", capsys)
    assert list(fig8_12["avg_gap"]) == [64, 128, 256, 512, 1024]
    assert all(isinstance(g, float) for g in fig8_12["avg_gap"].values())
    full = _report("fig8_12", tmp_path / "12f", capsys, profile="full")
    assert 2048 in full["avg_gap"]


@pytest.mark.parametrize("name,lost", [("fig8_9", "3 tail symbols"),
                                       ("fig8_10", "4-way puncturing")])
def test_missing_knob_series_raises(name, lost, tmp_path):
    """A knob value whose series never ran must not vanish from the
    figure: the report raises instead of drawing one curve fewer."""
    run = synthetic_run(name, "quick")
    kept = tuple(p for p in run.spec.points if p.series != lost)
    run.spec = dataclasses.replace(run.spec, points=kept)
    run.results = {point_hash(p): run.results[point_hash(p)] for p in kept}
    with pytest.raises(KeyError, match=lost):
        get_entry(name).report(run, str(tmp_path))


def test_table_and_distribution_reports(tmp_path, capsys):
    fig8_1 = _report("fig8_1", tmp_path / "1", capsys)
    assert set(fig8_1["fractions"]["spinal n=256"]) == \
        {"< 10dB", "10-20dB", "> 20dB"}
    assert _floats(fig8_1["curves"]["strider+"])
    fig8_2 = _report("fig8_2", tmp_path / "2", capsys)
    assert _floats(fig8_2["rateless"])
    assert sorted(fig8_2["rated"]) == [1, 2, 3, 4, 6, 8, 12]
    fig8_3 = _report("fig8_3", tmp_path / "3", capsys)
    assert set(fig8_3["table"][1024]) == \
        {"spinal", "raptor", "strider", "strider+"}
    fig8_6 = _report("fig8_6", tmp_path / "6", capsys)
    assert sorted(fig8_6["curves"][4]) == [16, 64, 256, 1024]
    fig8_11 = _report("fig8_11", tmp_path / "11", capsys)
    assert isinstance(fig8_11["counts"][6], np.ndarray)
    assert isinstance(fig8_11["medians"][26], float)
    bsc = _report("bsc", tmp_path / "bsc", capsys)
    assert sorted(bsc["rates"]) == [0.01, 0.05, 0.1, 0.2, 0.3]
    figB_2 = _report("figB_2", tmp_path / "B2", capsys)
    assert _floats(figB_2["hw"]) and _floats(figB_2["sw"])
    table8_1 = _report("table8_1", tmp_path / "t81", capsys)
    mean, tail = table8_1["table"]["QAM-4"]
    assert isinstance(mean, float) and isinstance(tail, float)
    link = _report("link_goodput", tmp_path / "link", capsys)
    assert _floats(link["reference"])
    assert len(link["oracle"]) == len(link["framed"]) == \
        len(link["delayed"]) == len(link["snrs"])
    assert {"goodput", "payload_bits_delivered", "symbols", "n_delivered",
            "n_packets", "wasted_symbols"} <= set(link["framed"][0])
    assert "series" not in link["framed"][0]


# --------------------------------------------------------------------------
# frozen literals
# --------------------------------------------------------------------------

SPEC_DIGESTS: dict[tuple[str, str], tuple[str, str]] = {
    ("ablation_constellation", "quick"): ("bede982306b7ca3b", "b500b78bd7d0780d"),
    ("ablation_constellation", "full"): ("252789db88adc62c", "57c38daef9187c17"),
    ("ablation_constellation", "adaptive"): ("9fac7f0f010239ff", "98da32c0de385398"),
    ("ablation_hash", "quick"): ("f6674f9616b60046", "5b3b41da2f19c823"),
    ("ablation_hash", "full"): ("ecbdb2dd83fa7195", "048edc5bd2eb37ed"),
    ("ablation_hash", "adaptive"): ("6f06f1692983de38", "1ff1385a04979bc2"),
    ("bsc", "quick"): ("78f7ea3b2fe3d940", "205ec9a45b3ad642"),
    ("bsc", "full"): ("498dafb01434b299", "407fcb72dbcb4108"),
    ("bsc", "adaptive"): ("77cf787f83eae3f8", "1ffe416f45bacbc6"),
    ("fig8_1", "quick"): ("41c44c740eecd486", "ed6c305545e91d87"),
    ("fig8_1", "full"): ("6ce739c66363ea03", "30f558d84a2db8f8"),
    ("fig8_1", "adaptive"): ("b899e710a7cea983", "d87400b556335d82"),
    ("fig8_10", "quick"): ("9ab6f699b8b1d540", "efcdba36bde9de99"),
    ("fig8_10", "full"): ("fcd95c2d7a29f982", "551c1f10e93cc8c6"),
    ("fig8_10", "adaptive"): ("fee5434e04ff9e1b", "d2bccce43b53d6f1"),
    ("fig8_11", "quick"): ("e40e8139eb80aeab", "b5ce92f52d1b815a"),
    ("fig8_11", "full"): ("1ca26a31e3f55e96", "276a41a6028edda3"),
    ("fig8_11", "adaptive"): ("bf306923ed07183e", "dca0516ab90fdcfb"),
    ("fig8_12", "quick"): ("099199ca577cc5fe", "259e678536632fc3"),
    ("fig8_12", "full"): ("64e0628aa3d7fc5c", "c71259922d176891"),
    ("fig8_12", "adaptive"): ("65888e3b6b0967aa", "9990282aaa951b57"),
    ("fig8_2", "quick"): ("fcae0fe2268298eb", "e648dec1c2ea391b"),
    ("fig8_2", "full"): ("0c6cdd07813adb82", "94ce98512cd50d98"),
    ("fig8_2", "adaptive"): ("ff009a24cea5290f", "c0b6cf69a1c1d5d0"),
    ("fig8_3", "quick"): ("a49e1d2b14e3b9a4", "45c2b77a8ef4ec4c"),
    ("fig8_3", "full"): ("c48b26986f662dd7", "6fa58096f7c7655c"),
    ("fig8_3", "adaptive"): ("83af2f43758c88db", "3dfb0773cf49b704"),
    ("fig8_4", "quick"): ("5eaa2a8b87175c8b", "55c302529cadbfb5"),
    ("fig8_4", "full"): ("04fffb3b9c5b5b2d", "739115ee829cb766"),
    ("fig8_4", "adaptive"): ("96e2bc3b9a02e068", "2d35ec0e56c195f1"),
    ("fig8_5", "quick"): ("d39c9e699eab4a31", "16a4b73372394d4f"),
    ("fig8_5", "full"): ("7aeeb669af2377f7", "1b574209951133da"),
    ("fig8_5", "adaptive"): ("6ccc68baa8c339d3", "64f93bfc4bcca040"),
    ("fig8_6", "quick"): ("8a84aa89ea23007e", "e8706ea4e4514cda"),
    ("fig8_6", "full"): ("e914d7a449417afe", "345e7421cabf187c"),
    ("fig8_6", "adaptive"): ("3647c70d35883091", "51f4213e820f40c1"),
    ("fig8_7", "quick"): ("ff54a5b2590d68bd", "e77ce612ba25c220"),
    ("fig8_7", "full"): ("9c651d07a255b2e6", "5cb1fd1a715d979a"),
    ("fig8_7", "adaptive"): ("b151d9f46aabee44", "c033318d0bd5e0fb"),
    ("fig8_8", "quick"): ("ded4e1dba9b45ae0", "a0ce10f83fecbcdd"),
    ("fig8_8", "full"): ("4186c5892798915f", "6ddb258359952073"),
    ("fig8_8", "adaptive"): ("65540130079a2cc0", "aa973a050fddc8bd"),
    ("fig8_9", "quick"): ("8faee90c8d86fe9a", "02397a9c6001f082"),
    ("fig8_9", "full"): ("44224cc411ca039e", "a9249bb08c4b7e3f"),
    ("fig8_9", "adaptive"): ("3af93a5c07fc2e9a", "2eb560671fe4f257"),
    ("figB_2", "quick"): ("427bc27202498a02", "00be856a9e94f17e"),
    ("figB_2", "full"): ("f17203c416b82a24", "c2a0827d7e7207f6"),
    ("figB_2", "adaptive"): ("5462850cde83c117", "d7746278bed94721"),
    ("link_goodput", "quick"): ("a64181e0ffc59d50", "14f3095ec5b2674d"),
    ("link_goodput", "full"): ("81c85ee6be192772", "4b72d54d638a9081"),
    ("link_goodput", "adaptive"): ("61beddae164a2dbf", "c80d3a232948edf9"),
    ("smoke", "quick"): ("82221cf9ef932ccd", "04712caab9665263"),
    ("smoke", "full"): ("a680c84e01b32c8b", "8a87389b797f55d8"),
    ("smoke", "adaptive"): ("f695bbf11747161b", "724b8ade3d1ad36e"),
    ("smoke_adaptive", "quick"): ("811ef9d2d5d3d224", "8da4942134f4a0c8"),
    ("smoke_adaptive", "full"): ("8d91cdeac845efae", "2d5d7ddd148c8db8"),
    ("smoke_adaptive", "adaptive"): ("b3a273f614b6cb4a", "c3de5ca78cde552f"),
    ("smoke_fading", "quick"): ("32980b33d811034b", "c0f2fcd01d3fabe4"),
    ("smoke_fading", "full"): ("705750fae826f181", "827d72c0054c168b"),
    ("smoke_fading", "adaptive"): ("61e92be6d9cabbfc", "50674c99a719eb31"),
    ("smoke_link", "quick"): ("7b60168e5528a732", "e9aefce725be4798"),
    ("smoke_link", "full"): ("b4f3816e7f3121f0", "59fdfcecac481758"),
    ("smoke_link", "adaptive"): ("ff52f7f01b0572ec", "d6f41a6634b56750"),
    ("table8_1", "quick"): ("b780b29994980348", "c1439ddea600ba42"),
    ("table8_1", "full"): ("9c1164d1090ad917", "32c844039713bb23"),
    ("table8_1", "adaptive"): ("0e7b2b222cc52dce", "2e3b05b913f44159"),
}

REPORT_DIGESTS: dict[tuple[str, str], dict[str, str]] = {
    ("ablation_constellation", "quick"): {
        "ablation_constellation.csv": "62837fa22fc2c12c",
        "return": "8fe5d65e4cb2bb48",
        "stdout": "cffc079fa41d831d",
    },
    ("ablation_constellation", "full"): {
        "ablation_constellation.csv": "b3238294d3176e15",
        "return": "a0436ac878faf55a",
        "stdout": "50feb118a62eaa5f",
    },
    ("ablation_constellation", "adaptive"): {
        "ablation_constellation.csv": "f61a685559607b9b",
        "return": "3acbcb9d5266b238",
        "stdout": "531ec3538198068f",
    },
    ("ablation_hash", "quick"): {
        "ablation_hash.csv": "c4dd3f04fd98b854",
        "return": "0241cdbe2b6beed9",
        "stdout": "5bf7b77452840c8b",
    },
    ("ablation_hash", "full"): {
        "ablation_hash.csv": "61e98dd9c3af3bdc",
        "return": "d6d20492b757698a",
        "stdout": "c21517fd81cba077",
    },
    ("ablation_hash", "adaptive"): {
        "ablation_hash.csv": "babafef052167c2d",
        "return": "1b4740e9f6f0eee8",
        "stdout": "a018485dac925a12",
    },
    ("bsc", "quick"): {
        "bsc_rate.csv": "11a17a63e1a31f9e",
        "return": "bf056941e34690bd",
        "stdout": "ea5b6fe551558cbb",
    },
    ("bsc", "full"): {
        "bsc_rate.csv": "71f6ffa4ae3173e6",
        "return": "f8d8dc861d0f4d3d",
        "stdout": "161ec977e035b5a4",
    },
    ("bsc", "adaptive"): {
        "bsc_rate.csv": "01cf4d4aa2ec16a8",
        "return": "48f639c98522e143",
        "stdout": "60f774b496a3f5da",
    },
    ("fig8_1", "quick"): {
        "fig8_1_gaps.csv": "617e93f0f4968f27",
        "fig8_1_rates.csv": "1cfc30ab9447b1a0",
        "return": "0a1027681f0cf7e3",
        "stdout": "0a41df284a431ba7",
    },
    ("fig8_1", "full"): {
        "fig8_1_gaps.csv": "72f1378a1a236ff2",
        "fig8_1_rates.csv": "738b50e55a843981",
        "return": "37a24ac8d3da101f",
        "stdout": "e623e957dd63c7b7",
    },
    ("fig8_1", "adaptive"): {
        "fig8_1_gaps.csv": "b711476010f6aeb1",
        "fig8_1_rates.csv": "80b815a1d140ef14",
        "return": "7c2063ccfe4611c8",
        "stdout": "0fe7ced22829d4d7",
    },
    ("fig8_10", "quick"): {
        "fig8_10_puncturing.csv": "f45be718de6ec5fe",
        "return": "fbaced322afa36f4",
        "stdout": "191c57b75e697e34",
    },
    ("fig8_10", "full"): {
        "fig8_10_puncturing.csv": "513b92fbdf411804",
        "return": "50143d7b6338df5f",
        "stdout": "a1ae76d84fd339d2",
    },
    ("fig8_10", "adaptive"): {
        "fig8_10_puncturing.csv": "bfcd76f80dc667d4",
        "return": "3a341e757e692c11",
        "stdout": "7e43e14afd249b8f",
    },
    ("fig8_11", "quick"): {
        "fig8_11_symbol_cdf.csv": "dd9443805d20cc37",
        "return": "e6d4406ce8a10a18",
        "stdout": "6ce236c2f86ad0a2",
    },
    ("fig8_11", "full"): {
        "fig8_11_symbol_cdf.csv": "e922662ab93f891f",
        "return": "3342f04de3a5c792",
        "stdout": "b31c34f1d6168187",
    },
    ("fig8_11", "adaptive"): {
        "fig8_11_symbol_cdf.csv": "e922662ab93f891f",
        "return": "3342f04de3a5c792",
        "stdout": "b31c34f1d6168187",
    },
    ("fig8_12", "quick"): {
        "fig8_12_block_length.csv": "97140069aee7a52b",
        "return": "8ba061b5bd37c711",
        "stdout": "5c4eaa72bdbfa374",
    },
    ("fig8_12", "full"): {
        "fig8_12_block_length.csv": "2d79e094c1d15796",
        "return": "c79966a1b3f4a16d",
        "stdout": "ab9f8b8e233bdfe4",
    },
    ("fig8_12", "adaptive"): {
        "fig8_12_block_length.csv": "3054b1ecd1cd81b8",
        "return": "791d556e75ca4f68",
        "stdout": "f9627d959eba341a",
    },
    ("fig8_2", "quick"): {
        "fig8_2_rateless_vs_rated.csv": "4f801b317a90544c",
        "return": "b9599bb3ae699931",
        "stdout": "b4a0055daf1eba4c",
    },
    ("fig8_2", "full"): {
        "fig8_2_rateless_vs_rated.csv": "549cfbd4a4582c01",
        "return": "a7e7f0c64e93aa0d",
        "stdout": "9a34ef23e9e0a688",
    },
    ("fig8_2", "adaptive"): {
        "fig8_2_rateless_vs_rated.csv": "d3d465e8cb061bdb",
        "return": "17466639a7970f8f",
        "stdout": "5e35eafa54f208f8",
    },
    ("fig8_3", "quick"): {
        "fig8_3_short_messages.csv": "8c321e63eed3e240",
        "return": "40cd47a3d76b5729",
        "stdout": "25d19078e4bc376a",
    },
    ("fig8_3", "full"): {
        "fig8_3_short_messages.csv": "0c39d483f3987963",
        "return": "9159018bb58c1956",
        "stdout": "a96439107bc73c45",
    },
    ("fig8_3", "adaptive"): {
        "fig8_3_short_messages.csv": "07ff0440ff591044",
        "return": "4c8081a62ba1a487",
        "stdout": "93d90038e2eeca54",
    },
    ("fig8_4", "quick"): {
        "fig8_4_fading_csi.csv": "de6004f7e5de0887",
        "return": "a1ee149b96de5b4e",
        "stdout": "fd9c88d927ddb102",
    },
    ("fig8_4", "full"): {
        "fig8_4_fading_csi.csv": "7420ddd9e3374d59",
        "return": "f7623b5c9de8e7ad",
        "stdout": "72af63c76d974d08",
    },
    ("fig8_4", "adaptive"): {
        "fig8_4_fading_csi.csv": "138dcfe972ad71c3",
        "return": "98778c63df36c3fc",
        "stdout": "a2a34dd1476fd737",
    },
    ("fig8_5", "quick"): {
        "fig8_5_fading_nocsi.csv": "2e8cce6aa6b7390b",
        "return": "fe6f853484ab1899",
        "stdout": "661eda71db2323df",
    },
    ("fig8_5", "full"): {
        "fig8_5_fading_nocsi.csv": "8322aa350ddd7d47",
        "return": "fe58db8a60373c8d",
        "stdout": "3865b92c08d444fd",
    },
    ("fig8_5", "adaptive"): {
        "fig8_5_fading_nocsi.csv": "45e04b831739988f",
        "return": "2adff9924e7de34d",
        "stdout": "21f9bf64aed51e43",
    },
    ("fig8_6", "quick"): {
        "fig8_6_compute_budget.csv": "03de1253046cdf43",
        "return": "d1579f60281ae0d2",
        "stdout": "93c5197084544879",
    },
    ("fig8_6", "full"): {
        "fig8_6_compute_budget.csv": "0b30ab1f9cb52095",
        "return": "2cad9697a748ba8c",
        "stdout": "220b33a2f7045ea9",
    },
    ("fig8_6", "adaptive"): {
        "fig8_6_compute_budget.csv": "6b9540e8750c3e74",
        "return": "e5c5b8cab500f00c",
        "stdout": "9f6edc7c4119c46c",
    },
    ("fig8_7", "quick"): {
        "fig8_7_bubble_depth.csv": "1bc3d051b2e16e0b",
        "return": "973b5ba9f70f3206",
        "stdout": "12b73a88ee8404ef",
    },
    ("fig8_7", "full"): {
        "fig8_7_bubble_depth.csv": "82f03cda10a49209",
        "return": "629d9f295beed205",
        "stdout": "79484f95971b90ee",
    },
    ("fig8_7", "adaptive"): {
        "fig8_7_bubble_depth.csv": "f930b5ba5c184728",
        "return": "5652ec64a501d3b9",
        "stdout": "771189f28a806c14",
    },
    ("fig8_8", "quick"): {
        "fig8_8_density.csv": "e5fde300be8ad03b",
        "return": "9763d3f4e1528dae",
        "stdout": "2635eacee346ef08",
    },
    ("fig8_8", "full"): {
        "fig8_8_density.csv": "d9c0baface2d1354",
        "return": "5a1f6a5d69fd6eb6",
        "stdout": "d1e2ca0ff1824f5c",
    },
    ("fig8_8", "adaptive"): {
        "fig8_8_density.csv": "0e5d4d44c63ab33e",
        "return": "50fbd98d859e83bf",
        "stdout": "b3221daffbfe4f5d",
    },
    ("fig8_9", "quick"): {
        "fig8_9_tail_symbols.csv": "651ab2be88b8d869",
        "return": "33a9b262909dbbc9",
        "stdout": "1f30baabaa22abc5",
    },
    ("fig8_9", "full"): {
        "fig8_9_tail_symbols.csv": "29a397261fd34e91",
        "return": "d53e8af0363a40e9",
        "stdout": "bae0197cc82daf67",
    },
    ("fig8_9", "adaptive"): {
        "fig8_9_tail_symbols.csv": "17ece21012e23b9b",
        "return": "a7f1a3b64d014844",
        "stdout": "e306df30482656a8",
    },
    ("figB_2", "quick"): {
        "figB_2_hardware.csv": "2ce4042d1ee0e13b",
        "return": "8bb76ccf403c363a",
        "stdout": "04677fccfff7d616",
    },
    ("figB_2", "full"): {
        "figB_2_hardware.csv": "8d72e581fc213460",
        "return": "bf32abe6ebe7cd18",
        "stdout": "85b6a31e1b546ed0",
    },
    ("figB_2", "adaptive"): {
        "figB_2_hardware.csv": "e7a9d1fe471bee28",
        "return": "a8da3fb9c7b4b784",
        "stdout": "e62e9bbe2f327b04",
    },
    ("link_goodput", "quick"): {
        "BENCH_link_goodput.json": "123afb55b88dddf2",
        "link_goodput.csv": "c10eb769e5c8d327",
        "return": "b5df0fe676070e66",
        "stdout": "d760e4b07d43bf97",
    },
    ("link_goodput", "full"): {
        "BENCH_link_goodput.json": "2fe4d23729af667f",
        "link_goodput.csv": "f7a3d8c027c9a26e",
        "return": "d2d6f7b93f116d89",
        "stdout": "0fca47ade52ebf9b",
    },
    ("link_goodput", "adaptive"): {
        "BENCH_link_goodput.json": "eb4f94dbfce69765",
        "link_goodput.csv": "ef08723116775778",
        "return": "5f3ba25f54548deb",
        "stdout": "a555fb278d99fed6",
    },
    ("smoke", "quick"): {
        "return": "93543363e721c120",
        "smoke.csv": "355704577e276eb0",
        "stdout": "dfa2dc545b108ecd",
    },
    ("smoke", "full"): {
        "return": "93543363e721c120",
        "smoke.csv": "355704577e276eb0",
        "stdout": "dfa2dc545b108ecd",
    },
    ("smoke", "adaptive"): {
        "return": "4b97b5e2538b1209",
        "smoke.csv": "843f1f7fe983d914",
        "stdout": "7dd8b18b6f5b59a5",
    },
    ("smoke_adaptive", "quick"): {
        "return": "7ed6a01bab17de34",
        "smoke_adaptive.csv": "92d0d7007333e823",
        "stdout": "86355127d4628357",
    },
    ("smoke_adaptive", "full"): {
        "return": "7ed6a01bab17de34",
        "smoke_adaptive.csv": "92d0d7007333e823",
        "stdout": "86355127d4628357",
    },
    ("smoke_adaptive", "adaptive"): {
        "return": "7ed6a01bab17de34",
        "smoke_adaptive.csv": "92d0d7007333e823",
        "stdout": "86355127d4628357",
    },
    ("smoke_fading", "quick"): {
        "return": "9510412ee2869470",
        "smoke_fading.csv": "d29253ada1b6ab26",
        "stdout": "acf3bc2f912b19ba",
    },
    ("smoke_fading", "full"): {
        "return": "9510412ee2869470",
        "smoke_fading.csv": "d29253ada1b6ab26",
        "stdout": "acf3bc2f912b19ba",
    },
    ("smoke_fading", "adaptive"): {
        "return": "1a207b2a2cf78ad0",
        "smoke_fading.csv": "f7ac698cb1f5f2d4",
        "stdout": "1f14312f74150518",
    },
    ("smoke_link", "quick"): {
        "return": "e7075949e08260f8",
        "smoke_link.csv": "17b3173eceb71b61",
        "stdout": "d67eb4e908b29aaf",
    },
    ("smoke_link", "full"): {
        "return": "e7075949e08260f8",
        "smoke_link.csv": "17b3173eceb71b61",
        "stdout": "d67eb4e908b29aaf",
    },
    ("smoke_link", "adaptive"): {
        "return": "e7075949e08260f8",
        "smoke_link.csv": "17b3173eceb71b61",
        "stdout": "d67eb4e908b29aaf",
    },
    ("table8_1", "quick"): {
        "return": "40bb439272017aa1",
        "stdout": "3316981d0c99ab7b",
        "table8_1_papr.csv": "061c3c44cc56be7b",
    },
    ("table8_1", "full"): {
        "return": "67db9dedcce6341a",
        "stdout": "0afb14dfacf5c70f",
        "table8_1_papr.csv": "8c9c36db279f3737",
    },
    ("table8_1", "adaptive"): {
        "return": "67db9dedcce6341a",
        "stdout": "0afb14dfacf5c70f",
        "table8_1_papr.csv": "8c9c36db279f3737",
    },
}
