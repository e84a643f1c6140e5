"""Golden artifacts: every shipped scenario reproduces its recorded bytes.

Each scenario under scenarios/ is run end to end, its report is exported
in both formats, and every artifact is hashed. A refactor must leave every
digest as recorded; a change that alters an artifact on purpose records
the new digests and says why.

meta.json is hashed with ``scenario.script`` removed: that field holds an
absolute path, which differs between checkouts.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from edgepark import harness

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN: dict[str, dict[str, str]] = {
    "calibrated_week": {
        "agent.log": "c81ddef200619930",
        "csv": "9c86a2524b8a17ba",
        "hub_store": "c9f4938ca98016fb",
        "ledger.json": "9f72ae2438840f5e",
        "meta.json": "5c199d3fa9220664",
        "report.md": "22c2f21979acdc70",
        "report_bays.csv": "3bfca6ec06158b1e",
        "report_daily.csv": "29dab397bfabcc0e",
        "summary.md": "22c2f21979acdc70",
        "trace.jsonl": "aed361ba4014ba77",
    },
    "crash_day": {
        "agent.log": "d971746af886f147",
        "csv": "fc07297654aac5b0",
        "hub_store": "2876a054b3c4fb85",
        "ledger.json": "425d5ba5744ed452",
        "meta.json": "2fa3194c38bfb35a",
        "report.md": "fe033a02629c2c21",
        "report_bays.csv": "036af534c6a24cf4",
        "report_daily.csv": "6926c74e71d2f12a",
        "summary.md": "fe033a02629c2c21",
        "trace.jsonl": "8d301dd1313286a4",
    },
    "disconnect_day": {
        "agent.log": "aded03ba7d46257e",
        "csv": "e8ff716945fa9b92",
        "hub_store": "22ca171af330b17e",
        "ledger.json": "bc786e6e3cc85e64",
        "meta.json": "b84dbcfb75dec722",
        "report.md": "088221b71a722733",
        "report_bays.csv": "d2971b404119fd20",
        "report_daily.csv": "c144983c4dac9683",
        "summary.md": "088221b71a722733",
        "trace.jsonl": "c0767a3d8129e616",
    },
    "idle_day": {
        "agent.log": "371c1bd2cc425b1a",
        "csv": "976d7c5d3feda3e7",
        "hub_store": "e2decfa216daf7f3",
        "ledger.json": "c7878bad105a01f5",
        "meta.json": "4b526cdc24449ba2",
        "report.md": "4edd757a55f2decf",
        "report_bays.csv": "bb4b5dce5d8b4124",
        "report_daily.csv": "96da853d30873520",
        "summary.md": "4edd757a55f2decf",
        "trace.jsonl": "19d58266bfbf6322",
    },
    "overnight": {
        "agent.log": "cc9fbcdec5e89095",
        "csv": "c343f800bb61a848",
        "hub_store": "cf3e9dcd331e2132",
        "ledger.json": "b5420eb3f5ccc411",
        "meta.json": "4b3b1f69012a2111",
        "report.md": "282ee84e5ec077e1",
        "report_bays.csv": "95ef06e14b29fbaf",
        "report_daily.csv": "8c5edb5e6d966805",
        "summary.md": "282ee84e5ec077e1",
        "trace.jsonl": "c2698260f9a5195f",
    },
    "traffic_day": {
        "agent.log": "6272ec4776e3721c",
        "csv": "193d2d9b3a039c29",
        "hub_store": "1973ad571054a35d",
        "ledger.json": "ca8baf25156dcda3",
        "meta.json": "17469c174a1847a3",
        "report.md": "b36442f0968ddcdf",
        "report_bays.csv": "777b86af05e6f4c7",
        "report_daily.csv": "534af0603c196bb6",
        "summary.md": "b36442f0968ddcdf",
        "trace.jsonl": "a014bd834986cc10",
    },
}


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _meta_bytes(meta: dict) -> bytes:
    return (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode("utf-8")


def artifact_digests(scenario_path: Path, out_dir: Path) -> dict[str, str]:
    harness.run_sim(harness.parse_scenario(scenario_path), out_dir)
    harness.export_report(out_dir, "csv")
    harness.export_report(out_dir, "markdown")
    raw_meta = (out_dir / "meta.json").read_bytes()
    meta = json.loads(raw_meta)
    # Hashing a re-encoding is byte-exact only if it reproduces the file.
    assert _meta_bytes(meta) == raw_meta
    del meta["scenario"]["script"]
    digests = {
        "csv": _tree_digest(out_dir / "csv"),
        "hub_store": _tree_digest(out_dir / "hub_store"),
        "meta.json": hashlib.sha256(_meta_bytes(meta)).hexdigest()[:16],
    }
    for name in (
        "agent.log", "ledger.json", "trace.jsonl", "summary.md",
        "report_daily.csv", "report_bays.csv", "report.md",
    ):
        digests[name] = _file_digest(out_dir / name)
    return digests


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scenario_artifacts_match_golden(tmp_path, name):
    got = artifact_digests(SCENARIO_DIR / f"{name}.scenario", tmp_path / "run")
    assert got == GOLDEN[name]


def test_every_shipped_scenario_has_golden_digests():
    assert sorted(GOLDEN) == sorted(p.stem for p in SCENARIO_DIR.glob("*.scenario"))
