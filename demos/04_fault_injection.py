#!/usr/bin/env python3
"""Demonstrate the failure-handling guarantees with injected faults.

Three experiments:
  1. A gateway disconnect of 120 s: the agent's accounting error stays
     bounded by the unobserved gap (it never over-counts a full stay).
  2. The agent is killed mid-day and recovers from its write-ahead log:
     the final CSVs are byte-identical to an uninterrupted run.
  3. The hub swallows the first two acks: upload retries converge to
     exactly one stored record per window.
"""

import tempfile
from pathlib import Path

from edgepark import harness
from edgepark.hub import RollupStore


def base(**overrides):
    values = dict(
        name="faults", seed=5, bays=10, days=1,
        mean_occupied_min=60.0, mean_free_min=120.0,
        start_ms=1_542_585_600_000,  # 2018-11-19T00:00:00Z
        backoff_initial_ms=1000, backoff_multiplier=1.0, backoff_cap_ms=1000,
    )
    values.update(overrides)
    return harness.ScenarioConfig(**values)


def main():
    with tempfile.TemporaryDirectory(prefix="edgepark_faults_") as tmp:
        run_experiments(Path(tmp))


def run_experiments(work):
    """The three experiments, each in its own directory under work."""
    print("== 1. gateway disconnect: bounded under-counting ==")
    harness.run_sim(
        base(inject_gateway_disconnect_at_sec=3600,
             inject_gateway_disconnect_duration_sec=120),
        work / "disconnect",
    )
    report = harness.verify_run(work / "disconnect")
    print(f"  observation gap: {report.allowed_ms} ms")
    print(f"  max per-bay error vs oracle: {report.max_error_ms} ms "
          f"(bound: the gap) -> ok={report.ok}")

    print("\n== 2. crash mid-day, recover from the log ==")
    plain, killed = work / "plain", work / "killed"
    harness.run_sim(base(days=2), plain)
    harness.run_sim(base(days=2, inject_agent_kill_at_sec=40_000), killed)
    pairs = list(zip(sorted(p.name for p in (plain / "csv").glob("rollup_*.csv")),
                     sorted(p.name for p in (killed / "csv").glob("rollup_*.csv"))))
    identical = all(
        (plain / "csv" / a).read_bytes() == (killed / "csv" / b).read_bytes()
        for a, b in pairs
    )
    print(f"  {len(pairs)} CSVs byte-identical to the uninterrupted run: {identical}")

    print("\n== 3. dropped acks: at-least-once delivery, exactly-once storage ==")
    ledger = harness.run_sim(base(inject_drop_acks=2), work / "acks")
    store = RollupStore(work / "acks" / "hub_store", fsync=False)
    lines = (work / "acks" / "hub_store" / "LOT-A.jsonl").read_text().strip().splitlines()
    print(f"  envelope sends (with retries): {ledger.envelope_sends}")
    print(f"  records persisted at the hub:  {len(lines)} (index size {len(store)})")


if __name__ == "__main__":
    main()
