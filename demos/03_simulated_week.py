#!/usr/bin/env python3
"""Run the full pipeline for a simulated week, then verify and report.

Gateway, edge agent, and cloud hub run in-process under one virtual
clock: seven days execute in well under a second and every artifact is
byte-reproducible. Afterwards the run is checked against the brute-force
oracle and the traffic ledger is printed.
"""

import tempfile
from pathlib import Path

from edgepark import harness


def main():
    with tempfile.TemporaryDirectory(prefix="edgepark_week_") as tmp:
        simulate_week(Path(tmp))


def simulate_week(out):
    """The week's run in out, which is removed when the demo ends."""
    scenario = harness.parse_scenario(
        Path(__file__).resolve().parents[1] / "scenarios" / "calibrated_week.scenario"
    )
    print(f"running scenario '{scenario.name}' into {out} ...")
    ledger = harness.run_sim(scenario, out)

    csvs = sorted((out / "csv").glob("rollup_*.csv"))
    print(f"\nproduced {len(csvs)} daily CSVs:")
    for path in csvs:
        print(f"  {path.name}")

    print("\nday 1 head:")
    for line in csvs[0].read_text().splitlines()[:5]:
        print(f"  {line}")

    print("\nverification against the interval-enumeration oracle:")
    report = harness.verify_run(out)
    print(f"  ok={report.ok}  max per-bay error {report.max_error_ms} ms "
          f"(allowed {report.allowed_ms} ms)")

    print("\ntraffic ledger:")
    print(f"  raw per-event forwarding would cost {ledger.raw_forward_bytes} bytes "
          f"({ledger.event_count} events)")
    print(f"  aggregated daily uploads cost       {ledger.aggregated_bytes} bytes "
          f"({ledger.envelope_sends} envelopes)")
    print(f"  reduction ratio: {ledger.reduction_ratio:.4f}")

    print("\nfull summary tables:\n")
    print((out / "summary.md").read_text())


if __name__ == "__main__":
    main()
