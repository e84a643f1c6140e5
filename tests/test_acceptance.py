"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.

Criteria:
  1. Oracle equivalence over 1000 seeded random traces, exact, < 60 s.
  2. Window partition conservation for the same traces, exact.
  3. Overnight boundary split (bays 12/21: 14400 s then 28800 s), exact.
  4. Calibrated week reproduces the 7.5 h/day fleet average within 10%, < 30 s.
  5. Ping cadence: exactly N pings with consecutive seqs per N minutes.
  6. Traffic reduction: aggregated < raw, aggregated invariant to event count.
  7. End-to-end determinism: byte-identical CSVs, hub store, ledger.
  8. Crash recovery equals the uninterrupted run; disconnect error bounded;
     upload retries converge to one stored record per window.
  9. CSV bit-exactness (header, LF, integer seconds, 4-decimal rates, sorted).
"""

import random
import time
from pathlib import Path

import pytest

from edgepark import harness
from edgepark.agent import write_csv
from edgepark.hub import RollupStore, fleet_average_hours
from edgepark.occupancy import (
    BayStatus,
    EventKind,
    RollupRecord,
    RollupWindow,
    apply_event,
    rollup,
    update_occupation_time,
)
from edgepark.oracle import oracle_occupancy

from conftest import DAY_MS, EPOCH_MS, idle_trace, make_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

N_TRACES = 1000


def _random_trace(rng):
    n_bays = rng.randint(1, 50)
    n_events = rng.randint(10, 2000) if rng.random() < 0.9 else rng.randint(2000, 10_000)
    span = rng.randint(3_600_000, 3 * DAY_MS)
    t0 = rng.randint(0, 10**9)
    statuses = {
        b: rng.choice((BayStatus.FREE, BayStatus.OCCUPIED)) for b in range(1, n_bays + 1)
    }
    # apply_event's fields after the table: (kind, ts, lot_id, bay_id, status).
    events = [(EventKind.SNAPSHOT, t0, "L", b, statuses[b]) for b in sorted(statuses)]
    for ts in sorted(rng.randint(t0, t0 + span) for _ in range(n_events)):
        bay = rng.randint(1, n_bays)
        statuses[bay] = (
            BayStatus.FREE if statuses[bay] is BayStatus.OCCUPIED else BayStatus.OCCUPIED
        )
        events.append((EventKind.UPDATE, ts, "L", bay, statuses[bay]))
    end = t0 + span + rng.randint(1, 3_600_000)
    cuts = sorted(rng.sample(range(t0 + 1, end), rng.randint(0, 3)))
    bounds = [t0, *cuts, end]
    windows = [RollupWindow(a, b) for a, b in zip(bounds, bounds[1:])]
    return events, windows


@pytest.fixture(scope="module")
def oracle_battery():
    """Criteria 1 and 2 share one pass over the same 1000 traces."""
    rng = random.Random(20181119)
    started = time.monotonic()
    equivalence_failures = []
    partition_failures = []
    total_events = 0
    for i in range(N_TRACES):
        events, windows = _random_trace(rng)
        total_events += len(events)
        observed = [(ts, bay, status) for _, ts, _, bay, status in events]  # oracle input
        table = {}
        idx = 0
        summed = {}
        for window in windows:
            while idx < len(events) and events[idx][1] < window.end:
                apply_event(table, *events[idx])
                idx += 1
            update_occupation_time(table, window.end)
            agg = {b: s.accumulated_occupation_ms for b, s in table.items()}
            rollup(table, window)
            if agg != oracle_occupancy(observed, window):
                equivalence_failures.append((i, window))
            for bay, ms in agg.items():
                summed[bay] = summed.get(bay, 0) + ms
        whole = oracle_occupancy(observed, RollupWindow(windows[0].start, windows[-1].end))
        if summed != whole:
            partition_failures.append(i)
    elapsed = time.monotonic() - started
    return {
        "equivalence_failures": equivalence_failures,
        "partition_failures": partition_failures,
        "elapsed": elapsed,
        "total_events": total_events,
    }


def test_criterion_1_oracle_equivalence(oracle_battery):
    ok = not oracle_battery["equivalence_failures"] and oracle_battery["elapsed"] < 60.0
    print(
        f"{'PASS' if ok else 'FAIL'} criterion 1 (oracle equivalence): "
        f"{N_TRACES} traces, {oracle_battery['total_events']} events, "
        f"0 ms tolerance, {oracle_battery['elapsed']:.1f} s"
    )
    assert not oracle_battery["equivalence_failures"]
    assert oracle_battery["elapsed"] < 60.0


def test_criterion_2_window_partition_conservation(oracle_battery):
    ok = not oracle_battery["partition_failures"]
    print(
        f"{'PASS' if ok else 'FAIL'} criterion 2 (partition conservation): "
        f"per-bay window sums equal whole-span oracle exactly for {N_TRACES} traces"
    )
    assert not oracle_battery["partition_failures"]


def test_criterion_3_overnight_boundary(tmp_path):
    scenario = harness.parse_scenario(SCENARIO_DIR / "overnight.scenario")
    harness.run_sim(scenario, tmp_path / "run")
    day1 = (tmp_path / "run" / "csv" / "rollup_LOT-A_20181119T000000Z.csv").read_text()
    day2 = (tmp_path / "run" / "csv" / "rollup_LOT-A_20181120T000000Z.csv").read_text()
    rows1 = dict(line.split(",", 1) for line in day1.splitlines()[1:])
    rows2 = dict(line.split(",", 1) for line in day2.splitlines()[1:])
    ok = (
        rows1["12"] == "14400,0.1667"
        and rows1["21"] == "14400,0.1667"
        and rows2["12"] == "28800,0.3333"
        and rows2["21"] == "28800,0.3333"
    )
    print(
        f"{'PASS' if ok else 'FAIL'} criterion 3 (overnight boundary): "
        f"day 1 = 14400 s, day 2 = 28800 s for bays 12 and 21, exact"
    )
    assert ok
    report = harness.verify_run(tmp_path / "run")
    assert report.ok and report.max_error_ms == 0


def test_criterion_4_calibrated_week(tmp_path):
    scenario = harness.parse_scenario(SCENARIO_DIR / "calibrated_week.scenario")
    started = time.monotonic()
    harness.run_sim(scenario, tmp_path / "run")
    elapsed = time.monotonic() - started
    store = RollupStore(tmp_path / "run" / "hub_store", fsync=False)
    per_day = [fleet_average_hours(s.records) for s in store.windows_for("LOT-A")]
    avg = sum(per_day) / len(per_day)
    ok = abs(avg - 7.5) <= 0.75 and elapsed < 30.0
    print(
        f"{'PASS' if ok else 'FAIL'} criterion 4 (calibrated week): "
        f"fleet average {avg:.3f} h/day vs 7.5 h target (tolerance 10%), "
        f"{len(per_day)} days, runtime {elapsed:.1f} s"
    )
    assert len(per_day) == 7
    assert abs(avg - 7.5) <= 0.75
    assert elapsed < 30.0
    # The hub-side weekly report agrees with the same tolerance.
    weekly = store.weekly_report("LOT-A", EPOCH_MS)
    week_avg = sum(weekly["perDayFleetAvgHours"]) / 7
    assert weekly["perDayFleetAvgHours"] == per_day
    assert abs(week_avg - 7.5) <= 0.75


@pytest.mark.parametrize("n_intervals", [10, 240])
def test_criterion_5_ping_cadence(tmp_path, n_intervals):
    from conftest import SimRig, record_pings

    rig = SimRig(tmp_path / f"rig{n_intervals}", idle_trace(), start_agent=False)
    pings = record_pings(rig.gateway)
    rig.agent.start()
    rig.sched.run_until(EPOCH_MS + n_intervals * 60_000)
    # One session, whose seqs start at 1 and step by one: n pings, seqs 1 to n.
    ok = pings == list(range(1, n_intervals + 1))
    print(
        f"{'PASS' if ok else 'FAIL'} criterion 5 (ping cadence): "
        f"{n_intervals}x60 s advanced, {len(pings)} pings, "
        f"last seq {pings[-1] if pings else None}"
    )
    assert ok


def test_criterion_6_traffic_reduction(tmp_path):
    scenario = harness.parse_scenario(SCENARIO_DIR / "traffic_day.scenario")
    busy = harness.run_sim(scenario, tmp_path / "busy")
    busier_scenario = make_scenario(
        name="traffic-doubled", seed=scenario.seed, lot_id=scenario.lot_id,
        bays=scenario.bays, mean_occupied_min=3.0, mean_free_min=3.0, days=1,
    )
    busier = harness.run_sim(busier_scenario, tmp_path / "busier")
    ratio = busy.reduction_ratio
    ok = (
        busy.event_count >= 500
        and busy.aggregated_bytes < busy.raw_forward_bytes
        and busier.aggregated_bytes == busy.aggregated_bytes
        and busier.raw_forward_bytes > busy.raw_forward_bytes
    )
    print(
        f"{'PASS' if ok else 'FAIL'} criterion 6 (traffic reduction): "
        f"{busy.event_count} events/day, aggregated {busy.aggregated_bytes} B "
        f"< raw {busy.raw_forward_bytes} B, ratio {ratio:.4f} (no target value); "
        f"aggregated bytes invariant under {busier.event_count} events"
    )
    assert ok


def test_criterion_7_end_to_end_determinism(tmp_path):
    scenario = make_scenario(
        name="determinism", seed=1234, days=2, mean_occupied_min=90, mean_free_min=180
    )
    harness.run_sim(scenario, tmp_path / "a")
    harness.run_sim(scenario, tmp_path / "b")
    identical = []
    for rel in ["ledger.json"]:
        identical.append((tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes())
    csv_a = sorted((tmp_path / "a" / "csv").glob("*.csv"))
    csv_b = sorted((tmp_path / "b" / "csv").glob("*.csv"))
    identical.append([p.name for p in csv_a] == [p.name for p in csv_b])
    identical.extend(x.read_bytes() == y.read_bytes() for x, y in zip(csv_a, csv_b))
    store_a = sorted((tmp_path / "a" / "hub_store").glob("*.jsonl"))
    store_b = sorted((tmp_path / "b" / "hub_store").glob("*.jsonl"))
    identical.extend(x.read_bytes() == y.read_bytes() for x, y in zip(store_a, store_b))
    ok = all(identical)
    print(
        f"{'PASS' if ok else 'FAIL'} criterion 7 (determinism): two runs, "
        f"{len(csv_a)} CSVs + hub store + ledger byte-identical"
    )
    assert ok


def test_criterion_8a_crash_recovery_equals_uninterrupted(tmp_path):
    base = dict(
        name="crash", seed=88, days=2, mean_occupied_min=60, mean_free_min=150
    )
    harness.run_sim(make_scenario(**base), tmp_path / "plain")
    harness.run_sim(
        make_scenario(**base, inject_agent_kill_at_sec=46_130),  # mid-day 1
        tmp_path / "killed",
    )
    csv_plain = sorted((tmp_path / "plain" / "csv").glob("*.csv"))
    csv_killed = sorted((tmp_path / "killed" / "csv").glob("*.csv"))
    ok = [p.name for p in csv_plain] == [p.name for p in csv_killed] and all(
        x.read_bytes() == y.read_bytes() for x, y in zip(csv_plain, csv_killed)
    )
    report = harness.verify_run(tmp_path / "killed")
    ok = ok and report.ok and report.max_error_ms == 0
    print(
        f"{'PASS' if ok else 'FAIL'} criterion 8a (crash recovery): agent killed "
        f"mid-day and recovered from its log; {len(csv_killed)} CSVs byte-identical "
        f"to the uninterrupted run, oracle error {report.max_error_ms} ms"
    )
    assert ok


def test_criterion_8b_disconnect_bound_and_upload_dedupe(tmp_path):
    scenario = harness.parse_scenario(SCENARIO_DIR / "disconnect_day.scenario")
    ledger = harness.run_sim(scenario, tmp_path / "run")
    report = harness.verify_run(tmp_path / "run")
    injected_ms = scenario.inject_gateway_disconnect_duration_sec * 1000
    store_lines = (
        (tmp_path / "run" / "hub_store" / "LOT-A.jsonl").read_text().strip().splitlines()
    )
    store = RollupStore(tmp_path / "run" / "hub_store", fsync=False)
    ok = (
        report.ok
        and report.max_error_ms <= injected_ms
        and ledger.envelope_sends >= 3  # two dropped acks forced retries
        and len(store_lines) == 1  # exactly one stored record per window
        and store.query_daily("LOT-A", EPOCH_MS) is not None
    )
    print(
        f"{'PASS' if ok else 'FAIL'} criterion 8b (disconnect bound + dedupe): "
        f"120 s injected disconnect, max error {report.max_error_ms} ms <= "
        f"{injected_ms} ms; {ledger.envelope_sends} sends converged to "
        f"{len(store_lines)} stored record"
    )
    assert ok


def test_criterion_9_csv_bit_exactness(tmp_path):
    records = [
        RollupRecord(1, 27_000, 0.3125),
        RollupRecord(12, 14_400, 0.1667),
        RollupRecord(21, 86_400, 1.0),
    ]
    path = write_csv(
        records, RollupWindow(EPOCH_MS, EPOCH_MS + DAY_MS), "LOT-A", tmp_path
    )
    golden = (
        b"bayId,occupationTime,occupationRate\n"
        b"1,27000,0.3125\n"
        b"12,14400,0.1667\n"
        b"21,86400,1.0000\n"
    )
    content = path.read_bytes()
    ok = content == golden and path.name == "rollup_LOT-A_20181119T000000Z.csv"

    # The same guarantees on a live run's files.
    harness.run_sim(
        make_scenario(seed=6, bays=9, mean_occupied_min=45, mean_free_min=90),
        tmp_path / "run",
    )
    for csv_path in sorted((tmp_path / "run" / "csv").glob("rollup_*.csv")):
        raw = csv_path.read_bytes()
        ok = ok and b"\r" not in raw and raw.endswith(b"\n")
        lines = raw.decode("utf-8").splitlines()
        ok = ok and lines[0] == "bayId,occupationTime,occupationRate"
        bays = []
        for line in lines[1:]:
            bay, sec, rate = line.split(",")
            bays.append(int(bay))
            ok = ok and str(int(sec)) == sec  # integer seconds
            ok = ok and len(rate.split(".")[1]) == 4  # fixed 4 decimals
        ok = ok and bays == sorted(bays)
    print(
        f"{'PASS' if ok else 'FAIL'} criterion 9 (CSV bit-exactness): golden file "
        f"matched; header, LF endings, integer seconds, 4-decimal rates, sorted ids"
    )
    assert ok
