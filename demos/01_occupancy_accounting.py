#!/usr/bin/env python3
"""Walk through the occupancy accounting core on a hand-made event stream.

Shows how timestamped status events, passed to apply_event as plain
fields, become per-bay occupation totals, how a window roll-up truncates
an occupancy that spans midnight, and how the independent brute-force
oracle, reading the same events as (ts, bay, status) triples, confirms
the state machine's arithmetic.
"""

from edgepark import (
    BayStatus,
    EventKind,
    RollupWindow,
    apply_event,
    oracle_occupancy,
    rollup,
)

HOUR = 3_600_000
DAY = 24 * HOUR


LOT = "DEMO-LOT"


def main():
    print("== A day of events for three bays ==")
    # (kind, ts, bay, status), in time order.
    events = [
        ("snapshot", 0, 1, "free"),
        ("snapshot", 0, 2, "free"),
        ("snapshot", 0, 3, "free"),
        ("update", 8 * HOUR, 1, "occupied"),    # bay 1: 08:00 to 16:00
        ("update", 9 * HOUR, 3, "occupied"),    # bay 3: two short stays
        ("update", 11 * HOUR, 3, "free"),
        ("update", 16 * HOUR, 1, "free"),
        ("update", 20 * HOUR, 2, "occupied"),   # bay 2: 20:00, left overnight
    ]

    table = {}
    for kind, ts, bay, status in events:
        apply_event(table, EventKind(kind), ts, LOT, bay, BayStatus(status))
        print(f"  t={ts / HOUR:5.1f} h  bay {bay} -> {status}")

    print("\n== Midnight roll-up (flush, emit, reset) ==")
    day1 = RollupWindow(0, DAY)
    records, _ = rollup(table, day1)
    for r in records:
        print(f"  bay {r.bay_id}: {r.occupation_time_sec:6d} s  rate {r.occupation_rate:.4f}")
    print("  bay 2 is truncated at midnight: 4 h counted so far, still occupied.")

    print("\n== The brute-force oracle agrees, to the millisecond ==")
    observed = [(ts, bay, BayStatus(status)) for _, ts, bay, status in events]
    oracle = oracle_occupancy(observed, day1)
    for r in records:
        assert oracle[r.bay_id] // 1000 == r.occupation_time_sec
        print(f"  bay {r.bay_id}: oracle {oracle[r.bay_id]} ms == {r.occupation_time_sec} s")

    print("\n== Day 2: the overnight stay keeps accruing after the reset ==")
    apply_event(table, EventKind.UPDATE, 32 * HOUR, LOT, 2, BayStatus.FREE)  # leaves at 08:00
    records, _ = rollup(table, RollupWindow(DAY, 2 * DAY))
    bay2 = next(r for r in records if r.bay_id == 2)
    print(f"  bay 2 on day 2: {bay2.occupation_time_sec} s ({bay2.occupation_time_sec / 3600:.0f} h)")


if __name__ == "__main__":
    main()
