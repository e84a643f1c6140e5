"""Oracle unit tests and aggregator-vs-oracle equivalence properties."""

import random

import pytest

from edgepark.occupancy import (
    BayStatus,
    EventKind,
    RollupWindow,
    apply_event,
    rollup,
    update_occupation_time,
)
from edgepark import harness, oracle
from edgepark.oracle import TraceOrderError, oracle_occupancy, oracle_windows

from conftest import make_scenario


def obs(ts, bay, status):
    """One observation as the oracle reads it: a (ts, bay_id, status) triple."""
    return ts, bay, BayStatus(status)


def test_empty_trace_gives_empty_map():
    assert oracle_occupancy([], RollupWindow(0, 1000)) == {}


def test_single_occupied_free_pair():
    trace = [obs(100, 3, "occupied"), obs(700, 3, "free")]
    assert oracle_occupancy(trace, RollupWindow(0, 1000)) == {3: 600}


def test_unsorted_trace_rejected():
    trace = [obs(700, 1, "occupied"), obs(100, 1, "free")]
    with pytest.raises(TraceOrderError):
        oracle_occupancy(trace, RollupWindow(0, 1000))


def test_occupied_at_window_end_truncates():
    trace = [obs(400, 1, "occupied")]
    assert oracle_occupancy(trace, RollupWindow(0, 1000)) == {1: 600}


def test_event_before_window_start_still_counts():
    trace = [obs(100, 1, "occupied"), obs(5000, 1, "free")]
    assert oracle_occupancy(trace, RollupWindow(1000, 2000)) == {1: 1000}


def test_duplicate_events_do_not_double_count():
    trace = [
        obs(100, 1, "occupied"),
        obs(200, 1, "occupied"),
        obs(500, 1, "free"),
        obs(600, 1, "free"),
    ]
    assert oracle_occupancy(trace, RollupWindow(0, 1000)) == {1: 400}


def test_never_occupied_bay_reported_as_zero():
    trace = [obs(0, 1, "free"), obs(0, 2, "occupied")]
    totals = oracle_occupancy(trace, RollupWindow(0, 500))
    assert totals == {1: 0, 2: 500}


# ---------------------------------------------------------------------------
# aggregator equivalence


def random_trace(rng, n_bays, n_events, t0, span, with_duplicates=False):
    statuses = {
        b: rng.choice([BayStatus.FREE, BayStatus.OCCUPIED]) for b in range(1, n_bays + 1)
    }
    """Oracle triples: a snapshot of every bay at t0, then updates."""
    events = [obs(t0, b, statuses[b].value) for b in sorted(statuses)]
    for ts in sorted(rng.randint(t0, t0 + span) for _ in range(n_events)):
        bay = rng.randint(1, n_bays)
        if with_duplicates and rng.random() < 0.15:
            events.append(obs(ts, bay, statuses[bay].value))  # resend, no change
            continue
        statuses[bay] = (
            BayStatus.FREE if statuses[bay] is BayStatus.OCCUPIED else BayStatus.OCCUPIED
        )
        events.append(obs(ts, bay, statuses[bay].value))
    return events


def aggregate_windows(events, windows):
    """Run random_trace's events through the production path, capturing per-window ms.

    The opening snapshot volley is applied as snapshots, the rest as updates.
    """
    n_snapshots = len({bay for _, bay, _ in events})
    table = {}
    idx = 0
    out = []
    for window in windows:
        while idx < len(events) and events[idx][0] < window.end:
            ts, bay, status = events[idx]
            kind = EventKind.SNAPSHOT if idx < n_snapshots else EventKind.UPDATE
            apply_event(table, kind, ts, "L", bay, status)
            idx += 1
        update_occupation_time(table, window.end)
        out.append({b: s.accumulated_occupation_ms for b, s in table.items()})
        rollup(table, window)
    return out


def test_aggregator_matches_oracle_on_10k_event_trace():
    rng = random.Random(50_50)
    events = random_trace(rng, n_bays=50, n_events=10_000, t0=0, span=86_400_000)
    window = RollupWindow(0, 90_000_000)
    assert aggregate_windows(events, [window])[0] == oracle_occupancy(events, window)


def test_aggregator_matches_oracle_with_duplicates():
    rng = random.Random(99)
    events = random_trace(rng, 10, 2_000, 0, 3_600_000, with_duplicates=True)
    window = RollupWindow(0, 4_000_000)
    assert aggregate_windows(events, [window])[0] == oracle_occupancy(events, window)


def test_window_partition_conserves_totals():
    rng = random.Random(424242)
    for _ in range(25):
        t0 = rng.randint(0, 10**9)
        span = rng.randint(100_000, 50_000_000)
        events = random_trace(rng, rng.randint(1, 20), rng.randint(10, 800), t0, span)
        end = t0 + span + rng.randint(1, 1_000_000)
        cuts = sorted(rng.sample(range(t0 + 1, end), rng.randint(0, 3)))
        bounds = [t0, *cuts, end]
        windows = [RollupWindow(a, b) for a, b in zip(bounds, bounds[1:])]
        per_window = aggregate_windows(events, windows)
        whole = oracle_occupancy(events, RollupWindow(t0, end))
        summed = {}
        for totals in per_window:
            for bay, ms in totals.items():
                summed[bay] = summed.get(bay, 0) + ms
        assert summed == whole
        for window, totals in zip(windows, per_window):
            assert totals == oracle_occupancy(events, window)


# ---------------------------------------------------------------------------
# one-pass sweep against a per-window enumeration


def reference_occupancy(trace, window):
    """Per-window enumeration, kept here as the sweep's reference."""
    per_bay = {}
    for ts, bay_id, status in trace:
        per_bay.setdefault(bay_id, []).append((ts, status))
    totals = {}
    for bay_id, events in per_bay.items():
        total = 0
        for i, (ts, status) in enumerate(events):
            seg_end = events[i + 1][0] if i + 1 < len(events) else window.end
            if status is BayStatus.OCCUPIED:
                lo = max(ts, window.start)
                hi = min(seg_end, window.end)
                if hi > lo:
                    total += hi - lo
        totals[bay_id] = total
    return totals


def sweep_case(rng):
    """A window grid and a trace built to hit the sweep's edge cases."""
    period = rng.choice([7, 60, 1000, 3600])
    n_windows = rng.randint(1, 12)
    grid_start = rng.randint(2, 5) * period
    bounds = [grid_start + k * period for k in range(n_windows + 1)]
    # Sometimes leave gaps between windows: sorted and disjoint, not contiguous.
    max_gap = period - 1 if rng.random() < 0.3 else 0
    windows = [
        RollupWindow(a, b - rng.randint(0, max_gap)) for a, b in zip(bounds, bounds[1:])
    ]
    # Events may fall before the grid, after it, or exactly on a boundary.
    lo, hi = grid_start - 2 * period, bounds[-1] + 2 * period
    n_bays = rng.randint(1, 6)
    times = []
    for _ in range(rng.randint(0, 40)):
        if rng.random() < 0.3:
            times.append(rng.choice(bounds))
        else:
            times.append(rng.randint(lo, hi))
    times.sort()
    trace = []
    status = {}
    for ts in times:
        # Several bays may report at the same instant.
        for bay in rng.sample(range(1, n_bays + 1), rng.randint(1, min(2, n_bays))):
            if bay in status and rng.random() < 0.2:
                new = status[bay]  # duplicate-status update
            else:
                new = rng.choice([BayStatus.FREE, BayStatus.OCCUPIED])
            status[bay] = new
            trace.append(obs(ts, bay, new.value))
    return trace, windows


def test_sweep_matches_per_window_reference_on_random_traces():
    rng = random.Random(20_181_119)
    for case in range(600):
        trace, windows = sweep_case(rng)
        got = list(oracle_windows(trace, windows))
        want = [reference_occupancy(trace, w) for w in windows]
        assert got == want, f"case {case}"


def test_sweep_on_boundary_events_and_late_bays():
    # Bay 2 is first seen in the third window; bay 1 flips on boundaries.
    trace = [
        obs(1000, 1, "occupied"),
        obs(2000, 1, "free"),
        obs(2000, 3, "occupied"),
        obs(2000, 3, "occupied"),
        obs(2500, 2, "occupied"),
        obs(3000, 1, "occupied"),
    ]
    windows = [RollupWindow(a, a + 1000) for a in range(0, 5000, 1000)]
    assert list(oracle_windows(trace, windows)) == [
        {1: 0, 2: 0, 3: 0},
        {1: 1000, 2: 0, 3: 0},
        {1: 0, 2: 500, 3: 1000},
        {1: 1000, 2: 1000, 3: 1000},
        {1: 1000, 2: 1000, 3: 1000},
    ]


@pytest.mark.parametrize(
    "bounds",
    [
        [(1000, 2000), (0, 1000)],  # out of order
        [(0, 1000), (500, 1500)],  # overlapping
        [(0, 1000), (0, 1000)],  # repeated
    ],
)
def test_sweep_rejects_unsorted_or_overlapping_windows(bounds):
    windows = [RollupWindow(a, b) for a, b in bounds]
    with pytest.raises(ValueError, match="sorted and disjoint"):
        list(oracle_windows([obs(0, 1, "occupied")], windows))


@pytest.mark.parametrize("ts", [2**63, -(2**63) - 1])
def test_a_timestamp_beyond_64_bits_is_a_value_error(ts):
    with pytest.raises(ValueError, match="beyond 64 bits"):
        oracle_windows([obs(ts, 1, "occupied")], [RollupWindow(0, 1000)])


def test_verify_run_sweeps_the_oracle_once(tmp_path, monkeypatch):
    calls = []

    def counting(trace, windows):
        calls.append(len(windows))
        return oracle.oracle_windows(trace, windows)

    monkeypatch.setattr(harness, "oracle_windows", counting)
    harness.run_sim(
        make_scenario(seed=5, bays=4, days=2, rollup_period_sec=3600), tmp_path / "run"
    )
    report = harness.verify_run(tmp_path / "run")
    assert report.ok, report.render()
    assert calls == [48]
