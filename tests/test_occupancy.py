"""Unit tests for the occupancy state machine and roll-up math."""

from collections import Counter
import copy
from decimal import ROUND_HALF_UP, Decimal
import logging
import random

import pytest

from edgepark.occupancy import (
    BayState,
    BayStatus,
    ClockRegressionError,
    EventKind,
    InvariantViolationError,
    RollupWindow,
    apply_event,
    bay_status,
    event_kind,
    invalidate_statuses,
    occupation_rate,
    rollup,
    update_occupation_time,
)

HOUR_MS = 3_600_000
DAY_MS = 86_400_000


def snap(ts, bay, status, lot="L"):
    """apply_event's fields after the table: (kind, ts, lot_id, bay_id, status)."""
    return EventKind.SNAPSHOT, ts, lot, bay, BayStatus(status)


def upd(ts, bay, status, lot="L"):
    return EventKind.UPDATE, ts, lot, bay, BayStatus(status)


# ---------------------------------------------------------------------------
# apply_event


def test_snapshot_creates_bay():
    table = apply_event({}, *snap(100, 1, "free"))
    state = table[1]
    assert state.status is BayStatus.FREE
    assert state.last_transition_ts == 100
    assert state.accumulated_occupation_ms == 0
    assert state.lot_id == "L"


def test_snapshot_existing_bay_preserves_accumulation_same_status():
    table = {}
    apply_event(table, *upd(0, 1, "occupied"))
    apply_event(table, *upd(500, 1, "free"))
    apply_event(table, *snap(900, 1, "free"))
    assert table[1].accumulated_occupation_ms == 500
    assert table[1].last_transition_ts == 900


def test_snapshot_existing_bay_never_credits_on_status_change():
    table = {}
    apply_event(table, *upd(0, 1, "occupied"))
    # Snapshot says free now: the change happened while unobserved, so the
    # elapsed interval must not be counted.
    apply_event(table, *snap(1000, 1, "free"))
    assert table[1].status is BayStatus.FREE
    assert table[1].accumulated_occupation_ms == 0
    assert table[1].last_transition_ts == 1000


def test_never_occupied_accumulates_zero():
    table = apply_event({}, *snap(0, 1, "free"))
    update_occupation_time(table, DAY_MS)
    assert table[1].accumulated_occupation_ms == 0


def test_occupied_then_free_credits_elapsed_hour():
    table = {}
    apply_event(table, *upd(0, 1, "occupied"))
    apply_event(table, *upd(HOUR_MS, 1, "free"))
    assert table[1].accumulated_occupation_ms == HOUR_MS


def test_free_to_occupied_sets_status_only():
    table = apply_event({}, *snap(0, 1, "free"))
    apply_event(table, *upd(250, 1, "occupied"))
    assert table[1].status is BayStatus.OCCUPIED
    assert table[1].last_transition_ts == 250
    assert table[1].accumulated_occupation_ms == 0


@pytest.mark.parametrize("status", ["occupied", "free"])
def test_duplicate_update_is_idempotent_with_warning(status):
    table = {}
    apply_event(table, *snap(0, 1, status))
    if status == "occupied":
        apply_event(table, *upd(0, 1, "occupied"))  # snapshot already occupied: dup
    before = copy.deepcopy(table[1])
    warnings = Counter()
    apply_event(table, *upd(700, 1, status), warnings)
    assert table[1] == before
    assert warnings == {"duplicate_update": 1}


def test_per_event_warnings_are_counted_and_logged_at_debug_only(caplog):
    caplog.set_level(logging.DEBUG, logger="edgepark.occupancy")
    warnings = Counter()
    table = apply_event({}, *snap(0, 1, "free"))
    apply_event(table, *upd(700, 1, "free"), warnings)
    apply_event(table, *upd(800, 2, "occupied"), warnings)
    assert warnings == {"duplicate_update": 1, "unknown_bay": 1}
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.DEBUG, "duplicate free update for bay 1 ignored"),
        (logging.DEBUG, "update for unknown bay 2; creating it as occupied"),
    ]


def test_update_unknown_bay_creates_with_warning():
    warnings = Counter()
    table = apply_event({}, *upd(42, 9, "occupied"), warnings)
    assert table[9].status is BayStatus.OCCUPIED
    assert table[9].last_transition_ts == 42
    assert warnings == {"unknown_bay": 1}


def test_clock_regression_rejects_event_and_leaves_bay_untouched():
    table = {}
    apply_event(table, *upd(1000, 1, "occupied"))
    before = copy.deepcopy(table[1])
    with pytest.raises(ClockRegressionError):
        apply_event(table, *upd(999, 1, "free"))
    assert table[1] == before


def test_unknown_status_bay_transition_credits_nothing():
    table = {}
    apply_event(table, *upd(0, 1, "occupied"))
    invalidate_statuses(table, 600)
    assert table[1].status is BayStatus.UNKNOWN
    assert table[1].accumulated_occupation_ms == 600
    apply_event(table, *upd(900, 1, "free"))
    assert table[1].accumulated_occupation_ms == 600  # unknown interval not credited


# ---------------------------------------------------------------------------
# update_occupation_time


def test_update_occupation_time_all_free_is_noop():
    table = {b: BayState(b, "L", BayStatus.FREE, 0) for b in (1, 2, 3)}
    before = copy.deepcopy(table)
    update_occupation_time(table, HOUR_MS)
    assert {b: s.accumulated_occupation_ms for b, s in table.items()} == {
        b: s.accumulated_occupation_ms for b, s in before.items()
    }


def test_update_occupation_time_accrues_two_hours():
    table = {1: BayState(1, "L", BayStatus.OCCUPIED, 0)}
    update_occupation_time(table, 2 * HOUR_MS)
    assert table[1].accumulated_occupation_ms == 2 * HOUR_MS
    assert table[1].last_transition_ts == 2 * HOUR_MS


def test_update_occupation_time_twice_same_now_is_noop():
    table = {1: BayState(1, "L", BayStatus.OCCUPIED, 0)}
    update_occupation_time(table, 5000)
    update_occupation_time(table, 5000)
    assert table[1].accumulated_occupation_ms == 5000


def test_update_occupation_time_regression_leaves_whole_table_untouched():
    table = {
        1: BayState(1, "L", BayStatus.OCCUPIED, 0),
        2: BayState(2, "L", BayStatus.OCCUPIED, 9_000),
    }
    before = copy.deepcopy(table)
    with pytest.raises(ClockRegressionError):
        update_occupation_time(table, 5_000)  # earlier than bay 2's transition
    assert table == before


# ---------------------------------------------------------------------------
# rollup


def checked_rollup(table, window):
    """rollup's records, once its totals_ms are checked against the flushed accumulators."""
    flushed = update_occupation_time(copy.deepcopy(table), window.end)
    records, totals_ms = rollup(table, window)
    assert totals_ms == {bay: state.accumulated_occupation_ms for bay, state in flushed.items()}
    return records


def test_rollup_full_window_occupancy():
    table = {12: BayState(12, "L", BayStatus.OCCUPIED, 0)}
    records = checked_rollup(table, RollupWindow(0, DAY_MS))
    assert records[0].occupation_time_sec == 86_400
    assert records[0].occupation_rate == 1.0


def test_rollup_overnight_boundary_split():
    # Bays 12 and 21 occupied 20:00 day 1 through 08:00 day 2.
    table = {}
    for bay in (12, 21):
        apply_event(table, *snap(0, bay, "free"))
        apply_event(table, *upd(20 * HOUR_MS, bay, "occupied"))
    day1 = checked_rollup(table, RollupWindow(0, DAY_MS))
    assert [r.occupation_time_sec for r in day1] == [14_400, 14_400]
    for bay in (12, 21):
        apply_event(table, *upd(32 * HOUR_MS, bay, "free"))
    day2 = checked_rollup(table, RollupWindow(DAY_MS, 2 * DAY_MS))
    assert [r.occupation_time_sec for r in day2] == [28_800, 28_800]


def test_rollup_resets_accumulator_but_preserves_status():
    table = {1: BayState(1, "L", BayStatus.OCCUPIED, 0)}
    records = checked_rollup(table, RollupWindow(0, HOUR_MS))
    assert records[0].occupation_time_sec == 3600
    assert table[1].accumulated_occupation_ms == 0
    assert table[1].status is BayStatus.OCCUPIED
    assert table[1].last_transition_ts == HOUR_MS


def test_rollup_records_sorted_by_bay_id():
    table = {}
    for bay in (7, 2, 19, 1):
        apply_event(table, *snap(0, bay, "free"))
    records = checked_rollup(table, RollupWindow(0, HOUR_MS))
    assert [r.bay_id for r in records] == [1, 2, 7, 19]


def test_rollup_totals_keep_the_milliseconds_its_records_floor():
    table = {}
    apply_event(table, *snap(0, 3, "occupied"))
    apply_event(table, *upd(1_500, 3, "free"))
    apply_event(table, *snap(0, 4, "free"))
    records, totals_ms = rollup(table, RollupWindow(0, HOUR_MS))
    assert (records, totals_ms) == ([(3, 1, 0.0003), (4, 0, 0.0)], {3: 1_500, 4: 0})


def test_rollup_requires_end_after_all_transitions():
    table = {1: BayState(1, "L", BayStatus.FREE, 5_000)}
    with pytest.raises(ClockRegressionError):
        rollup(table, RollupWindow(0, 4_000))


# ---------------------------------------------------------------------------
# occupation_rate


@pytest.mark.parametrize(
    "occ_ms,window_ms,expected",
    [
        (0, DAY_MS, 0.0),
        (DAY_MS, DAY_MS, 1.0),
        (27_000_000, DAY_MS, 0.3125),  # 7.5 h of 24 h
    ],
)
def test_occupation_rate_values(occ_ms, window_ms, expected):
    assert occupation_rate(occ_ms, window_ms) == expected


def test_occupation_rate_rounds_half_up():
    # 0.12345 rounds up to 0.1235; bare float rounding would give 0.1234.
    assert occupation_rate(12_345, 100_000) == 0.1235
    assert occupation_rate(5, 100_000) == 0.0001


def decimal_occupation_rate(occ_ms, window_ms):
    """Reference: the rate as Decimal division quantized half-up to 4 places."""
    q = (Decimal(occ_ms) / Decimal(window_ms)).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP)
    return float(q)


@pytest.mark.parametrize(
    "window_ms, occupations",
    [
        (HOUR_MS, range(0, HOUR_MS + 1, 1000)),  # every whole second of an hour
        (DAY_MS, range(0, DAY_MS + 1, 1000)),  # every whole second of a day
        (20_000, range(0, 20_001)),  # every ms: every exact half-way case
    ],
    ids=["hour", "day", "20s-every-ms"],
)
def test_occupation_rate_is_the_decimal_reference(window_ms, occupations):
    mismatched = [
        occ for occ in occupations
        if occupation_rate(occ, window_ms) != decimal_occupation_rate(occ, window_ms)
    ]
    assert mismatched == []
    assert occupation_rate(1, 20_000) == 0.0001  # 0.00005: a half-way case rounds up


def test_occupation_rate_rejects_excess_occupation():
    with pytest.raises(InvariantViolationError):
        occupation_rate(DAY_MS + 1, DAY_MS)
    with pytest.raises(InvariantViolationError):
        occupation_rate(0, 0)
    with pytest.raises(InvariantViolationError):
        occupation_rate(-1, DAY_MS)


# ---------------------------------------------------------------------------
# invariants


def test_accumulation_is_monotone_outside_rollup():
    rng = random.Random(7)
    table = {}
    statuses = {}
    now = 0
    floor = {b: 0 for b in range(1, 6)}
    for _ in range(500):
        now += rng.randint(0, 10_000)
        bay = rng.randint(1, 5)
        new = BayStatus.OCCUPIED if statuses.get(bay) is not BayStatus.OCCUPIED else BayStatus.FREE
        statuses[bay] = new
        apply_event(table, *upd(now, bay, new.value))
        for b, state in table.items():
            assert state.accumulated_occupation_ms >= floor[b]
            floor[b] = state.accumulated_occupation_ms


def test_apply_event_is_deterministic():
    events = [snap(0, 1, "free"), upd(10, 1, "occupied"), upd(400, 1, "free")]
    t1, t2 = {}, {}
    for event in events:
        apply_event(t1, *event)
        apply_event(t2, *event)
    assert t1 == t2


def test_invalidate_statuses_stops_accrual():
    table = {}
    apply_event(table, *upd(0, 1, "occupied"))
    invalidate_statuses(table, 1_000)
    update_occupation_time(table, 9_000)
    assert table[1].accumulated_occupation_ms == 1_000
    # A snapshot re-establishes observation from its own timestamp.
    apply_event(table, *snap(9_000, 1, "occupied"))
    apply_event(table, *upd(10_000, 1, "free"))
    assert table[1].accumulated_occupation_ms == 2_000


def test_event_validation():
    table = {}
    for event in (upd(0, 0, "free"), snap(0, -3, "free"), upd(-1, 1, "free"), snap(-1, 1, "free")):
        with pytest.raises(InvariantViolationError):
            apply_event(table, *event)
    assert table == {}
    apply_event(table, *upd(5, 1, "occupied"))
    with pytest.raises(InvariantViolationError):  # checked before the clock regression
        apply_event(table, *upd(-1, 1, "free"))
    assert table[1] == BayState(1, "L", BayStatus.OCCUPIED, 5)
    with pytest.raises(InvariantViolationError):
        RollupWindow(10, 10)


@pytest.mark.parametrize("enum_cls, lookup", [(BayStatus, bay_status), (EventKind, event_kind)])
def test_value_lookup_is_the_enum_call(enum_cls, lookup):
    for member in enum_cls:
        assert lookup(member.value) is member is enum_cls(member.value)
        assert lookup(member) is member
    for value in ("", "FREE", "Free ", "snapshots", 0, 1, True, None, 1.5, b"free", ["free"], {}):
        with pytest.raises(ValueError) as raised:
            lookup(value)
        with pytest.raises(ValueError) as called:
            enum_cls(value)
        assert str(raised.value) == str(called.value)
