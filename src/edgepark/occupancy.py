"""Per-bay occupancy accounting: state table, event application, window roll-ups.

An observation has no type of its own: ``apply_event`` takes its fields
(kind, ts, lot id, bay id, status) as they come off the wire, a log line
or a trace row, and is the one implementation of the transition rules.

All accounting is integer epoch milliseconds; roll-up records carry whole
seconds (floored) plus the occupied fraction of the window rounded to four
decimal places. The state table is a plain ``dict[int, BayState]`` and the
functions here keep no state of their own; callers must serialize all
mutations of one table.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, TypeVar

log = logging.getLogger(__name__)

MS_PER_SEC = 1_000
MS_PER_DAY = 86_400_000


class BayStatus(str, Enum):
    FREE = "free"
    OCCUPIED = "occupied"
    # Only before the first snapshot or after explicit invalidation
    # (observation stream interrupted).
    UNKNOWN = "unknown"


class EventKind(str, Enum):
    SNAPSHOT = "snapshot"
    UPDATE = "update"


_E = TypeVar("_E", bound=Enum)


def _value_lookup(enum_cls: type[_E]) -> Callable[[object], _E]:
    members = {member.value: member for member in enum_cls}

    def lookup(value: object) -> _E:
        """The member with this value; ValueError for any other, as the Enum call."""
        try:
            return members[value]
        except (KeyError, TypeError):  # TypeError: unhashable value
            raise ValueError(f"{value!r} is not a valid {enum_cls.__name__}") from None

    return lookup


# Value -> member for every value read back from a log, trace or wire line:
# one dict lookup instead of the Enum call's Python-level __call__/__new__.
bay_status = _value_lookup(BayStatus)
event_kind = _value_lookup(EventKind)


class ClockRegressionError(ValueError):
    """A supplied time precedes a bay's last transition timestamp."""


class InvariantViolationError(ValueError):
    """A value breaks one of the accounting invariants."""


@dataclass
class BayState:
    """Mutable accounting state for a single bay.

    While status is OCCUPIED the in-progress interval (now minus
    last_transition_ts) is not part of accumulated_occupation_ms until a
    transition or an explicit flush adds it.
    """

    bay_id: int
    lot_id: str
    status: BayStatus
    last_transition_ts: int
    accumulated_occupation_ms: int = 0


@dataclass(frozen=True)
class RollupWindow:
    """Half-open accounting window [start, end) in epoch milliseconds."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise InvariantViolationError(
                f"window end {self.end} must exceed start {self.start}"
            )

    @property
    def length_ms(self) -> int:
        return self.end - self.start


class RollupRecord(NamedTuple):
    """Per-bay output of one window roll-up; each reader of records checks their ranges."""

    bay_id: int
    occupation_time_sec: int
    occupation_rate: float


def occupation_rate(occ_ms: int, window_ms: int) -> float:
    """Occupied fraction of a window, rounded half-up to 4 decimal places."""
    if window_ms <= 0:
        raise InvariantViolationError(f"window length must be positive, got {window_ms}")
    if occ_ms < 0 or occ_ms > window_ms:
        raise InvariantViolationError(
            f"occupation {occ_ms} ms outside [0, {window_ms}] ms window"
        )
    # floor(occ / window * 10_000 + 1/2) in integers: exact half-up rounding. The
    # int/int division is correctly rounded, so this is the float nearest the result.
    return (occ_ms * 20_000 + window_ms) // (2 * window_ms) / 10_000


def _warn(warnings: Counter[str] | None, kind: str, message: str, *args: object) -> None:
    """Count a per-event warning under its kind; its detail is logged at DEBUG only."""
    log.debug(message, *args)
    if warnings is not None:
        warnings[kind] += 1


def apply_event(
    table: dict[int, BayState],
    kind: EventKind,
    ts: int,
    lot_id: str,
    bay_id: int,
    status: BayStatus,
    warnings: Counter[str] | None = None,
) -> dict[int, BayState]:
    """Apply one observation, given as its fields, to the table and return it.

    A bay id below 1 or a negative ts raises InvariantViolationError, and
    a ts before the bay's last transition raises ClockRegressionError;
    either leaves the table untouched. Snapshots (re)establish a bay:
    status and interval start are taken from the event, accumulated time
    is preserved (zero for a new bay) and never credited. Updates
    transition status; an occupied-to-anything transition credits the
    elapsed interval. Duplicate-status updates are idempotent and an
    update for an unknown bay creates it; both count in ``warnings`` under
    ``duplicate_update`` or ``unknown_bay`` and log their detail at DEBUG.
    """
    if bay_id < 1:
        raise InvariantViolationError(f"bay id must be positive, got {bay_id}")
    if ts < 0:
        raise InvariantViolationError(f"event ts must be non-negative, got {ts}")
    state = table.get(bay_id)
    if state is None:
        if kind is EventKind.UPDATE:
            _warn(warnings, "unknown_bay", "update for unknown bay %d; creating it as %s",
                  bay_id, status.value)
        table[bay_id] = BayState(bay_id, lot_id, status, ts)
        return table
    if ts < state.last_transition_ts:
        raise ClockRegressionError(
            f"event at {ts} precedes bay {bay_id} last transition {state.last_transition_ts}"
        )
    if kind is EventKind.UPDATE:
        if state.status is status:
            _warn(warnings, "duplicate_update", "duplicate %s update for bay %d ignored",
                  status.value, bay_id)
            return table
        if state.status is BayStatus.OCCUPIED:
            state.accumulated_occupation_ms += ts - state.last_transition_ts
    state.status = status
    state.last_transition_ts = ts
    return table


def update_occupation_time(
    table: dict[int, BayState], now_ms: int
) -> dict[int, BayState]:
    """Flush in-progress occupancy of every occupied bay up to now_ms.

    Statuses never change. Raises ClockRegressionError (table untouched)
    if now_ms precedes any bay's last transition.
    """
    for state in table.values():
        if now_ms < state.last_transition_ts:
            raise ClockRegressionError(
                f"now {now_ms} precedes bay {state.bay_id} "
                f"last transition {state.last_transition_ts}"
            )
    for state in table.values():
        if state.status is BayStatus.OCCUPIED:
            state.accumulated_occupation_ms += now_ms - state.last_transition_ts
            state.last_transition_ts = now_ms
    return table


def rollup(
    table: dict[int, BayState], window: RollupWindow
) -> tuple[list[RollupRecord], dict[int, int]]:
    """Close a window: flush at window.end, emit records, reset accumulators.

    Returns the records, sorted by bay id, and each bay's flushed ms before
    the reset. Occupancy spanning the boundary is truncated at window.end;
    its continuation accrues to the next window because statuses survive
    the reset and every bay's interval restarts at window.end.
    """
    update_occupation_time(table, window.end)
    records: list[RollupRecord] = []
    totals_ms: dict[int, int] = {}
    length_ms = window.length_ms
    for bay_id in sorted(table):
        state = table[bay_id]
        totals_ms[bay_id] = occ_ms = state.accumulated_occupation_ms
        sec = occ_ms // MS_PER_SEC
        records.append(RollupRecord(bay_id, sec, occupation_rate(sec * MS_PER_SEC, length_ms)))
        state.accumulated_occupation_ms = 0
        state.last_transition_ts = window.end
    return records, totals_ms


def invalidate_statuses(
    table: dict[int, BayState], now_ms: int
) -> dict[int, BayState]:
    """Flush in-progress occupancy at now_ms, then mark every bay unknown.

    Used when the observation stream is interrupted: unknown bays accrue
    nothing until a snapshot re-establishes them, so unobserved intervals
    are never counted.
    """
    update_occupation_time(table, now_ms)
    for state in table.values():
        state.status = BayStatus.UNKNOWN
    return table
