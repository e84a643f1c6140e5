"""Brute-force occupancy oracle: direct interval enumeration over a trace.

Independent check of the state-machine accounting. It deliberately shares
no logic with apply_event/rollup: per bay it reconstructs the piecewise
constant status function ("the most recent event at each instant") and
measures its occupied portion inside each window. Keep it that way.

The trace is a ts-sorted iterable of (ts, bay_id, status) triples, the
form ``harness.trace_to_events`` streams from a trace file. Every window
is half-open, [window.start, window.end). The trace is grouped once into
per-bay runs (ts_i, status_i), each holding until ts_{i+1}; the last run
is open-ended; a bay's runs are an array of 64-bit starts and a
bytearray of occupied flags, 9 bytes per event, each filled through the
bay's bound appends: one dict lookup and two calls per event. One sweep
over the sorted, disjoint window grid keeps a cursor per bay and splits
each occupied run across the windows it overlaps, so checking W windows
costs O(events + W × bays) rather than W passes over the whole trace.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, Iterator, Sequence

from .occupancy import BayStatus, RollupWindow

# (ts, bay_id, status): one observation, as the oracle reads it.
Observation = tuple[int, int, BayStatus]


class TraceOrderError(ValueError):
    """The trace is not sorted by timestamp."""


def oracle_windows(
    trace: Iterable[Observation], windows: Sequence[RollupWindow]
) -> Iterator[dict[int, int]]:
    """Per-bay occupied milliseconds in each window, yielded in grid order.

    The windows must be sorted and disjoint. A bay still occupied at a
    window's end is truncated there. Every bay id appearing in the trace
    is present in each result, with 0 if it was never occupied inside
    that window. Both orders are checked by this call, before the first
    total: TraceOrderError or ValueError comes from it, not from the sweep
    it returns. A timestamp outside the signed 64-bit range is a ValueError.
    """
    # Per bay: run start times, whether each run is occupied, and the two bound appends.
    runs: dict[int, tuple[array[int], bytearray]] = {}
    appends: dict[int, tuple[Callable[[int], None], Callable[[int], None]]] = {}
    occupied = BayStatus.OCCUPIED
    prev_ts: float = float("-inf")
    try:
        for ts, bay_id, status in trace:
            if ts < prev_ts:
                raise TraceOrderError(f"trace not sorted by ts at {ts} < {prev_ts}")
            prev_ts = ts
            add = appends.get(bay_id)
            if add is None:
                starts, flags = runs[bay_id] = (array("q"), bytearray())
                add = appends[bay_id] = (starts.append, flags.append)
            add[0](ts)
            add[1](status is occupied)
    except OverflowError as exc:
        raise ValueError(f"trace timestamp {prev_ts} is beyond 64 bits") from exc
    for before, after in zip(windows, windows[1:]):
        if after.start < before.end:
            raise ValueError(
                f"windows not sorted and disjoint: [{before.start}, {before.end}) "
                f"then [{after.start}, {after.end})"
            )
    return _sweep(runs, windows)


def _sweep(
    runs: dict[int, tuple[array[int], bytearray]], windows: Sequence[RollupWindow]
) -> Iterator[dict[int, int]]:
    # Per bay: index of the first run that ends after the current window starts.
    cursors = dict.fromkeys(runs, 0)

    for window in windows:
        lo, hi = window.start, window.end
        totals: dict[int, int] = {}
        for bay_id, (starts, occupied) in runs.items():
            n = len(starts)
            i = cursors[bay_id]
            while i + 1 < n and starts[i + 1] <= lo:
                i += 1
            cursors[bay_id] = i
            total = 0
            while i < n and starts[i] < hi:
                if occupied[i]:
                    run_end = starts[i + 1] if i + 1 < n and starts[i + 1] < hi else hi
                    total += run_end - max(starts[i], lo)
                i += 1
            totals[bay_id] = total
        yield totals


def oracle_occupancy(
    trace: Sequence[Observation], window: RollupWindow
) -> dict[int, int]:
    """Per-bay occupied milliseconds within the half-open window."""
    return next(oracle_windows(trace, [window]))
