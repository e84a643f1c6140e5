"""Cloud hub: deduplicating roll-up store plus daily/weekly report queries.

Persistence is one append-only JSON-lines file per lot with an in-memory
key index rebuilt on startup. A record is durable on disk before its ack
is sent, so an acked upload survives a hub restart; duplicate deliveries
of one idempotency key are acked but stored once. The files are read and
appended with the event log's reader and writer, so a torn final line
left by a crash is dropped on load and cut off before the next append.
"""

from __future__ import annotations

import logging
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterable, Sequence

from . import eventlog, protocol
from .clock import RealScheduler, VirtualScheduler
from .occupancy import RollupRecord

log = logging.getLogger(__name__)

MS_PER_DAY = 86_400_000


@dataclass(frozen=True)
class StoredRollup:
    key: str
    lot_id: str
    window_start: int
    window_end: int
    records: tuple[RollupRecord, ...]
    received_at: int

    @classmethod
    def of(cls, envelope: dict[str, Any], received_at: int) -> StoredRollup:
        """The stored form of a parse_rollup_envelope result."""
        return cls(envelope["key"], envelope["lotId"], envelope["windowStart"],
                   envelope["windowEnd"], tuple(envelope["records"]), received_at)


@dataclass(frozen=True)
class WeeklyReport:
    """Per-day fleet averages plus per-bay extremes over one week.

    Days with no stored roll-up are None in the per-day series and are
    excluded from the per-bay min/max (absence of data is not an empty lot).
    """

    lot_id: str
    week_start: int
    per_day_fleet_avg_hours: tuple[float | None, ...]
    per_bay_min_hours: dict[int, float]
    per_bay_max_hours: dict[int, float]


def fleet_average_hours(records: tuple[RollupRecord, ...] | list[RollupRecord]) -> float:
    """Mean occupied hours per bay for one stored window."""
    if not records:
        return 0.0
    return sum(r.occupation_time_sec for r in records) / len(records) / 3600.0


def per_bay_extremes(
    windows: Iterable[Sequence[RollupRecord]],
) -> dict[int, tuple[float, float]]:
    """(min, max) occupied hours of each bay over the given windows, by bay id."""
    hours: dict[int, list[float]] = {}
    for records in windows:
        for r in records:
            hours.setdefault(r.bay_id, []).append(r.occupation_time_sec / 3600.0)
    return {b: (min(h), max(h)) for b, h in sorted(hours.items())}


def store_row_line(stored: StoredRollup) -> bytes:
    """One encoded store row: the bytes encode_line writes for the row's dict.

    Keys in sorted order; ``%r`` writes a rate as json does (float repr, or
    the digits of an integer).
    """
    recs = ",".join([
        '{"bayId":%d,"occupationRate":%r,"occupationTime":%d}'
        % (r.bay_id, r.occupation_rate, r.occupation_time_sec)
        for r in stored.records
    ])
    return (
        '{"key":%s,"lotId":%s,"receivedAt":%d,"records":[%s],"windowEnd":%d,"windowStart":%d}\n'
        % (encode_basestring_ascii(stored.key), encode_basestring_ascii(stored.lot_id),
           stored.received_at, recs, stored.window_end, stored.window_start)
    ).encode("ascii")


class RollupStore:
    """Durable, deduplicating storage of uploaded roll-ups."""

    def __init__(self, store_dir: str | Path, *, fsync: bool = True) -> None:
        self.store_dir = Path(store_dir)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._by_key: dict[str, StoredRollup] = {}
        self.skipped_rows = 0
        self._load()

    def _load(self) -> None:
        """Rebuild the index. A stored row is an envelope plus an integer
        receivedAt; a row that is not is skipped, logged and counted."""
        for path in sorted(self.store_dir.glob("*.jsonl")):
            with eventlog.read_records(path) as rows:
                for row in rows:
                    try:
                        envelope = protocol.parse_rollup_envelope(row)
                        if not protocol.is_wire_int(row.get("receivedAt")):
                            raise protocol.ProtocolError("receivedAt must be an integer")
                    except protocol.ProtocolError as exc:
                        log.warning("%s: skipping bad stored row: %s", path, exc)
                        self.skipped_rows += 1
                        continue
                    self._by_key[envelope["key"]] = StoredRollup.of(envelope, row["receivedAt"])
            self.skipped_rows += rows.skipped  # read_records logs each one
        if self._by_key:
            log.info("rollup store: rebuilt index with %d records", len(self._by_key))

    def receive(self, envelope: dict[str, Any], received_at: int) -> bool:
        """Persist a validated envelope; returns False for a duplicate key."""
        key = envelope["key"]
        if key in self._by_key:
            return False
        stored = StoredRollup.of(envelope, received_at)
        path = self.store_dir / f"{stored.lot_id}.jsonl"
        with closing(eventlog.EventLogWriter(path, fsync=self._fsync)) as writer:
            writer.append(store_row_line(stored))
        self._by_key[key] = stored
        return True

    def query_daily(self, lot_id: str, window_start: int) -> tuple[RollupRecord, ...] | None:
        stored = self._by_key.get(protocol.envelope_key(lot_id, window_start))
        return stored.records if stored is not None else None

    def weekly_report(self, lot_id: str, week_start: int) -> WeeklyReport | None:
        """Aggregate the seven day-windows starting at week_start."""
        days = [self.query_daily(lot_id, week_start + day * MS_PER_DAY) for day in range(7)]
        found = [records for records in days if records is not None]
        if not found:
            return None
        extremes = per_bay_extremes(found)
        return WeeklyReport(
            lot_id=lot_id,
            week_start=week_start,
            per_day_fleet_avg_hours=tuple(
                None if records is None else fleet_average_hours(records) for records in days
            ),
            per_bay_min_hours={b: lo for b, (lo, _hi) in extremes.items()},
            per_bay_max_hours={b: hi for b, (_lo, hi) in extremes.items()},
        )

    def lots(self) -> list[str]:
        return sorted({s.lot_id for s in self._by_key.values()})

    def windows_for(self, lot_id: str) -> list[StoredRollup]:
        rows = [s for s in self._by_key.values() if s.lot_id == lot_id]
        rows.sort(key=lambda s: s.window_start)
        return rows

    def __len__(self) -> int:
        return len(self._by_key)


def weekly_to_wire(report: WeeklyReport) -> dict[str, Any]:
    return {
        "type": "weekly",
        "lotId": report.lot_id,
        "weekStart": report.week_start,
        "perDayFleetAvgHours": list(report.per_day_fleet_avg_hours),
        "perBayMinHours": {str(b): h for b, h in report.per_bay_min_hours.items()},
        "perBayMaxHours": {str(b): h for b, h in report.per_bay_max_hours.items()},
    }


class HubCore:
    """Message-level hub service over any scheduler + network pair."""

    def __init__(
        self,
        sched: VirtualScheduler | RealScheduler,
        net: Any,
        store: RollupStore,
        listen_address: str,
        *,
        drop_acks: int = 0,
    ) -> None:
        self.sched = sched
        self.net = net
        self.store = store
        self.listen_address = listen_address
        self.drop_acks_remaining = drop_acks  # fault injection: swallow the first N acks
        self.listener: Any = None

    def start(self) -> None:
        self.listener = self.net.listen(self.listen_address, self._accept)

    def stop(self) -> None:
        if self.listener is not None:
            self.listener.close()

    def _accept(self, conn: Any) -> None:
        conn.on_message = partial(self._on_message, conn)

    def _on_message(self, conn: Any, message: dict[str, Any]) -> None:
        mtype = message.get("type")
        if mtype == "rollup":
            reply = self._handle_rollup(message)
        elif mtype == "queryDaily":
            reply = self._handle_query_daily(message)
        elif mtype == "queryWeekly":
            reply = self._handle_query_weekly(message)
        else:
            reply = protocol.error_message(f"unknown message type {mtype!r}")
        if reply is None:
            return
        try:
            conn.send(protocol.encode_line(reply))
        except ConnectionError:
            pass

    def _handle_rollup(self, message: dict[str, Any]) -> dict[str, Any] | None:
        """Store one upload; the reply is its ack, an error, or None for a dropped ack."""
        try:
            envelope = protocol.parse_rollup_envelope(message)
        except protocol.ProtocolError as exc:
            reply = protocol.error_message(str(exc))
            if isinstance(message.get("key"), str):  # a refusal is final: name what it refuses
                reply["key"] = message["key"]
            return reply
        self.store.receive(envelope, received_at=self.sched.now_ms())
        if self.drop_acks_remaining > 0:
            self.drop_acks_remaining -= 1
            log.info("dropping ack for %s (injected fault)", envelope["key"])
            return None
        return protocol.ack_message(envelope["key"])

    def _handle_query_daily(self, message: dict[str, Any]) -> dict[str, Any]:
        lot_id = message.get("lotId")
        window_start = message.get("windowStart")
        if not isinstance(lot_id, str) or not protocol.is_wire_int(window_start):
            return protocol.error_message("queryDaily needs lotId and windowStart")
        records = self.store.query_daily(lot_id, window_start)
        if records is None:
            return protocol.not_found_message()
        return protocol.daily_message(list(records))

    def _handle_query_weekly(self, message: dict[str, Any]) -> dict[str, Any]:
        lot_id = message.get("lotId")
        week_start = message.get("weekStart")
        if not isinstance(lot_id, str) or not protocol.is_wire_int(week_start):
            return protocol.error_message("queryWeekly needs lotId and weekStart")
        report = self.store.weekly_report(lot_id, week_start)
        if report is None:
            return protocol.not_found_message()
        return weekly_to_wire(report)
