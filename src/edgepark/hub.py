"""Cloud hub: deduplicating roll-up store plus daily/weekly report queries.

Persistence is one append-only JSON-lines file per lot with an in-memory
key index rebuilt on startup. A record is durable on disk before its ack
is sent, so an acked upload survives a hub restart; duplicate deliveries
of one idempotency key are acked but stored once. The files are read and
appended with the event log's reader and writer; a store keeps the writers
of its MAX_OPEN_LOTS most recently received lots open until close(). A torn
final line left by a crash is dropped on load and cut off as a lot's file
opens for append: at its first receive, or after its writer was closed.
"""

from __future__ import annotations

import logging
from contextlib import closing
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterable, Sequence

from . import eventlog, protocol
from .clock import RealScheduler, VirtualScheduler
from .occupancy import MS_PER_DAY, RollupRecord

log = logging.getLogger(__name__)

MAX_OPEN_LOTS = 8  # lot ids come off the wire: bound the files a store keeps open


def fleet_average_hours(records: Sequence[RollupRecord]) -> float:
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


def store_row_line(envelope: protocol.RollupEnvelope, received_at: int) -> bytes:
    """One encoded store row, the envelope plus its receivedAt: the bytes
    encode_line writes for the row's dict.

    Keys in sorted order; ``%r`` writes a rate as json does (float repr, or
    the digits of an integer).
    """
    recs = ",".join([
        '{"bayId":%d,"occupationRate":%r,"occupationTime":%d}'
        % (r.bay_id, r.occupation_rate, r.occupation_time_sec)
        for r in envelope.records
    ])
    return (
        '{"key":%s,"lotId":%s,"receivedAt":%d,"records":[%s],"windowEnd":%d,"windowStart":%d}\n'
        % (encode_basestring_ascii(envelope.key), encode_basestring_ascii(envelope.lot_id),
           received_at, recs, envelope.window_end, envelope.window_start)
    ).encode("ascii")


class RollupStore:
    """Durable, deduplicating storage of uploaded roll-ups.

    The index maps each key to the envelope parse_rollup_envelope returned;
    a row's receivedAt is checked on load and otherwise kept on disk only.
    """

    def __init__(self, store_dir: str | Path, *, fsync: bool = True) -> None:
        self.store_dir = Path(store_dir)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._by_key: dict[str, protocol.RollupEnvelope] = {}
        self._writers: dict[str, eventlog.EventLogWriter] = {}  # by lot id
        self.skipped_rows = 0
        self._load()

    def _load(self) -> None:
        """Rebuild the index. A stored row is an envelope plus an integer
        receivedAt; a row that is not is skipped, logged and counted."""
        for path in sorted(self.store_dir.glob("*.jsonl")):
            with eventlog.read_records(path) as rows:
                for _, _, row in rows:
                    try:
                        if row is None:  # an event line read by its head
                            raise protocol.ProtocolError("an event line is not a stored row")
                        envelope = protocol.parse_rollup_envelope(row)
                        if not protocol.is_wire_int(row.get("receivedAt")):
                            raise protocol.ProtocolError("receivedAt must be an integer")
                    except protocol.ProtocolError as exc:
                        log.warning("%s: skipping bad stored row: %s", path, exc)
                        self.skipped_rows += 1
                        continue
                    self._by_key[envelope.key] = envelope
            self.skipped_rows += rows.skipped  # read_records logs each one
        if self._by_key:
            log.info("rollup store: rebuilt index with %d records", len(self._by_key))

    def receive(self, envelope: protocol.RollupEnvelope, received_at: int) -> bool:
        """Persist a validated envelope; returns False for a duplicate key."""
        if envelope.key in self._by_key:
            return False
        writer = self._writers.pop(envelope.lot_id, None)  # put back last: most recent
        if writer is None:
            if len(self._writers) >= MAX_OPEN_LOTS:
                self._writers.pop(next(iter(self._writers))).close()
            writer = eventlog.EventLogWriter(
                self.store_dir / f"{envelope.lot_id}.jsonl", fsync=self._fsync)
        try:
            writer.append(store_row_line(envelope, received_at))
        except BaseException:  # dropped: the next receive reopens the file, cutting a torn row
            writer.close()
            raise
        self._writers[envelope.lot_id] = writer
        self._by_key[envelope.key] = envelope
        return True

    def close(self) -> None:
        """Close every lot's file; a later receive opens its lot's file again."""
        while self._writers:
            self._writers.popitem()[1].close()

    def query_daily(self, lot_id: str, window_start: int) -> tuple[RollupRecord, ...] | None:
        envelope = self._by_key.get(protocol.envelope_key(lot_id, window_start))
        return envelope.records if envelope is not None else None

    def weekly_report(self, lot_id: str, week_start: int) -> dict[str, Any] | None:
        """The weekly reply over the seven day-windows from week_start, or
        None when none of them is stored: per-day fleet averages plus
        per-bay extremes.

        Days with no stored roll-up are None in the per-day series and are
        excluded from the per-bay min/max (absence of data is not an empty lot).
        """
        days = [self.query_daily(lot_id, week_start + day * MS_PER_DAY) for day in range(7)]
        found = [records for records in days if records is not None]
        if not found:
            return None
        extremes = per_bay_extremes(found)
        return {
            "type": "weekly",
            "lotId": lot_id,
            "weekStart": week_start,
            "perDayFleetAvgHours": [
                None if records is None else fleet_average_hours(records) for records in days
            ],
            "perBayMinHours": {str(b): lo for b, (lo, _hi) in extremes.items()},
            "perBayMaxHours": {str(b): hi for b, (_lo, hi) in extremes.items()},
        }

    def lots(self) -> list[str]:
        return sorted({envelope.lot_id for envelope in self._by_key.values()})

    def windows_for(self, lot_id: str) -> list[protocol.RollupEnvelope]:
        rows = [envelope for envelope in self._by_key.values() if envelope.lot_id == lot_id]
        rows.sort(key=lambda envelope: envelope.window_start)
        return rows

    def __len__(self) -> int:
        return len(self._by_key)


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
        with closing(self.store):  # closed even when the listener's close raises
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
            log.info("dropping ack for %s (injected fault)", envelope.key)
            return None
        return {"type": "ack", "key": envelope.key}

    def _handle_query_daily(self, message: dict[str, Any]) -> dict[str, Any]:
        lot_id = message.get("lotId")
        window_start = message.get("windowStart")
        if not isinstance(lot_id, str) or not protocol.is_wire_int(window_start):
            return protocol.error_message("queryDaily needs lotId and windowStart")
        records = self.store.query_daily(lot_id, window_start)
        if records is None:
            return {"type": "notFound"}
        return protocol.daily_message(records)

    def _handle_query_weekly(self, message: dict[str, Any]) -> dict[str, Any]:
        lot_id = message.get("lotId")
        week_start = message.get("weekStart")
        if not isinstance(lot_id, str) or not protocol.is_wire_int(week_start):
            return protocol.error_message("queryWeekly needs lotId and weekStart")
        report = self.store.weekly_report(lot_id, week_start)
        if report is None:
            return {"type": "notFound"}
        return report
