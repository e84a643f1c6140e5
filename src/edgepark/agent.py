"""Edge aggregation agent.

Connects to the gateway, stamps every received event with its own clock,
appends it to the write-ahead log before mutating the occupancy table,
pings the gateway on a fixed cadence, closes accounting windows on
schedule (CSV file, flush marker, upload envelope), and delivers
envelopes to the cloud hub at-least-once. On restart it rebuilds state by
replaying the log after the last flush marker.

Each link ends in one method, whatever ended it. A gateway session
ends in ``_end_session``: if its snapshot had arrived, in-progress
occupancy is flushed at the moment of detection, every bay is invalidated
until the next snapshot re-establishes it, and the agent redials at once,
so unobserved time is never counted; a session that ended before its
snapshot only backs off and redials. The hub link ends in
``_end_upload_link``: the unacked upload is retried with backoff. Both
close the dropped connection without running its on_close, so a dropped
connection never calls back into the agent. An upload the hub refuses by
its key is final: it is parked in the dead letter and never resent.
``kill`` cancels the three timers the agent holds, as each would act on a
killed agent: the session timer (the handshake timeout, then the next ping
tick), the ack timer and the boundary timer. Redial and upload retry timers
are not held: ``_connect`` and ``_pump_uploads`` return on a killed agent.

Link state is derived, not held twice: a session has its snapshot exactly
while no gap is open, the queue's head is in flight exactly while the ack
timer is set, and ``ping_seq - last_pong_seq`` pings are unanswered in a row
(a pong counts only for the last ping). ``_close_windows`` closes every window
whose boundary now has reached. The boundary timer, recovery and each callback
that stamps now call it first, so a record is logged and applied in the window
that holds its ts, also when a live loop runs the callback after the boundary.
"""

from __future__ import annotations

import logging
import os
from collections import Counter, deque
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from itertools import starmap
from pathlib import Path
from typing import Any, Iterable

from . import eventlog, protocol
from .clock import PRIORITY_ROLLUP, RealScheduler, VirtualScheduler
from .occupancy import (
    MS_PER_DAY,
    BayState,
    EventKind,
    RollupRecord,
    RollupWindow,
    apply_event,
    invalidate_statuses,
    rollup,
)

log = logging.getLogger(__name__)

CSV_HEADER = "bayId,occupationTime,occupationRate"
CSV_ROW = "{},{},{:.4f}\n"  # a RollupRecord's row
STAMP_FORMAT = "%Y%m%dT%H%M%SZ"  # UTC basic format of a window start, in CSV names
CLIENT_NAME = "edge-agent"  # sent in the hello
UNKNOWN_LOT = "unknown"  # names a window rolled up before any lot is known, live or replayed
MAX_UPDATE_PREFIXES = 1024  # (lot, bay, status) update lines whose event_prefix the agent keeps

# The agent counts its warnings by these kinds, in bounded memory. A per-event
# kind (raised once per update or log record; duplicate_update and unknown_bay come
# from apply_event) is logged at DEBUG and summed in one WARNING per window.
PER_EVENT_KINDS = (
    "update_before_snapshot", "malformed_update", "rejected_event", "duplicate_update",
    "unknown_bay",
)
WARNING_KINDS = (
    "skipped_log_line", "csv_requeue_failed", "gateway_error", "unexpected_message",
    "malformed_snapshot", *PER_EVENT_KINDS, "upload_refused",
)


@dataclass(frozen=True)
class BackoffPolicy:
    initial_ms: int = 1000
    multiplier: float = 2.0
    cap_ms: int = 30000

    def __post_init__(self) -> None:
        if not (0 < self.initial_ms <= self.cap_ms and self.multiplier >= 1):  # NaN too
            raise ValueError("backoff needs 0 < initial <= cap and a multiplier of at least 1")

    def delay_ms(self, attempt: int) -> int:
        """initial * multiplier**attempt, capped; the cap once growth overflows a float."""
        try:
            return int(min(self.initial_ms * (self.multiplier ** attempt), self.cap_ms))
        except OverflowError:
            return self.cap_ms


@dataclass(frozen=True)
class AgentConfig:
    gateway_address: str
    cloud_address: str
    log_path: Path
    csv_dir: Path
    poll_interval_sec: int = 60
    rollup_period_sec: int = 86_400
    reconnect_backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    rollup_epoch_ms: int | None = None  # default: midnight UTC of the start day
    ack_timeout_ms: int = 5000

    def __post_init__(self) -> None:
        if self.poll_interval_sec < 1:
            raise ValueError("poll interval must be at least 1 s")
        if self.rollup_period_sec < self.poll_interval_sec:
            raise ValueError("roll-up period must be at least the poll interval")
        if self.ack_timeout_ms < 1:
            raise ValueError("ack timeout must be at least 1 ms")

    @cached_property
    def poll_interval_ms(self) -> int:
        return self.poll_interval_sec * 1000

    @cached_property  # read on every update: a plain attribute after the first read
    def rollup_period_ms(self) -> int:
        return self.rollup_period_sec * 1000


def midnight_utc(ts_ms: int) -> int:
    return ts_ms - ts_ms % MS_PER_DAY


def window_floor(ts_ms: int, period_ms: int, epoch_ms: int | None = None) -> int:
    """Start of the window containing ts on the grid epoch + k * period.

    The epoch defaults to midnight UTC of ts's day; a ts at or before the
    epoch belongs to the window that starts at the epoch.
    """
    epoch = midnight_utc(ts_ms) if epoch_ms is None else epoch_ms
    if ts_ms <= epoch:
        return epoch
    return epoch + ((ts_ms - epoch) // period_ms) * period_ms


def window_stamp(window_start_ms: int) -> str:
    dt = datetime.fromtimestamp(window_start_ms / 1000, tz=timezone.utc)
    return dt.strftime(STAMP_FORMAT)


def csv_filename(lot_id: str, window_start_ms: int) -> str:
    return f"rollup_{lot_id}_{window_stamp(window_start_ms)}.csv"


def csv_bytes(records: Iterable[RollupRecord]) -> bytes:
    """Bit-exact roll-up CSV: LF endings, integer seconds, 4-decimal rates."""
    return (CSV_HEADER + "\n" + "".join(starmap(CSV_ROW.format, records))).encode("utf-8")


def write_csv(
    records: list[RollupRecord],
    window: RollupWindow,
    lot_id: str,
    csv_dir: str | Path,
) -> Path:
    """Write ``csv_bytes(records)`` under the window's CSV name.

    The file is written beside its final name and renamed onto it, so a
    crash leaves either the previous file or the whole new one, never a
    torn CSV that recovery would re-upload. Like the event log, it is
    flushed but not fsynced. The directory must exist; its owner creates
    it once, not once per window.
    """
    path = Path(csv_dir) / csv_filename(lot_id, window.start)
    tmp = path.with_name(f".{path.name}.tmp")  # not matched by rollup_*.csv
    try:
        tmp.write_bytes(csv_bytes(records))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def read_csv_records(path: str | Path) -> tuple[str, int, list[RollupRecord]]:
    """Parse a roll-up CSV back into (lot_id, window_start_ms, records); ValueError
    unless its name and each row are as the writer writes them, in ascending bay
    order. Rows end at a newline, with or without a carriage return before it."""
    path = Path(path)
    stem = path.name
    lot_id, _, stamp = stem[len("rollup_"):-len(".csv")].rpartition("_")
    if not protocol.is_lot_id(lot_id):
        raise ValueError(f"roll-up CSV name has no valid lot id: {stem}")
    start_dt = datetime.strptime(stamp, STAMP_FORMAT).replace(tzinfo=timezone.utc)
    window_start = int(start_dt.timestamp() * 1000)
    if csv_filename(lot_id, window_start) != stem:  # also "rollup_" and ".csv"
        raise ValueError(f"not a roll-up CSV name: {stem}")
    records: list[RollupRecord] = []
    text = path.read_bytes().decode("utf-8").replace("\r\n", "\n")
    lines = text.removesuffix("\n").split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing header")
    for line in lines[1:]:
        try:
            bay, sec, rate = line.split(",")
            # + 0.0 turns -0.0 into 0.0, so a "-0.0000" cell is not its row as written.
            record = RollupRecord(protocol.bay_id_from_text(bay), int(sec), float(rate) + 0.0)
        except ValueError:
            raise ValueError(f"{path}: not a roll-up row: {line!r}") from None
        if (not protocol.is_bay_id(record.bay_id) or record.occupation_time_sec < 0
                or not 0 <= record.occupation_rate <= 1):  # NaN too
            raise ValueError(f"{path}: bay id, seconds or rate out of range in row {line!r}")
        if CSV_ROW.format(*record) != line + "\n":
            raise ValueError(f"{path}: row {line!r} is not written as {CSV_ROW.format(*record)!r}")
        if records and record.bay_id <= records[-1].bay_id:
            raise ValueError(f"{path}: row {line!r} is not after bay {records[-1].bay_id}")
        records.append(record)
    return lot_id, window_start, records


@dataclass
class _PendingUpload:
    key: str
    payload: bytes


@dataclass
class _RestartLog:
    """What a restart keeps from its one pass over ``agent.log``."""

    count: int = 0  # decodable records
    ahead: int = 0  # records skipped for a valid ts after the restart's now
    first_ts: int | None = None  # the first valid ts
    flush_ts: int | None = None  # the last flush marker with a valid ts
    tail: list[eventlog.LogItem] = field(default_factory=list)  # the items after that marker
    window_ends: dict[int, int] = field(default_factory=dict)  # flush windowStart -> its ts

    @classmethod
    def fold(cls, records: Iterable[eventlog.LogItem], now: int) -> _RestartLog:
        kept = cls()
        for item in records:
            kept.count += 1
            ts, _, record = item
            if record is None or eventlog.is_log_ts(ts := record.get("ts")):
                if ts > now:  # logged before the clock stepped back; folded, it fails at now
                    kept.ahead += 1
                    continue
                if kept.first_ts is None:
                    kept.first_ts = ts
                if record is not None and record.get("marker") == eventlog.MARKER_FLUSH:
                    kept.flush_ts = ts
                    kept.tail = []
                    if eventlog.is_log_ts(record.get("windowStart")):
                        kept.window_ends[record["windowStart"]] = ts
                    continue
            kept.tail.append(item)  # a bad ts is refused, and counted, on recovery
        return kept


class EdgeAgentCore:
    """Single-writer agent logic over any scheduler + network pair.

    All state mutation happens in scheduler callbacks; the ingest path,
    ping loop, and roll-up scheduler therefore never interleave
    mid-operation. The upload queue is drained by the same thread.
    """

    def __init__(
        self,
        sched: VirtualScheduler | RealScheduler,
        net: Any,
        config: AgentConfig,
    ) -> None:
        self.sched = sched
        self.net = net
        self.config = config

        self.table: dict[int, BayState] = {}
        self.lot_id: str | None = None
        self.window_start: int = 0
        self.log_writer: eventlog.EventLogWriter | None = None
        self._update_prefixes: dict[tuple[str, int, str], bytes] = {}

        self.session: Any = None
        self.connect_attempt = 0
        self._session_timer: Any = None  # the handshake timeout, then the next ping tick

        self.ping_seq = 0
        self.last_pong_seq = 0

        self.upload_queue: deque[_PendingUpload] = deque()
        self.hub_conn: Any = None
        self.upload_attempt = 0
        self._ack_timer: Any = None  # set while the queue's head is in flight

        self.warnings: Counter[str] = Counter(dict.fromkeys(WARNING_KINDS, 0))
        self._summarised: Counter[str] = Counter()  # per-event counts already logged
        self.events_ingested = 0
        self.pings_sent = 0
        self.upload_sends = 0
        self.upload_bytes = 0
        self._closed_gap_ms = 0
        self._gap_open: int | None = None  # set while no session has its snapshot

        self._boundary_timer: Any = None
        self._dead = False

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        now = self.sched.now_ms()
        # One pass, finished before the writer opens: the writer cuts a torn tail.
        with eventlog.read_records(self.config.log_path) as records:
            kept = _RestartLog.fold(records, now)
        # read_records logs each line it skips; _recover logs the records ahead of now.
        self.warnings["skipped_log_line"] += records.skipped + kept.ahead
        # The last valid flush ts, else the window of the first valid ts, else of now.
        if kept.flush_ts is not None:
            self.window_start = kept.flush_ts
        else:
            first = now if kept.first_ts is None else kept.first_ts
            self.window_start = window_floor(
                first, self.config.rollup_period_ms, self.config.rollup_epoch_ms
            )
        self.log_writer = eventlog.EventLogWriter(self.config.log_path)
        try:
            Path(self.config.csv_dir).mkdir(parents=True, exist_ok=True)
            if kept.count:
                self._recover(kept, now)
        except BaseException:
            self.log_writer.close()
            raise
        self._gap_open = now  # nothing is observed until the first snapshot
        self._schedule_boundary()
        self._connect()

    def kill(self) -> None:
        """Abrupt stop (crash simulation): no markers, no flush. An open gap
        ends here, so total_gap_ms stays fixed afterwards. It runs where the
        callbacks run: a live service stops its scheduler first."""
        self._dead = True
        self._closed_gap_ms, self._gap_open = self.total_gap_ms, None
        for timer in (self._session_timer, self._ack_timer, self._boundary_timer):
            if timer is not None:
                timer.cancel()
        for conn in (self.session, self.hub_conn):
            if conn is not None:
                _abandon(conn)
        if self.log_writer is not None:
            self.log_writer.close()

    stop = kill

    @property
    def total_gap_ms(self) -> int:
        total = self._closed_gap_ms
        if self._gap_open is not None:
            total += self.sched.now_ms() - self._gap_open
        return total

    # ------------------------------------------------------------------
    # recovery

    def _recover(self, kept: _RestartLog, now: int) -> None:
        for ts, event, record in kept.tail:
            try:
                if event is None:
                    event = eventlog.apply_record(self.table, record, self.warnings)
                else:
                    kind, lot_id, bay_id, status = event
                    apply_event(self.table, kind, ts, lot_id, bay_id, status, self.warnings)
            except ValueError as exc:  # skipped, like an undecodable line
                self._warn("skipped_log_line", "log recovery skipped a refused record: %s", exc)
                continue
            if event is not None:
                self.lot_id = event[1]
        self._close_windows(now)  # those whose boundary passed while we were down
        # The downtime itself is an unobserved gap.
        self._append_log(protocol.encode_line(eventlog.disconnect_record(now)))
        invalidate_statuses(self.table, now)
        self._requeue_existing_csvs(kept.window_ends)
        log.info(
            "recovered %d bays from %s (%d log records, %d ahead of the clock skipped)",
            len(self.table), self.config.log_path, kept.count, kept.ahead,
        )

    def _requeue_existing_csvs(self, window_ends: dict[int, int]) -> None:
        """At-least-once safety net: re-upload every CSV on disk, to its flush marker's ts."""
        for path in sorted(Path(self.config.csv_dir).glob("rollup_*.csv")):
            try:
                lot_id, window_start, records = read_csv_records(path)
            except ValueError as exc:
                self._warn("csv_requeue_failed", "could not re-enqueue %s: %s", path.name, exc)
                continue
            end = window_ends.get(window_start, window_start + self.config.rollup_period_ms)
            payload = protocol.encode_rollup_envelope(lot_id, window_start, end, records)
            self.upload_queue.append(
                _PendingUpload(protocol.envelope_key(lot_id, window_start), payload)
            )
        self._pump_uploads()

    # ------------------------------------------------------------------
    # gateway session

    def _connect(self) -> None:
        if self._dead:
            return
        try:
            conn = self.net.connect(self.config.gateway_address)
        except ConnectionRefusedError:
            self._schedule_reconnect()
            return
        self.session = conn
        conn.on_message = self._on_gateway_message
        conn.on_close = self._on_gateway_close
        try:
            conn.send(protocol.encode_line(protocol.hello_message(CLIENT_NAME)))
        except ConnectionError:
            self._end_session("hello send failed")
            return
        self._session_timer = self.sched.call_later(
            self.config.poll_interval_ms, self._handshake_timeout
        )

    def _schedule_reconnect(self) -> None:
        delay = self.config.reconnect_backoff.delay_ms(self.connect_attempt)
        self.connect_attempt += 1
        self.sched.call_later(delay, self._connect)

    def _handshake_timeout(self) -> None:
        self._end_session("handshake timed out")

    def _on_gateway_close(self) -> None:
        self._end_session("session closed by peer")

    def _end_session(self, reason: str) -> None:
        """End the gateway session, whatever ended it.

        After its snapshot: log the disconnect, invalidate every bay, open
        the gap and redial at once. Before it: back off, then redial.
        """
        session, self.session = self.session, None
        if session is not None:
            _abandon(session)
        if self._session_timer is not None:
            self._session_timer.cancel()
            self._session_timer = None
        if self._gap_open is not None:
            log.info("gateway session ended before its snapshot: %s", reason)
            self._schedule_reconnect()
            return
        now = self.sched.now_ms()
        self._close_windows(now)
        log.warning("observation interrupted at %d: %s", now, reason)
        self._append_log(protocol.encode_line(eventlog.disconnect_record(now)))
        invalidate_statuses(self.table, now)
        self._gap_open = now
        self._connect()

    def _on_gateway_message(self, message: dict[str, Any]) -> None:
        mtype = message.get("type")
        if mtype == "bays":
            self._on_snapshot(message)
        elif mtype == "baysUpdate":
            self._on_update(message)
        elif mtype == "pong":
            seq = message.get("seq")
            if protocol.is_wire_int(seq) and seq == self.ping_seq:
                self.last_pong_seq = seq
            # A stale or mismatched seq is ignored and counts as missing.
        elif mtype == "error":
            self._warn("gateway_error", "gateway error: %s", message.get("reason"))
        else:
            self._warn("unexpected_message", "unexpected gateway message type %r", mtype)

    def _on_snapshot(self, message: dict[str, Any]) -> None:
        try:
            triples = protocol.parse_bays_snapshot(message)
        except protocol.ProtocolError as exc:
            self._warn("malformed_snapshot", "malformed snapshot: %s", exc)
            self._end_session("malformed snapshot")
            return
        now = self.sched.now_ms()
        self._close_windows(now)
        self.connect_attempt = 0
        if self._gap_open is not None:
            self._closed_gap_ms += now - self._gap_open
            self._gap_open = None
        for lot_id, bay_id, status in triples:
            self._append_log(eventlog.event_line(EventKind.SNAPSHOT, now, lot_id, bay_id, status))
            apply_event(self.table, EventKind.SNAPSHOT, now, lot_id, bay_id, status, self.warnings)
            self.lot_id = lot_id
        self._start_ping_loop(now)
        log.info("handshake complete: %d bays at %d", len(triples), now)

    def _on_update(self, message: dict[str, Any]) -> None:
        if self._gap_open is not None:
            self._warn("update_before_snapshot", "update received before snapshot; ignored")
            return
        try:
            lot_id, bay_id, status = protocol.parse_bays_update(message)
            if lot_id != self.lot_id:
                raise protocol.ProtocolError(f"lot {lot_id} is not the snapshot's {self.lot_id}")
        except protocol.ProtocolError as exc:
            self._warn("malformed_update", "malformed update: %s", exc)
            return
        now = self.sched.now_ms()
        if now >= self.window_start + self.config.rollup_period_ms:  # ran late, past a boundary
            self._close_windows(now)
        state = self.table.get(bay_id)
        if state is not None and now < state.last_transition_ts:
            # Clock regression: record it, touch nothing.
            self._append_log(
                eventlog.event_line(EventKind.UPDATE, now, lot_id, bay_id, status, rejected=True)
            )
            self._warn(
                "rejected_event", "rejected event for bay %d: ts %d precedes %d",
                bay_id, now, state.last_transition_ts,
            )
            return
        prefix = self._update_prefixes.get(key := (lot_id, bay_id, status))
        if prefix is None:
            prefix = eventlog.event_prefix(EventKind.UPDATE, *key)
            if len(self._update_prefixes) < MAX_UPDATE_PREFIXES:
                self._update_prefixes[key] = prefix
        self._append_log(prefix + eventlog.EVENT_TS_TAIL % now)
        apply_event(self.table, EventKind.UPDATE, now, lot_id, bay_id, status, self.warnings)
        self.events_ingested += 1

    # ------------------------------------------------------------------
    # ping loop

    def _start_ping_loop(self, session_start: int) -> None:
        self._session_timer.cancel()  # the handshake timeout, or a running loop's next tick
        self.ping_seq = 0
        self.last_pong_seq = 0
        self._session_timer = self.sched.call_at(
            session_start + self.config.poll_interval_ms, self._ping_tick
        )

    def _ping_tick(self) -> None:
        if self.ping_seq - self.last_pong_seq >= 3:
            self._end_session("3 consecutive pings unanswered")
            return
        self.ping_seq += 1
        try:
            self.session.send(protocol.ping_line(self.ping_seq))
        except ConnectionError:
            self._end_session("ping send failed")
            return
        self.pings_sent += 1
        self._session_timer = self.sched.call_later(
            self.config.poll_interval_ms, self._ping_tick
        )

    # ------------------------------------------------------------------
    # roll-up schedule

    def _schedule_boundary(self) -> None:
        boundary = self.window_start + self.config.rollup_period_ms
        self._boundary_timer = self.sched.call_at(
            boundary, self._on_boundary, priority=PRIORITY_ROLLUP
        )

    def _on_boundary(self) -> None:
        self._close_windows(self.sched.now_ms())
        self._schedule_boundary()

    def _close_windows(self, now: int) -> None:
        """Roll up every window whose boundary now has reached, and only those."""
        period = self.config.rollup_period_ms
        while self.window_start + period <= now:
            self._run_rollup(self.window_start + period)

    def _run_rollup(self, boundary: int) -> None:
        window = RollupWindow(self.window_start, boundary)
        records, _ = rollup(self.table, window)
        lot_id = self.lot_id if self.lot_id is not None else UNKNOWN_LOT
        key = protocol.envelope_key(lot_id, window.start)
        payload = protocol.encode_rollup_envelope(lot_id, window.start, window.end, records)
        try:
            write_csv(records, window, lot_id, self.config.csv_dir)
        except OSError as exc:
            log.warning("CSV write failed (%s); retrying once", exc)
            try:
                write_csv(records, window, lot_id, self.config.csv_dir)
            except OSError as exc2:
                # The in-memory reset must never be skipped; park the envelope instead.
                self._dead_letter(key, payload, f"CSV write failed twice ({exc2})")
        # One write and one flush: the flush marker, then the carried-over
        # statuses, so replay from the marker rebuilds the post-reset table.
        self._append_log(
            protocol.encode_line(eventlog.flush_record(boundary, window.start))
            + eventlog.reseed_lines(self.table, boundary)
        )
        rose = Counter({k: self.warnings[k] for k in PER_EVENT_KINDS}) - self._summarised
        if rose:
            self._summarised += rose
            summary = ", ".join(f"{n} {kind}" for kind, n in rose.items())
            log.warning("window %d: %s", window.start, summary)
        self.window_start = boundary
        self.upload_queue.append(_PendingUpload(key, payload))
        self._pump_uploads()

    def _dead_letter(self, key: str, payload: bytes, why: str) -> None:
        """Park an envelope as deadletter/<lotId>_<windowStart>.envelope.json."""
        dead_dir = Path(self.config.csv_dir) / "deadletter"
        try:
            dead_dir.mkdir(parents=True, exist_ok=True)
            (dead_dir / f"{key.replace(':', '_')}.envelope.json").write_bytes(payload)
            log.error("%s; envelope parked in %s", why, dead_dir)
        except OSError as park_exc:
            log.error("dead-letter write also failed: %s", park_exc)

    # ------------------------------------------------------------------
    # uploads (at-least-once)

    def _pump_uploads(self) -> None:
        if self._dead or self._ack_timer is not None or not self.upload_queue:
            return
        if self.hub_conn is None:
            try:
                conn = self.net.connect(self.config.cloud_address)
            except ConnectionRefusedError:
                self._schedule_upload_retry()
                return
            conn.on_message = self._on_hub_message
            conn.on_close = self._on_hub_close
            self.hub_conn = conn
        head = self.upload_queue[0]
        try:
            size = self.hub_conn.send(head.payload)
        except ConnectionError:
            self._end_upload_link("upload send failed")
            return
        self.upload_sends += 1
        self.upload_bytes += size
        self._ack_timer = self.sched.call_later(
            self.config.ack_timeout_ms, self._on_ack_timeout
        )

    def _schedule_upload_retry(self) -> None:
        delay = self.config.reconnect_backoff.delay_ms(self.upload_attempt)
        self.upload_attempt += 1
        self.sched.call_later(delay, self._pump_uploads)

    def _on_ack_timeout(self) -> None:
        self._end_upload_link(f"ack timed out for {self.upload_queue[0].key}")

    def _on_hub_message(self, message: dict[str, Any]) -> None:
        """An ack or an error naming the in-flight key ends it; a refused envelope is parked."""
        mtype = message.get("type")
        key = message.get("key")
        if (mtype not in ("ack", "error") or self._ack_timer is None
                or key != self.upload_queue[0].key):
            return  # any other reply: the ack timer handles it
        self._ack_timer.cancel()
        self._ack_timer = None
        self.upload_attempt = 0
        head = self.upload_queue.popleft()
        if mtype == "error":
            self._warn("upload_refused", "hub refused %s: %s", key, message.get("reason"))
            self._dead_letter(key, head.payload, f"hub refused {key}")
        self._pump_uploads()

    def _on_hub_close(self) -> None:
        self._end_upload_link("link closed by hub")

    def _end_upload_link(self, reason: str) -> None:
        """End the hub link, whatever ended it; the unacked upload is retried."""
        conn, self.hub_conn = self.hub_conn, None
        if conn is not None:
            _abandon(conn)
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        if self.upload_queue:
            log.warning("hub link ended (%s); retrying", reason)
            self._schedule_upload_retry()

    # ------------------------------------------------------------------

    def _append_log(self, line: bytes) -> None:
        if self.log_writer is not None:
            self.log_writer.append(line)

    def _warn(self, kind: str, message: str, *args: Any) -> None:
        log.log(logging.DEBUG if kind in PER_EVENT_KINDS else logging.WARNING, message, *args)
        self.warnings[kind] += 1


def _abandon(conn: Any) -> None:
    """Close a connection the agent drops, without running its on_close."""
    conn.on_close = None
    try:
        conn.close()
    except ConnectionError:
        pass
