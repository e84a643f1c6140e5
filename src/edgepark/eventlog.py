"""Append-only JSON-lines event log with flush and disconnect markers.

Line shapes (ts and bayId are JSON integers, lotId a string):
  event       {"ts":..,"lotId":"..","bayId":..,"status":"occupied"|"free"|"unknown","src":"snapshot"|"update"}
              plus "rejected":true for events refused by the state machine
  flush       {"ts":<boundary>,"marker":"flush","windowStart":<completed window start>}
  disconnect  {"ts":..,"marker":"disconnect"}

Events are written before the state mutation they describe (write-ahead),
so replaying a log through the state machine reproduces the live table.
``apply_record`` folds one decoded line straight into ``apply_event``;
no event object stands between the line and the table. The hub store
uses the same reader and writer for its roll-up files.

The writer appends lines its caller has already encoded. Event lines,
one per ingested update, come from ``event_line``, which takes the
event's fields and writes the same bytes as ``protocol.encode_line`` of
the event's dict; markers are dicts passed through ``encode_line``, and
hub rows come from ``hub.store_row_line``. A roll-up's flush marker and
re-seed lines are one append: one write and one flush.

Torn tails: a final line without its newline is a crash leftover. Reading
drops it; opening a writer cuts it off, so the next record starts on a
line of its own.
"""

from __future__ import annotations

import logging
import os
from collections import Counter
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Any

from .occupancy import (
    BayState,
    BayStatus,
    EventKind,
    InvariantViolationError,
    apply_event,
    bay_status,
    event_kind,
    invalidate_statuses,
)
from .protocol import decode_json

log = logging.getLogger(__name__)

MARKER_FLUSH = "flush"
MARKER_DISCONNECT = "disconnect"


def event_line(
    kind: EventKind, ts: int, lot_id: str, bay_id: int, status: BayStatus, rejected: bool = False
) -> bytes:
    """One encoded event line, keys in sorted order as encode_line writes them.

    Both enums are str enums: encode_basestring_ascii writes a member as its value.
    """
    flag = '"rejected":true,' if rejected else ""
    return (
        f'{{"bayId":{bay_id},"lotId":{encode_basestring_ascii(lot_id)},'
        f'{flag}"src":{encode_basestring_ascii(kind)},'
        f'"status":{encode_basestring_ascii(status)},"ts":{ts}}}\n'
    ).encode("ascii")


def flush_record(ts: int, window_start: int) -> dict[str, Any]:
    return {"ts": ts, "marker": MARKER_FLUSH, "windowStart": window_start}


def disconnect_record(ts: int) -> dict[str, Any]:
    return {"ts": ts, "marker": MARKER_DISCONNECT}


def is_log_ts(ts: Any) -> bool:
    """True for a non-negative JSON integer, the only valid ts of a log record."""
    return type(ts) is int and ts >= 0  # a JSON true decodes to bool, not int


def record_ts(record: dict[str, Any]) -> int:
    """A record's ts; InvariantViolationError unless a non-negative JSON integer."""
    ts = record.get("ts")
    if not is_log_ts(ts):
        raise InvariantViolationError(f"log ts must be a non-negative integer, got {ts!r}")
    return ts


def apply_record(
    table: dict[int, BayState],
    record: dict[str, Any],
    warnings: Counter[str] | None = None,
) -> tuple[EventKind, str] | None:
    """Fold one log record into the table; returns (kind, lot id) of an applied event.

    Every record needs a valid ts. A disconnect marker invalidates every
    bay; flush markers and rejected events leave the table as it is. An
    event needs a status and a src, its ts and bayId must be JSON integers
    and its lotId a string. A record that breaks a rule raises
    InvariantViolationError and leaves the table as it is. ``warnings``
    counts apply_event's warnings by kind.
    """
    marker = record.get("marker")
    if marker is not None or record.get("rejected"):
        ts = record_ts(record)
        if marker == MARKER_DISCONNECT:
            invalidate_statuses(table, ts)
        return None
    ts = record.get("ts")
    lot_id = record.get("lotId")
    bay_id = record.get("bayId")
    if (
        type(ts) is not int or type(bay_id) is not int or type(lot_id) is not str
        or "status" not in record or "src" not in record
    ):
        raise InvariantViolationError(
            f"log event needs integer ts and bayId, a string lotId, a status and a src, "
            f"got {record!r}"
        )
    kind = event_kind(record["src"])
    apply_event(table, kind, ts, lot_id, bay_id, bay_status(record["status"]), warnings)
    return kind, lot_id


def _cut_torn_tail(fh: IO[bytes], path: Path) -> None:
    end = fh.seek(0, os.SEEK_END)
    if end == 0:
        return
    fh.seek(end - 1)
    if fh.read(1) == b"\n":
        return
    fh.seek(0)
    keep = fh.read().rfind(b"\n") + 1
    fh.truncate(keep)
    fh.seek(keep)
    log.warning("%s: cut torn final line (%d bytes)", path, end - keep)


class EventLogWriter:
    """Appends encoded lines, each flushed as it is appended.

    The caller encodes; each line, or each of the lines appended at
    once, must end with a newline. Opening the file cuts a torn final line
    back to the last newline.
    """

    def __init__(self, path: str | Path, *, fsync: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._fh = open(self.path, "a+b")
        _cut_torn_tail(self._fh, self.path)

    def append(self, line: bytes) -> None:
        self._fh.write(line)
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def read_records(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """Read all decodable records; returns (records, skipped line count).

    An unterminated or undecodable final line is a torn tail and is
    dropped; undecodable interior lines are skipped too, both counted. A
    line nested past the interpreter's recursion limit is undecodable.
    """
    path = Path(path)
    records: list[dict[str, Any]] = []
    skipped = 0
    if not path.exists():
        return records, skipped
    raw = path.read_bytes()
    if not raw:
        return records, skipped
    lines = raw.split(b"\n")
    trailing = lines.pop() if lines else b""
    if trailing:
        skipped += 1
        log.warning("%s: discarding torn final line (%d bytes)", path, len(trailing))
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            record = decode_json(line.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError("log line is not an object")
            records.append(record)
        except (ValueError, RecursionError) as exc:
            skipped += 1
            log.warning("%s:%d: skipping undecodable line: %s", path, lineno, exc)
    return records, skipped


def last_flush_index(records: list[dict[str, Any]]) -> int | None:
    """Index of the last flush marker with a valid ts, or None."""
    for i in range(len(records) - 1, -1, -1):
        if records[i].get("marker") == MARKER_FLUSH and is_log_ts(records[i].get("ts")):
            return i
    return None
