"""Append-only JSON-lines event log with flush and disconnect markers.

Line shapes (ts and bayId are JSON integers, lotId a string):
  event       {"ts":..,"lotId":"..","bayId":..,"status":"occupied"|"free"|"unknown","src":"snapshot"|"update"}
              plus "rejected":true for events refused by the state machine
  flush       {"ts":<boundary>,"marker":"flush","windowStart":<completed window start>}
  disconnect  {"ts":..,"marker":"disconnect"}

Events are written before the state mutation they describe (write-ahead),
so replaying a log through the state machine reproduces the live table.
``apply_record`` folds one decoded line straight into ``apply_event``, and
a line read by its head goes there with the head's checked fields. The
hub store uses the same reader and writer for its roll-up files.

The writer appends lines its caller has already encoded. Event lines,
one per ingested update, come from ``event_line``, which takes the
event's fields and writes the same bytes as ``protocol.encode_line`` of
the event's dict: its ``event_prefix``, the same for every event of a bay
and status, then ``EVENT_TS_TAIL % ts``. Markers go through ``encode_line``,
hub rows come from ``hub.store_row_line``. A roll-up's flush marker and
re-seed lines are one append, one write call. ``reseed_lines`` is the one
rendering of a window's re-seed block, one snapshot line per bay at the
boundary. At every flush marker, replay credits its table up to the
marker's ts, renders the block again from it and steps past the block
when the log holds exactly those bytes (``LogRecords.consume``),
so it decodes only the lines that differ.

A pass decodes and checks each distinct head once, a line's head being its
bytes up to its last ``"ts":``. A canonical line (``encode_line`` of its
record, so no key repeats) whose record has the ts last, holds no list or
object and passes ``event_fields`` makes its head a template of those
fields. A later line of that head that ends in a ts in canonical digits and
``}`` is that event at that ts: JSON is read left to right, so equal heads
decode alike, and a template's last ``"ts":`` is its own last key, not the
end of a key like ``"x\\"ts"`` or one in a nested object. It yields
``(ts, event, None)``, with no dict built; every other line, markers,
rejected events and failed heads included, yields ``(None, None, record)``.
The templates are the pass's: at most ``MAX_TEMPLATES``, from lines of at
most ``MAX_TEMPLATE_LINE`` bytes.

Torn tails: a final line without its newline is a crash leftover. A pass
stops before it; opening a writer cuts it off, so the next record starts on
a line of its own. Both find it by scanning back from the end, so a long one
costs one block. Reading is one pass that yields each record as its line is
read, so a caller that folds as it reads never holds the whole log.
"""

from __future__ import annotations

import logging
import os
import re
from collections import Counter
from contextlib import suppress
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Any, Iterator

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
from .protocol import decode_json, encode_line

log = logging.getLogger(__name__)

MARKER_FLUSH = "flush"
MARKER_DISCONNECT = "disconnect"
EVENT_TS_TAIL = b"%d}\n"  # an event line after its event_prefix: % its ts, the last key

Event = tuple[EventKind, str, int, BayStatus]  # a checked event's kind, lot id, bay id, status
LogItem = tuple[int | None, Event | None, dict[str, Any] | None]  # what a pass yields per line


def event_prefix(
    kind: EventKind, lot_id: str, bay_id: int, status: BayStatus, rejected: bool = False
) -> bytes:
    """An event line up to its ts, keys in sorted order as encode_line writes them.

    Both enums are str enums: encode_basestring_ascii writes a member as its value.
    """
    flag = '"rejected":true,' if rejected else ""
    return (
        f'{{"bayId":{bay_id},"lotId":{encode_basestring_ascii(lot_id)},'
        f'{flag}"src":{encode_basestring_ascii(kind)},'
        f'"status":{encode_basestring_ascii(status)},"ts":'
    ).encode("ascii")


def event_line(kind: EventKind, ts: int, lot_id: str, bay_id: int, status: BayStatus,
               rejected: bool = False) -> bytes:
    return event_prefix(kind, lot_id, bay_id, status, rejected) + EVENT_TS_TAIL % ts


def reseed_lines(table: dict[int, BayState], boundary: int) -> bytes:
    """A window's re-seed block: event_line of each bay's snapshot at the boundary,
    in bay order, with the parts every line shares encoded once."""
    src = f',"src":{encode_basestring_ascii(EventKind.SNAPSHOT)},"status":'
    ts = f',"ts":{boundary}}}\n'
    return "".join([
        f'{{"bayId":{bay_id},"lotId":{encode_basestring_ascii(state.lot_id)}{src}'
        f'{encode_basestring_ascii(state.status)}{ts}'
        for bay_id, state in sorted(table.items())
    ]).encode("ascii")


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


def event_fields(record: dict[str, Any]) -> Event | None:
    """An event's checked (kind, lot id, bay id, status), None for a marker or rejected
    event; ValueError unless an integer bayId, a string lotId, a known src and status."""
    if record.get("marker") is not None or record.get("rejected"):
        return None
    lot_id = record.get("lotId")
    bay_id = record.get("bayId")
    if (type(bay_id) is not int or type(lot_id) is not str
            or "status" not in record or "src" not in record):
        raise InvariantViolationError(
            f"log event needs an integer bayId, a string lotId, a status and a src, "
            f"got {record!r}"
        )
    return event_kind(record["src"]), lot_id, bay_id, bay_status(record["status"])


def apply_record(
    table: dict[int, BayState],
    record: dict[str, Any],
    warnings: Counter[str] | None = None,
    ts: int | None = None,
) -> tuple[EventKind, str] | None:
    """Fold one log record into the table; returns (kind, lot id) of an applied event.

    Every record needs a valid ts, checked here unless passed as record_ts
    returned it. A disconnect marker invalidates every bay; flush markers and
    rejected events leave the table as it is. A record that breaks a rule of
    event_fields or apply_event raises and leaves the table as it is.
    ``warnings`` counts apply_event's warnings by kind.
    """
    ts = record_ts(record) if ts is None else ts
    event = event_fields(record)
    if event is None:
        if record.get("marker") == MARKER_DISCONNECT:
            invalidate_statuses(table, ts)
        return None
    kind, lot_id, bay_id, status = event
    apply_event(table, kind, ts, lot_id, bay_id, status, warnings)
    return kind, lot_id


_SCAN_BLOCK = 1 << 16  # bytes read per step of the backward newline scan
MAX_TEMPLATES = 1024  # heads whose checked event one pass keeps
MAX_TEMPLATE_LINE = 256  # bytes: a longer line is decoded, never kept
_TS_TAIL = re.compile(rb"(0|[1-9][0-9]{0,18})\}\n")  # a ts in canonical digits, the last key


def _last_line_end(fh: IO[bytes], end: int) -> int:
    """Offset just past the last newline before ``end``, 0 if there is none.

    Reads the last byte, then backward in fixed-size blocks, so a long
    torn line costs one block of memory, not the whole file.
    """
    pos, size = end, 1
    while pos > 0:
        start = max(0, pos - size)
        fh.seek(start)
        newline = fh.read(pos - start).rfind(b"\n")
        if newline >= 0:
            return start + newline + 1
        pos, size = start, _SCAN_BLOCK
    return 0


def _cut_torn_tail(fh: IO[bytes], path: Path) -> None:
    end = fh.seek(0, os.SEEK_END)
    keep = _last_line_end(fh, end)
    if keep == end:
        return
    fh.truncate(keep)
    fh.seek(keep)
    log.warning("%s: cut torn final line (%d bytes)", path, end - keep)


class EventLogWriter:
    """Appends encoded lines, each handed to the kernel as it is appended.

    The caller encodes; each line, or each of the lines appended at
    once, must end with a newline. The file is unbuffered, so an append is
    one write call, repeated only for the rest of a short write. Opening the
    file cuts a torn final line back to the last newline.
    """

    def __init__(self, path: str | Path, *, fsync: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._fh = open(self.path, "a+b", buffering=0)
        _cut_torn_tail(self._fh, self.path)

    def append(self, line: bytes) -> None:
        written = self._fh.write(line)
        while written < len(line):
            written += self._fh.write(line[written:])
        if self._fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class LogRecords:
    """One pass over a log's decodable lines as LogItems, read line by line as iterated.

    A torn final line is dropped and undecodable lines (nested past the
    recursion limit included) are skipped; ``skipped`` counts both as read
    so far, the torn tail as the pass opens the file. The pass ends at the
    last newline, so it never reads the torn tail. Between records,
    ``consume`` steps past whole lines the caller already knows, by their
    bytes, without decoding them. The file is opened by the first step of
    the pass and closed at its end, by ``close()`` or a ``with`` block, or
    when a pass dropped part-way is collected.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.skipped = 0
        self._fh: IO[bytes] | None = None  # set as the pass opens the file
        self._pos = 0  # offset of the pass's next line, counted, not asked of the file
        self._consumed_lines = 0
        self._records = self._read()

    def __iter__(self) -> Iterator[LogItem]:
        return self._records

    def __enter__(self) -> LogRecords:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        self._records.close()

    def consume(self, block: bytes) -> bool:
        """Step past ``block``, whole lines, if the file's next bytes are exactly
        it; True if it did. Otherwise the pass goes on from where it was."""
        fh = self._fh
        if fh is None or fh.closed:
            return False
        if fh.read(len(block)) == block:
            self._pos += len(block)
            self._consumed_lines += block.count(b"\n")
            return True
        fh.seek(self._pos)
        return False

    def _read(self) -> Iterator[LogItem]:
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return
        with fh:
            self._fh = fh
            end = fh.seek(0, os.SEEK_END)
            keep = _last_line_end(fh, end)
            if keep < end:
                self.skipped += 1
                log.warning("%s: discarding torn final line (%d bytes)", self.path, end - keep)
            fh.seek(0)
            readline, lineno = fh.readline, 0
            templates: dict[bytes, Event] = {}  # head -> its checked event; see the module
            while self._pos < keep:
                line = readline()
                if not line:
                    break  # the file shrank during the pass
                self._pos += len(line)
                lineno += 1
                if len(line) == 1:
                    continue
                head, _, tail = line.rpartition(b'"ts":')
                event = templates.get(head)
                if event is not None and (ts := _TS_TAIL.fullmatch(tail)):
                    yield int(ts[1]), event, None
                    continue
                try:
                    record = decode_json(line[:-1].decode("utf-8"))
                    if not isinstance(record, dict):
                        raise ValueError("log line is not an object")
                except (ValueError, RecursionError) as exc:
                    self.skipped += 1
                    log.warning("%s:%d: skipping undecodable line: %s",
                                self.path, lineno + self._consumed_lines, exc)
                    continue
                if (len(line) <= MAX_TEMPLATE_LINE and len(templates) < MAX_TEMPLATES
                        and next(reversed(record), None) == "ts"
                        and not any(type(v) is dict or type(v) is list for v in record.values())
                        and encode_line(record) == line):
                    with suppress(ValueError):  # a head that fails is not kept
                        if (event := event_fields(record)) is not None:
                            templates[head] = event
                yield None, None, record


def read_records(path: str | Path) -> LogRecords:
    """The log's decodable records, one pass; see LogRecords."""
    return LogRecords(Path(path))
