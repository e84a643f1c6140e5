"""Wire protocol shared by gateway, agent, and hub.

Newline-delimited JSON over a reliable ordered byte stream, UTF-8, one
object per line. Roll-up envelopes use a canonical fixed-width encoding
(space-padded numerics, 4-decimal rates) so their byte size depends only
on bay count, window count, and field widths, never on event counts.

Byte-identity rule: every other line is the compact, sorted-key,
ASCII-escaped encoding that ``encode_line`` produces. A fixed-field
encoder for a hot line shape (``bays_update_line``, ``ping_line`` and
``pong_line`` here, ``eventlog.event_line`` and ``eventlog.reseed_lines``,
the item rows of ``gateway.write_trace``, the hub's ``store_row_line``)
must write exactly the bytes ``encode_line`` writes for the same dict:
keys in sorted order, ``,``/``:`` separators, strings through
``encode_basestring_ascii``, integers as ``str(int)``, floats as
``float.__repr__``.
Every message, on sockets and in the simulator alike, crosses the
transport as one encoded line.

Decoding rule: every JSON line edgepark reads (wire messages, event-log
and hub-store records, trace rows, scenario scripts) goes through
``decode_json``. It returns exactly what ``json.loads`` returns for the
same ``str``, value and exception type alike, in one call of the
decoder's scanner instead of ``loads``' three frames and two whitespace
regex matches. A delivered wire message is read-only: the receiving
connection may hand the same decoded dict to every delivery of an equal
'baysUpdate' line (``transport._LineEndpoint``).

Integer fields reject JSON booleans (``is_wire_int``, ``is_bay_id``, or
``type(x) is int`` per roll-up record): Python's bool is an int, and a
``true`` accepted as bay 1 would be written back as ``True``, which is not
JSON. They also reject an integer outside the signed 64-bit range, whose
sums could outgrow the interpreter's int digit limit and fail to print.
``is_bay_id`` is the one bay-id rule, and ``parse_bay`` adds the wire
statuses: wire, trace, script and CSV readers all check a bay with them.
A bay id read from text goes through ``bay_id_from_text`` first.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping, NamedTuple, Sequence

from .occupancy import BayStatus, RollupRecord, bay_status

PROTO_VERSION = 1

WIRE_STATUSES = ("occupied", "free")
STATUS_RULE = f"bay status must be one of {WIRE_STATUSES}"
BAY_ID_RULE = "bay id must be an integer from 1 to 2**63 - 1"
_SERVED = {status: bay_status(status) for status in WIRE_STATUSES}  # parse_bay's statuses


class ProtocolError(ValueError):
    """A wire message is malformed or violates its schema."""


_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
_DECODER = json.JSONDecoder()
JSON_WHITESPACE = " \t\n\r"  # what json.loads skips around a value: str.strip() skips more


def encode_line(message: Mapping[str, Any]) -> bytes:
    return _ENCODER.encode(message).encode("utf-8") + b"\n"


def decode_json(text: str) -> Any:
    """``json.loads(text)``: the same value, or an exception of the same type.

    A JSON text is one value with optional whitespace around it, so the
    text is stripped of that whitespace and must be consumed whole by one
    call of the decoder's scanner, as ``raw_decode`` makes it.
    """
    text = text.strip(JSON_WHITESPACE)
    try:
        value, end = _DECODER.scan_once(text, 0)
    except StopIteration as err:  # what raw_decode raises, without its frame
        raise json.JSONDecodeError("Expecting value", text, err.value) from None
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return value


def decode_line(raw: bytes) -> dict[str, Any]:
    """One wire message; any undecodable line raises ProtocolError.

    Every ValueError of the decode counts: invalid UTF-8, invalid JSON and
    integers longer than the interpreter's int digit limit alike. So does
    the RecursionError of a value nested past the interpreter's limit.
    """
    try:
        message = decode_json(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"line is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise ProtocolError("message must be a JSON object with a string 'type'")
    return message


# ---------------------------------------------------------------------------
# Message constructors


def hello_message(client: str) -> dict[str, Any]:
    return {"type": "hello", "client": client, "proto": PROTO_VERSION}


def bays_message(lot_id: str, statuses: Sequence[tuple[int, str]]) -> dict[str, Any]:
    """Snapshot of one parking lot; data stays a list for schema fidelity."""
    return {
        "type": "bays",
        "data": [
            {
                "lotId": lot_id,
                "bays": [{"id": bay_id, "status": status} for bay_id, status in statuses],
            }
        ],
    }


def bays_update_line(lot_id: str, bay_id: int, status: str) -> bytes:
    """The encoded 'baysUpdate' push; same bytes as encode_line of its dict."""
    return (
        f'{{"bay":{{"id":{bay_id},"status":{encode_basestring_ascii(status)}}},'
        f'"lotId":{encode_basestring_ascii(lot_id)},"type":"baysUpdate"}}\n'
    ).encode("ascii")


def ping_line(seq: int) -> bytes:
    """The encoded liveness 'ping'; same bytes as encode_line of its dict."""
    return b'{"seq":%d,"type":"ping"}\n' % seq


def pong_line(seq: int) -> bytes:
    """The encoded 'pong' reply; same bytes as encode_line of its dict."""
    return b'{"seq":%d,"type":"pong"}\n' % seq


def error_message(reason: str) -> dict[str, Any]:
    return {"type": "error", "reason": reason}


def daily_message(records: Sequence[RollupRecord]) -> dict[str, Any]:
    return {"type": "daily", "records": [
        {"bayId": r.bay_id, "occupationTime": r.occupation_time_sec,
         "occupationRate": r.occupation_rate}
        for r in records
    ]}


def envelope_key(lot_id: str, window_start: int) -> str:
    return f"{lot_id}:{window_start}"


def encode_rollup_envelope(
    lot_id: str,
    window_start: int,
    window_end: int,
    records: Sequence[RollupRecord],
) -> bytes:
    """Canonical fixed-width roll-up upload line.

    Numeric fields are space-padded (legal JSON whitespace) so the byte
    length is a function of bay ids, the window length, and the record
    count only.
    """
    bay_width = max((len(str(r.bay_id)) for r in records), default=1)
    time_width = len(str(max(1, (window_end - window_start) // 1000)))
    record = '{"bayId":%%%dd,"occupationTime":%%%dd,"occupationRate":%%.4f}' % (
        bay_width, time_width
    )
    recs = ",".join([record % (r.bay_id, r.occupation_time_sec, r.occupation_rate) for r in records])
    return (
        '{"type":"rollup","key":"%s","lotId":"%s","windowStart":%d,"windowEnd":%d,'
        '"records":[%s]}\n' % (envelope_key(lot_id, window_start), lot_id, window_start,
                               window_end, recs)
    ).encode("utf-8")


_LOT_ID = re.compile(r"[A-Za-z0-9_.-]+")
LOT_ID_RULE = "lot id must be letters, digits, '_', '.' or '-'"


def is_lot_id(value: Any) -> bool:
    """The one lot-id rule. A lot id names files and goes into envelopes unescaped."""
    return isinstance(value, str) and _LOT_ID.fullmatch(value) is not None


def is_wire_int(value: Any) -> bool:
    """True for a JSON integer in the signed 64-bit range; a JSON true is not one."""
    return type(value) is int and -2**63 <= value < 2**63


def is_bay_id(value: Any) -> bool:
    """The one bay-id rule: a positive integer within is_wire_int's range."""
    return type(value) is int and 1 <= value < 2**63


def bay_id_from_text(text: str) -> int | None:
    """The bay id in a trace initial row's key or a CSV bay column, or None:
    only the text str() writes for a bay id reads back, not "01", " 2" or "1_0"."""
    try:
        bay_id = int(text)
    except ValueError:
        return None
    return bay_id if is_bay_id(bay_id) and str(bay_id) == text else None


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise ProtocolError(reason)


def parse_bay(bay_id: Any, status: Any) -> tuple[int, BayStatus]:
    """A bay the gateway may serve; ProtocolError names the rule it breaks."""
    _require(is_bay_id(bay_id), BAY_ID_RULE)
    try:
        return bay_id, _SERVED[status]
    except (KeyError, TypeError):  # TypeError: an unhashable status
        raise ProtocolError(STATUS_RULE) from None


def parse_wire_records(raw_records: Any, window_sec: int) -> list[RollupRecord]:
    """The records of a roll-up upload; ProtocolError names the first rule broken.

    An integer rate is compared as an integer: one too large for a float
    is refused like any other rate outside [0, 1].
    """
    if not isinstance(raw_records, list):
        raise ProtocolError("records must be a list")
    records: list[RollupRecord] = []
    last_bay = 0
    for raw in raw_records:
        if not isinstance(raw, dict):
            raise ProtocolError("record must be an object")
        bay_id = raw.get("bayId")
        sec = raw.get("occupationTime")
        rate = raw.get("occupationRate")
        if not is_bay_id(bay_id):
            raise ProtocolError("bayId must be a positive integer")
        if type(sec) is not int or sec < 0:
            raise ProtocolError("occupationTime must be a non-negative integer")
        if sec > window_sec:
            raise ProtocolError(f"occupationTime {sec} exceeds window {window_sec} s")
        if (type(rate) is not float and type(rate) is not int) or not 0 <= rate <= 1:
            raise ProtocolError("occupationRate must be within [0, 1]")
        if bay_id <= last_bay:
            raise ProtocolError("records must be sorted by ascending bayId")
        last_bay = bay_id
        records.append(RollupRecord(bay_id, sec, float(rate)))
    return records


class RollupEnvelope(NamedTuple):
    """A validated roll-up upload: what the hub stores, queries and reports."""

    key: str
    lot_id: str
    window_start: int
    window_end: int
    records: tuple[RollupRecord, ...]


def parse_rollup_envelope(message: Mapping[str, Any]) -> RollupEnvelope:
    """Validate a rollup upload; returns its normalized fields.

    Raises ProtocolError on any schema violation. The caller dispatches on
    the type: a stored hub row has none.
    """
    lot_id = message.get("lotId")
    ws = message.get("windowStart")
    we = message.get("windowEnd")
    key = message.get("key")
    _require(is_lot_id(lot_id), LOT_ID_RULE)
    _require(is_wire_int(ws) and is_wire_int(we), "window bounds must be integers")
    _require(we > ws, "windowEnd must exceed windowStart")
    _require(key == envelope_key(lot_id, ws), "key must be '<lotId>:<windowStart>'")
    records = parse_wire_records(message.get("records"), (we - ws) // 1000)
    return RollupEnvelope(key, lot_id, ws, we, tuple(records))


def parse_bays_snapshot(message: Mapping[str, Any]) -> list[tuple[str, int, BayStatus]]:
    """Flatten a 'bays' snapshot of one lot into (lot_id, bay_id, status) triples."""
    _require(message.get("type") == "bays", "type must be 'bays'")
    data = message.get("data")
    _require(isinstance(data, list), "data must be a list of parking lots")
    triples: list[tuple[str, int, BayStatus]] = []
    for lot in data:
        _require(isinstance(lot, dict), "parking lot entry must be an object")
        lot_id = lot.get("lotId")
        bays = lot.get("bays")
        _require(is_lot_id(lot_id), LOT_ID_RULE)
        _require(lot_id == data[0]["lotId"], "a snapshot must name one lot")
        _require(isinstance(bays, list), "bays must be a list")
        for bay in bays:
            _require(isinstance(bay, dict), "bay entry must be an object")
            triples.append((lot_id, *parse_bay(bay.get("id"), bay.get("status"))))
    return triples


def parse_bays_update(message: Mapping[str, Any]) -> tuple[str, int, BayStatus]:
    _require(message.get("type") == "baysUpdate", "type must be 'baysUpdate'")
    lot_id = message.get("lotId")
    bay = message.get("bay")
    _require(is_lot_id(lot_id), LOT_ID_RULE)
    _require(isinstance(bay, dict), "bay must be an object")
    return (lot_id, *parse_bay(bay.get("id"), bay.get("status")))
