"""Simulated sensor fleet and gateway service.

Per-bay occupancy is an alternating on/off process with exponential
holding times, fully determined by the seed. The gateway serves the
protocol surface the edge agent speaks: a full snapshot on handshake,
a push per status change, and pong echoes. Fault injection (session
drops, duplicated updates, muted pongs) is config-gated and off by default.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heapreplace
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator, NamedTuple

from . import protocol
from .clock import PRIORITY_FAULT, PRIORITY_TRACE, RealScheduler, VirtualScheduler
from .occupancy import BayStatus, InvariantViolationError
from .rng import Generator

log = logging.getLogger(__name__)

DEFAULT_BAY_COUNT = 22


@dataclass(frozen=True)
class SensorModel:
    """On/off dwell-time model for one fleet of bay sensors."""

    mean_occupied_min: float
    mean_free_min: float
    seed: int

    def __post_init__(self) -> None:
        if not (self.mean_occupied_min > 0 and self.mean_free_min > 0):  # NaN too
            raise ValueError("dwell-time means must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit an unsigned 64-bit integer")

    @property
    def occupied_fraction(self) -> float:
        """Long-run fraction of time a bay spends occupied."""
        return self.mean_occupied_min / (self.mean_occupied_min + self.mean_free_min)


@dataclass(frozen=True)
class FaultPlan:
    """Optional misbehaviors; every field defaults to 'off'."""

    disconnects: tuple[tuple[int, int], ...] = ()  # (at_ms, duration_ms), relative
    duplicate_updates: bool = False
    mute_pongs_after: int | None = None


@dataclass(frozen=True)
class GatewayConfig:
    listen_address: str
    lot_id: str
    bay_count: int = DEFAULT_BAY_COUNT
    model: SensorModel = field(default_factory=lambda: SensorModel(450.0, 990.0, 0))
    faults: FaultPlan = field(default_factory=FaultPlan)

    def __post_init__(self) -> None:
        if not protocol.is_lot_id(self.lot_id):
            raise ValueError(protocol.LOT_ID_RULE)
        if self.bay_count < 0:
            raise ValueError("bay count must be non-negative")


class TraceItem(NamedTuple):
    sim_ts: int  # milliseconds since the run start
    bay_id: int
    new_status: BayStatus


@dataclass(frozen=True)
class SimTrace:
    """A scripted run: initial statuses plus every status change, in time order.

    A generated trace draws each item as it is taken, a read trace reads
    it, so the items of either can be iterated once.
    """

    lot_id: str
    bay_count: int
    duration_ms: int
    initial: dict[int, BayStatus]
    items: Iterable[TraceItem]


def generate_trace(config: GatewayConfig, duration_ms: int) -> SimTrace:
    """Seeded per-bay alternating occupied/free trace, merged by time.

    Initial status is drawn with the long-run occupied fraction; dwell
    times are exponential with the configured means. Identical config and
    duration always produce the identical trace. The arguments are checked
    and the initial statuses drawn now. The items come off one heap that
    holds each bay's next change, in (sim_ts, bay_id) order, and a bay draws
    its next change when its last one is taken: one change per bay ahead.
    """
    # Bay b draws from child b - 1 of the seed (rng.Generator), so a bay's
    # draws do not depend on how many bays there are.
    if duration_ms <= 0:
        raise ValueError("duration must be positive")
    model = config.model
    mean_ms = {
        BayStatus.OCCUPIED: model.mean_occupied_min * 60_000.0,
        BayStatus.FREE: model.mean_free_min * 60_000.0,
    }
    flipped = {BayStatus.OCCUPIED: BayStatus.FREE, BayStatus.FREE: BayStatus.OCCUPIED}
    initial: dict[int, BayStatus] = {}
    # An entry is (sim_ts, bay_id, status, t, rng): a bay's next change, or at
    # sim_ts -1 its initial status, which is not an item. (sim_ts, bay_id) is
    # unique, so the heap never compares two statuses.
    heap: list[tuple[int, int, BayStatus, float, Generator]] = []
    for bay_id in range(1, config.bay_count + 1):
        rng = Generator(model.seed, bay_id - 1)
        occupied = rng.random() < model.occupied_fraction
        initial[bay_id] = status = BayStatus.OCCUPIED if occupied else BayStatus.FREE
        heap.append((-1, bay_id, status, 0.0, rng))  # in bay order, so already a heap

    def changes() -> Iterator[TraceItem]:
        while heap:
            ts, bay_id, status, t, rng = heap[0]
            if ts >= 0:
                yield TraceItem(ts, bay_id, status)
            t += rng.exponential(mean_ms[status])
            next_ts = max(int(t), ts + 1)  # keep per-bay timestamps strictly increasing
            if next_ts >= duration_ms:  # t >= duration_ms too, as duration_ms is whole
                heappop(heap)
            else:
                heapreplace(heap, (next_ts, bay_id, flipped[status], t, rng))

    return SimTrace(config.lot_id, config.bay_count, duration_ms, initial, changes())


# ---------------------------------------------------------------------------
# Trace persistence (harness artifact and scripted scenarios)


# One line of a trace block: write_trace's item row with at most 18 digits per
# number, as (row, bayId, simTs, status, b""), or any other line, as
# (b"", b"", b"", b"", line). A line ends at "\n", "\r\n" or "\r", as in text mode.
_ROWS = re.compile(rb'(\{"bayId":([1-9][0-9]{0,17}),"kind":"item","simTs":(0|[1-9][0-9]{0,17}),'
                   rb'"status":"(occupied|free)"\})\n|([^\r\n]*)(?:\r\n?|\n)')
TRACE_BLOCK = 4096  # bytes one read of a trace file takes at a time
MAX_TRACE_BAYS = 4096  # (bay, status) pairs whose parse_bay one read of a trace keeps


def write_trace(trace: SimTrace, fh: BinaryIO) -> Iterator[TraceItem]:
    """Write the trace's meta and initial rows to fh now, and return its
    items: each item's row is written to fh as the item is taken, so
    draining the items writes the rest of the trace."""
    meta = {
        "kind": "meta",
        "lotId": trace.lot_id,
        "bayCount": trace.bay_count,
        "durationMs": trace.duration_ms,
    }
    fh.write(protocol.encode_line(meta))
    initial = {
        "kind": "initial",
        "statuses": {str(b): s.value for b, s in sorted(trace.initial.items())},
    }
    fh.write(protocol.encode_line(initial))

    def written(item: TraceItem) -> TraceItem:
        # The bytes encode_line writes for
        # {"kind": "item", "simTs": ..., "bayId": ..., "status": ...}.
        fh.write(
            f'{{"bayId":{item.bay_id},"kind":"item","simTs":{item.sim_ts},'
            f'"status":{encode_basestring_ascii(item.new_status)}}}\n'.encode("ascii")
        )
        return item

    return map(written, trace.items)


def read_trace(path: str | Path) -> SimTrace:
    """Read trace.jsonl or a scenario's script: '#' lines are comments, a
    row with no kind is an item, and the meta and initial rows come before
    the first item. Lines are UTF-8 and end as in text mode, at LF, CRLF or
    a lone CR. Those rows are read now; the items are read as they are
    taken, in file order. InvariantViolationError names the line of any row
    it refuses: a line that is not UTF-8, a comment too, and a meta or
    initial row after the first item."""
    lot_id, bay_count, duration_ms = "lot", 0, 0
    initial: dict[int, BayStatus] = {}
    rows = _trace_rows(path)
    for row in rows:
        if type(row) is TraceItem:
            items: Iterable[TraceItem] = chain((row,), rows)
            break
        if type(row) is dict:
            initial = row
        else:
            lot_id, bay_count, duration_ms = row
    else:
        items = ()
    return SimTrace(lot_id, bay_count, duration_ms, initial, items)


def _trace_rows(
    path: str | Path,
) -> Iterator[TraceItem | tuple[str, int, int] | dict[int, BayStatus]]:
    """Each row of a trace file, parsed: an item, a meta row's (lot_id,
    bay_count, duration_ms) or an initial row's statuses.

    One _ROWS scan splits each block of whole lines (_trace_blocks). A
    write_trace item row whose (bay id, status) text an earlier row of the
    read parsed to a bay is that bay at its simTs, built with no decode and
    no Python-level frame. Any other line, a pair's first row included, is
    decoded as strict UTF-8, stripped of JSON whitespace and parsed as a
    row; an error names its line."""
    in_items = False
    bays: dict[tuple[bytes, bytes], tuple[int, BayStatus]] = {}  # parse_bay of a fixed row's text
    new = tuple.__new__
    lineno = 0
    for block in _trace_blocks(path):
        for fixed, bay_text, ts_text, status_text, line in _ROWS.findall(block):
            lineno += 1
            # A kept pair was parsed from an item row, so in_items is already set.
            if fixed and (bay := bays.get((bay_text, status_text))):
                yield new(TraceItem, (int(ts_text),) + bay)
                continue
            try:
                text = (fixed or line).decode("utf-8").strip(protocol.JSON_WHITESPACE)
                if not text or text.startswith("#"):
                    continue
                row = protocol.decode_json(text)
                kind = row.get("kind", "item")
                if kind == "item":
                    sim_ts = row.get("simTs")
                    if not (protocol.is_wire_int(sim_ts) and sim_ts >= 0):
                        raise ValueError("an item needs an integer simTs >= 0")
                    bay = protocol.parse_bay(row.get("bayId"), row.get("status"))
                    parsed: Any = TraceItem(sim_ts, *bay)
                    in_items = True
                elif kind not in ("meta", "initial"):
                    raise ValueError(f"unknown trace line kind {kind!r}")
                elif in_items:
                    raise ValueError(f"a {kind} row must come before the first item")
                elif kind == "meta":
                    lot_id, *counts = parsed = (row["lotId"], row["bayCount"], row["durationMs"])
                    if not (protocol.is_lot_id(lot_id)
                            and all(protocol.is_wire_int(n) and n >= 0 for n in counts)):
                        raise ValueError("a meta row needs a lot id, and integer bayCount "
                                         "and durationMs >= 0")
                else:
                    parsed = dict(protocol.parse_bay(protocol.bay_id_from_text(b), s)
                                  for b, s in row["statuses"].items())
            except (ValueError, LookupError, TypeError, AttributeError, OverflowError) as exc:
                raise InvariantViolationError(f"{path}:{lineno}: {exc}") from exc
            if fixed and len(bays) < MAX_TRACE_BAYS:
                bays[bay_text, status_text] = bay
            yield parsed


def _trace_blocks(path: str | Path) -> Iterator[bytes]:
    """The file's bytes in blocks of whole lines: TRACE_BLOCK bytes are read
    at a time and cut after their last line end, so a line longer than
    TRACE_BLOCK is read whole. A last line with no line end is given one."""
    with open(path, "rb") as fh:
        parts: list[bytes] = []
        while block := fh.read(TRACE_BLOCK):
            # A "\r" that ends the block may be the first half of a "\r\n".
            cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1
            if cut:
                parts.append(block[:cut])
                yield b"".join(parts)
                parts = [block[cut:]]
            else:
                parts.append(block)
        if rest := b"".join(parts):
            yield rest + b"\n"


def scripted_trace(config: GatewayConfig, duration_ms: int, script_path: str | Path) -> SimTrace:
    """A scenario's script read by read_trace and put in time order, under the
    config's lot, bay count and this duration; a bay it gives no status starts free."""
    script = read_trace(script_path)
    initial = {bay_id: BayStatus.FREE for bay_id in range(1, config.bay_count + 1)}
    initial.update(script.initial)
    items = sorted(script.items, key=itemgetter(0, 1))  # (sim_ts, bay_id); file order within a tie
    return SimTrace(config.lot_id, config.bay_count, duration_ms, initial, tuple(items))


# ---------------------------------------------------------------------------
# The serving core


class GatewayCore:
    """Protocol-conformant gateway over any scheduler + network pair.

    One logical writer (the scheduler) advances the trace; sessions share
    only the read-only trace and the live status map maintained by the
    dispatch loop, so every snapshot is exactly consistent with the pushes
    a session subsequently receives. One trace item is pending at a time:
    each dispatch first arms the next, so the queue does not grow with it.
    """

    def __init__(
        self,
        sched: VirtualScheduler | RealScheduler,
        net: Any,
        config: GatewayConfig,
        trace: SimTrace,
    ) -> None:
        self.sched = sched
        self.net = net
        self.config = config
        self.trace = trace
        self.start_ms: int | None = None
        self.refuse_until_ms: int | None = None
        self.current: dict[int, BayStatus] = dict(trace.initial)
        self.sessions: list[Any] = []  # handshaken connections
        self.updates_sent = 0
        self.update_bytes = 0
        self.listener: Any = None
        self._pending: Iterator[TraceItem] = iter(())
        self._update_lines: dict[tuple[int, BayStatus], bytes] = {}

    def start(self) -> None:
        self.start_ms = self.sched.now_ms()
        self.listener = self.net.listen(self.config.listen_address, self._accept)
        # Its producers put the trace in time order, so it is in order of due.
        self._pending = iter(self.trace.items)
        self._arm_next()
        for at_ms, duration_ms in self.config.faults.disconnects:
            self.sched.call_at(
                self.start_ms + at_ms, self._fault_disconnect, duration_ms,
                priority=PRIORITY_FAULT,
            )

    def stop(self) -> None:
        for conn in list(self.sessions):
            conn.close()
        self.sessions.clear()
        if self.listener is not None:
            self.listener.close()

    # -- session handling

    def _offline(self) -> bool:
        return self.refuse_until_ms is not None and self.sched.now_ms() < self.refuse_until_ms

    def _accept(self, conn: Any) -> None:
        if self._offline():
            raise ConnectionRefusedError("gateway offline (injected fault)")
        conn.on_message = partial(self._on_message, conn)
        conn.on_close = partial(self._on_close, conn)

    def _on_close(self, conn: Any) -> None:
        if conn in self.sessions:
            self.sessions.remove(conn)

    def _on_message(self, conn: Any, message: dict[str, Any]) -> None:
        mtype = message.get("type")
        if mtype == "ping":
            seq = message.get("seq")
            if not protocol.is_wire_int(seq):
                self._reject(conn, "ping must carry an integer seq")
                return
            mute_after = self.config.faults.mute_pongs_after
            if mute_after is None or seq <= mute_after:
                try:
                    conn.send(protocol.pong_line(seq))
                except ConnectionError:
                    pass
            return
        if mtype == "hello":
            if self._offline():  # accepted before the outage began: dropped unserved
                conn.close()
                return
            snapshot = protocol.bays_message(
                self.config.lot_id,
                [(bay_id, self.current[bay_id].value) for bay_id in sorted(self.current)],
            )
            try:
                conn.send(protocol.encode_line(snapshot))
            except ConnectionError:
                return
            if conn not in self.sessions:
                self.sessions.append(conn)
            return
        self._reject(conn, f"unknown message type {mtype!r}")

    def _reject(self, conn: Any, reason: str) -> None:
        try:
            conn.send(protocol.encode_line(protocol.error_message(reason)))
        except ConnectionError:
            pass
        conn.close()
        self._on_close(conn)

    # -- trace dispatch and faults

    def _arm_next(self) -> None:
        item = next(self._pending, None)
        if item is not None:
            self.sched.call_at(self.start_ms + item.sim_ts, self._dispatch, item,
                               priority=PRIORITY_TRACE)

    def _dispatch(self, item: TraceItem) -> None:
        self._arm_next()
        self.current[item.bay_id] = item.new_status
        # Encoded once per (bay, status), two per bay: sessions and repeats share the bytes.
        line = self._update_lines.get(key := (item.bay_id, item.new_status))
        if line is None:
            line = self._update_lines[key] = protocol.bays_update_line(self.config.lot_id, *key)
        repeats = 2 if self.config.faults.duplicate_updates else 1
        for conn in list(self.sessions):
            for _ in range(repeats):
                try:
                    self.update_bytes += conn.send(line)
                except ConnectionError:
                    self._on_close(conn)
                    break
                self.updates_sent += 1

    def _fault_disconnect(self, duration_ms: int) -> None:
        now = self.sched.now_ms()
        self.refuse_until_ms = now + duration_ms
        log.info("injected gateway disconnect at %d for %d ms", now, duration_ms)
        for conn in list(self.sessions):
            conn.close()
        self.sessions.clear()
