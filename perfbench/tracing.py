"""Span tracing for the traced benchmark run, installed from outside edgepark.

The public functions and the few methods that carry each edgepark
layer's work (PATCHES) are replaced by wrappers that record a span: name,
start, end and parent. Spans stay in flat in-memory arrays while the run
executes and are written out once at the end. A span's self time is its
duration minus the durations of its direct children; the per-layer
metrics sum self times by span name, so no interval is counted twice.

Callbacks run by ``VirtualScheduler`` get a span of their own, named by
the callback's module and qualname, except message deliveries, which are
named after the receiving connection's label (the component it serves).
Names that other modules import directly (``from .occupancy import
apply_event``) are patched in every namespace that holds them, or the
calls made through those names would go untimed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

# VirtualConn labels -> the component whose handler runs on delivery.
DELIVERY_SPANS = {
    "client->sim://gateway": "agent.ingest",
    "client->sim://hub": "agent.ack",
    "server@sim://gateway": "gateway.serve",
    "server@sim://hub": "hub.handle",
}

# (defining module, qualname, span name, {importing module: span name}).
# The override names the same function by the caller's role: write_csv
# from the agent writes live CSVs, from the harness it writes replay CSVs.
PATCHES: tuple[tuple[str, str, str, dict[str, str]], ...] = (
    ("gateway", "generate_trace", "gateway.trace_gen", {}),
    ("gateway", "write_trace", "gateway.trace_write", {}),
    ("gateway", "read_trace", "harness.read_trace", {}),
    ("gateway", "GatewayCore.start", "gateway.start", {}),
    ("clock", "VirtualScheduler.run_until", "clock.run", {}),
    ("transport", "VirtualConn.send", "transport.send", {}),
    ("transport", "VirtualConn.send_raw", "transport.send", {}),
    ("transport", "VirtualConn.close", "transport.close", {}),
    ("transport", "VirtualNetwork.connect", "transport.connect", {}),
    ("protocol", "encode_line", "protocol.encode", {}),
    ("protocol", "decode_line", "protocol.decode", {}),
    ("protocol", "parse_bays_update", "protocol.parse_update", {}),
    ("protocol", "parse_bays_snapshot", "protocol.parse_snapshot", {}),
    ("protocol", "encode_rollup_envelope", "protocol.envelope_encode", {}),
    ("protocol", "parse_rollup_envelope", "protocol.envelope_parse", {}),
    ("eventlog", "EventLogWriter.append", "eventlog.append", {}),
    ("eventlog", "read_records", "eventlog.read", {}),
    ("occupancy", "apply_event", "occupancy.apply", {}),
    ("occupancy", "rollup", "occupancy.rollup", {}),
    ("occupancy", "update_occupation_time", "occupancy.flush", {}),
    ("occupancy", "invalidate_statuses", "occupancy.flush", {}),
    ("agent", "EdgeAgentCore.start", "agent.start", {}),
    ("agent", "write_csv", "agent.csv_write", {"harness": "harness.replay_csv"}),
    ("agent", "read_csv_records", "agent.csv_read", {"harness": "harness.csv_read"}),
    ("hub", "RollupStore.__init__", "hub.load", {}),
    ("hub", "RollupStore.receive", "hub.store_append", {}),
    ("oracle", "oracle_occupancy", "oracle", {}),
    ("harness", "trace_to_events", "harness.trace_to_events", {}),
    ("harness", "replay_log", "harness.replay", {}),
    ("harness", "build_report_markdown", "harness.report", {}),
)

PHASES = ("sim", "verify", "replay")

# Per-layer time metrics: the self time of these spans, summed over the
# traced repetition (sim, verify and replay). The sets are disjoint. The
# units and directions of all per-layer metrics are in BENCHMARK.json.
TIME_METRICS: dict[str, tuple[str, ...]] = {
    "gateway.trace_gen_s": ("gateway.trace_gen",),
    "gateway.trace_write_s": ("gateway.trace_write",),
    "gateway.dispatch_s": ("gateway.dispatch",),
    "gateway.serve_s": ("gateway.start", "gateway.serve", "gateway.fault_disconnect"),
    "clock.self_s": ("clock.push", "clock.run"),
    "transport.send_s": ("transport.send",),
    "protocol.encode_s": ("protocol.encode",),
    "protocol.decode_s": ("protocol.decode",),
    "protocol.parse_update_s": ("protocol.parse_update",),
    "protocol.envelope_encode_s": ("protocol.envelope_encode",),
    "protocol.envelope_parse_s": ("protocol.envelope_parse",),
    "eventlog.append_s": ("eventlog.append",),
    "eventlog.read_s": ("eventlog.read",),
    "occupancy.apply_s": ("occupancy.apply",),
    "occupancy.rollup_s": ("occupancy.rollup", "occupancy.flush"),
    "agent.ingest_s": ("agent.ingest",),
    "agent.rollup_s": ("agent.on_boundary",),
    "agent.csv_write_s": ("agent.csv_write",),
    "agent.recover_s": ("agent.start", "agent.csv_read"),
    "agent.session_s": (
        "agent.connect", "agent.handshake_timeout", "agent.ping_tick", "agent.ack",
        "agent.pump_uploads", "agent.on_ack_timeout",
    ),
    "hub.handle_s": ("hub.handle",),
    "hub.store_append_s": ("hub.store_append",),
    "hub.load_s": ("hub.load",),
    "oracle.s": ("oracle",),
    "harness.read_trace_s": ("harness.read_trace",),
    "harness.trace_to_events_s": ("harness.trace_to_events",),
    "harness.replay_fold_s": ("harness.replay",),
    "harness.replay_csv_s": ("harness.replay_csv",),
    "harness.verify_compare_s": ("verify", "harness.csv_read"),
    "harness.report_s": ("harness.report",),
}

class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patched: list[tuple[Any, str, Any]] = []
        self._callback_ids: dict[tuple[Any, str | None], int] = {}
        # Counts that only a wrapped call's arguments or result reveal.
        self._extras: dict[str, Callable[[tuple, Any], None]] = {
            "transport.send": self._count_sent,
            "hub.store_append": self._count_store,
            "occupancy.rollup": self._count_records,
            "oracle": self._count_visits,
        }
        self.reset()

    def reset(self) -> None:
        self.name_ids = array("I")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.sent_bytes = 0
        self.store_duplicates = 0
        self.rollup_records = 0
        self.oracle_event_visits = 0
        # One (handle, ran) pair per scheduled callback.
        self.scheduled: list[tuple[Any, list[bool]]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- span recording (the hot path)

    def enter(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def leave(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.enter(self.name_id(name))
        try:
            yield
        finally:
            self.leave(idx)

    def _wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        nid = self.name_id(name)
        enter, leave = self.enter, self.leave
        extra = self._extras.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(idx)
            if extra is not None:
                extra(args, result)
            return result

        return traced

    # -- counts recorded from arguments and results

    def _count_sent(self, args: tuple, result: int) -> None:
        self.sent_bytes += result

    def _count_store(self, args: tuple, result: bool) -> None:
        if not result:
            self.store_duplicates += 1

    def _count_records(self, args: tuple, result: tuple) -> None:
        self.rollup_records += len(result[0])

    def _count_visits(self, args: tuple, result: dict) -> None:
        self.oracle_event_visits += len(args[0])

    # -- scheduler callbacks

    def _callback_id(self, fn: Any) -> int:
        owner = getattr(fn, "__self__", None)
        func = getattr(fn, "__func__", fn)
        label = getattr(owner, "label", None) if func.__name__.startswith("_deliver") else None
        key = (func, label)
        nid = self._callback_ids.get(key)
        if nid is None:
            if label is not None:
                name = DELIVERY_SPANS.get(label, "transport.deliver")
            else:
                layer = func.__module__.rpartition(".")[2]
                name = f"{layer}.{func.__name__.lstrip('_')}"
            nid = self._callback_ids[key] = self.name_id(name)
        return nid

    def _run_callback(self, nid: int, ran: list[bool], fn: Any, *args: Any) -> None:
        ran[0] = True
        idx = self.enter(nid)
        try:
            fn(*args)
        finally:
            self.leave(idx)

    def _wrap_call_at(self, call_at: Callable[..., Any]) -> Callable[..., Any]:
        nid = self.name_id("clock.push")
        enter, leave, run_callback = self.enter, self.leave, self._run_callback
        callback_id = self._callback_id

        @functools.wraps(call_at)
        def traced(sched: Any, due_ms: int, fn: Any, *args: Any, **kwargs: Any) -> Any:
            idx = enter(nid)
            try:
                ran = [False]
                handle = call_at(sched, due_ms, run_callback, callback_id(fn), ran, fn, *args, **kwargs)
            finally:
                leave(idx)
            self.scheduled.append((handle, ran))
            return handle

        return traced

    # -- installing and removing the patches

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        from edgepark import clock

        modules = {
            name.rpartition(".")[2]: module
            for name, module in sys.modules.items()
            if name == "edgepark" or name.startswith("edgepark.")
        }
        self._set(clock.VirtualScheduler, "call_at",
                  self._wrap_call_at(clock.VirtualScheduler.__dict__["call_at"]))
        for module_name, qualname, span, overrides in PATCHES:
            owner: Any = modules[module_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if path:
                self._set(owner, attr, self._wrap(original, span))
                continue
            # A module-level function: patch every edgepark namespace that
            # holds this very object, under the importing module's name.
            for holder_name, holder in modules.items():
                if holder.__dict__.get(attr) is original:
                    name = overrides.get(holder_name, span)
                    self._set(holder, attr, self._wrap(original, name))

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator[None]:
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- analysis

    def analyse(self) -> dict[str, Any]:
        """Self time, inclusive time and count per span name, per phase."""
        n = len(self.starts)
        names = np.frombuffer(self.name_ids, dtype=np.uint32) if n else np.zeros(0, np.uint32)
        parents = np.frombuffer(self.parents, dtype=np.int32) if n else np.zeros(0, np.int32)
        starts = np.frombuffer(self.starts, dtype=np.float64) if n else np.zeros(0)
        ends = np.frombuffer(self.ends, dtype=np.float64) if n else np.zeros(0)
        duration = ends - starts
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=duration[has_parent], minlength=n)
        self_time = duration - child_time
        # Parents precede children, so pointer jumping finds each top span.
        root = np.where(has_parent, parents, np.arange(n, dtype=np.int32))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        k = len(self.names)
        table: dict[str, dict[str, dict[str, float]]] = {}
        for phase in PHASES + ("all",):
            if phase == "all":
                mask = np.ones(n, dtype=bool)
            else:
                mask = names[root] == self._ids.get(phase, -1)
            counts = np.bincount(names[mask], minlength=k)
            selfs = np.bincount(names[mask], weights=self_time[mask], minlength=k)
            totals = np.bincount(names[mask], weights=duration[mask], minlength=k)
            table[phase] = {
                self.names[i]: {"count": int(counts[i]), "self_s": float(selfs[i]),
                                "total_s": float(totals[i])}
                for i in range(k) if counts[i]
            }
        return table

    def write_spans(self, path: Path) -> None:
        """The recorded spans, as one .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.uint32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
        )


def per_layer_metrics(
    tracer: Tracer,
    *,
    events: int,
    updates_sent: int,
    upload_sends: int,
    log_bytes: int,
    traced_sim_s: float,
    untraced_sim_s: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced repetition."""
    table = tracer.analyse()
    spans = table["all"]

    def count(name: str) -> int:
        return int(spans.get(name, {}).get("count", 0))

    metrics: dict[str, float] = {
        metric: sum(spans.get(n, {}).get("self_s", 0.0) for n in names)
        for metric, names in TIME_METRICS.items()
    }
    pushes = len(tracer.scheduled)
    ran = sum(1 for _handle, flag in tracer.scheduled if flag[0])
    cancelled = sum(1 for handle, flag in tracer.scheduled if handle.cancelled and not flag[0])
    receives = count("hub.store_append")
    stored = receives - tracer.store_duplicates
    sim_spans = table["sim"]
    covered = sum(
        sim_spans.get(n, {}).get("self_s", 0.0) for names in TIME_METRICS.values() for n in names
    )
    metrics.update({
        "gateway.updates_sent": updates_sent,
        "clock.callbacks": ran,
        "clock.heap_pushes": pushes,
        "clock.cancelled_share": cancelled / pushes if pushes else 0.0,
        "transport.sends": count("transport.send"),
        "transport.bytes": tracer.sent_bytes,
        "protocol.encodes": count("protocol.encode"),
        "protocol.encodes_per_event": count("protocol.encode") / events if events else 0.0,
        "eventlog.appends": count("eventlog.append"),
        "eventlog.lines_per_event": count("eventlog.append") / events if events else 0.0,
        "eventlog.bytes": log_bytes,
        "occupancy.apply_calls": count("occupancy.apply"),
        "occupancy.rollup_records": tracer.rollup_records,
        "agent.upload_sends": upload_sends,
        "agent.upload_useful_share": stored / upload_sends if upload_sends else 0.0,
        "hub.receives": receives,
        "hub.duplicate_share": tracer.store_duplicates / receives if receives else 0.0,
        "oracle.calls": count("oracle"),
        "oracle.event_visits": tracer.oracle_event_visits,
        "trace.sim_s": traced_sim_s,
        "trace.untraced_sim_s": untraced_sim_s,
        "trace.overhead_s": traced_sim_s - untraced_sim_s,
        "trace.sim_uncovered_share": (traced_sim_s - covered) / traced_sim_s,
    })
    return metrics


def dump_table(table: dict[str, Any], path: Path) -> None:
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
