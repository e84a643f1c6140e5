"""Deterministic scenario orchestration and verification.

run_sim wires the gateway simulator, edge agent, and cloud hub together
in-process under one virtual scheduler: a multi-day scenario executes in
milliseconds and two runs of the same scenario produce byte-identical
CSVs, hub store contents, and traffic ledgers. verify replays the run's
artifacts against the brute-force oracle; replay regenerates CSVs from an
event log alone; the traffic ledger quantifies aggregated uploads against
hypothetical per-event forwarding.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import astuple, dataclass, fields, replace
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from . import eventlog, protocol
from .agent import (
    UNKNOWN_LOT,
    AgentConfig,
    BackoffPolicy,
    EdgeAgentCore,
    csv_bytes,
    csv_filename,
    midnight_utc,
    read_csv_records,
    window_floor,
    window_stamp,
    write_csv,
)
from .clock import PRIORITY_FAULT, VirtualScheduler
from .gateway import (
    FaultPlan,
    GatewayConfig,
    GatewayCore,
    SensorModel,
    SimTrace,
    generate_trace,
    read_trace,
    scripted_trace,
    write_trace,
)
from .hub import HubCore, RollupStore, fleet_average_hours, per_bay_extremes
from .occupancy import (
    MS_PER_DAY,
    BayStatus,
    EventKind,
    RollupRecord,
    RollupWindow,
    apply_event,
    rollup,
    update_occupation_time,
)
from .oracle import oracle_windows
from .transport import VirtualNetwork

log = logging.getLogger(__name__)

GATEWAY_ADDRESS = "sim://gateway"
HUB_ADDRESS = "sim://hub"


class ScenarioError(ValueError):
    """The scenario file is malformed or internally inconsistent."""


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    seed: int = 0
    lot_id: str = "LOT-A"
    bays: int = 22
    mean_occupied_min: float = 450.0
    mean_free_min: float = 990.0
    days: int = 1
    start_ms: int = 1_542_585_600_000  # 2018-11-19T00:00:00Z; the 'start' key
    poll_interval_sec: int = 60
    rollup_period_sec: int = 86_400
    backoff_initial_ms: int = 1000
    backoff_multiplier: float = 2.0
    backoff_cap_ms: int = 30_000
    ack_timeout_ms: int = 5000
    upload_grace_sec: int = 120
    script: Path | None = None
    inject_gateway_disconnect_at_sec: int | None = None
    inject_gateway_disconnect_duration_sec: int | None = None
    inject_agent_kill_at_sec: int | None = None
    inject_drop_acks: int = 0
    inject_duplicate_updates: bool = False

    @property
    def duration_ms(self) -> int:
        return self.days * MS_PER_DAY

    @property
    def period_ms(self) -> int:
        return self.rollup_period_sec * 1000

    @property
    def end_ms(self) -> int:
        return self.start_ms + self.duration_ms

    @property
    def window_epoch_ms(self) -> int:
        return midnight_utc(self.start_ms)


def _datetime_ms(ms: int, what: str) -> int:
    """ms, if a datetime can hold it."""
    try:
        datetime.fromtimestamp(ms / 1000, tz=timezone.utc)
    except (ValueError, OverflowError, OSError) as exc:
        raise ScenarioError(f"{what} {ms} ms is not a datetime: {exc}") from exc
    return ms


def _parse_start(value: str) -> int:
    """Epoch milliseconds or an ISO 8601 time (UTC unless it says otherwise)."""
    value = value.strip()
    if value.lstrip("-").isdigit():
        return _datetime_ms(int(value), "start")
    try:
        dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ScenarioError(f"bad start time {value!r}: {exc}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp() * 1000)


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ScenarioError(f"bad boolean {value!r}")


# Each file key is a ScenarioConfig field, read by the parser of its type;
# 'start' is read by _parse_start into start_ms.
_TYPE_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool, "Path": Path}
_SCENARIO_KEYS: dict[str, Callable[[str], Any]] = {
    f.name: _TYPE_PARSERS[f.type.removesuffix(" | None")]
    for f in fields(ScenarioConfig) if f.name != "start_ms"
}
_SCENARIO_KEYS["start"] = _parse_start


def parse_scenario(path: str | Path) -> ScenarioConfig:
    """Parse a flat key = value scenario file ('#' comments allowed)."""
    path = Path(path)
    values: dict[str, Any] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        parser = _SCENARIO_KEYS.get(key)
        if parser is None:
            raise ScenarioError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values["start_ms" if key == "start" else key] = parser(value)
        except ValueError as exc:
            raise ScenarioError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    if "script" in values and not values["script"].is_absolute():
        values["script"] = path.parent / values["script"]
    scenario = ScenarioConfig(**values)
    _validate_scenario(scenario)
    return scenario


def _validate_scenario(scenario: ScenarioConfig) -> None:
    """The rules no component owns; component_configs checks every other value."""
    if not (1 <= scenario.days <= 366 and 0 <= scenario.upload_grace_sec <= 86_400):
        raise ScenarioError("days must be 1 to 366 and upload_grace_sec 0 to 86400")
    _datetime_ms(scenario.end_ms, "the run's end")
    if (scenario.inject_gateway_disconnect_at_sec is None) != (
        scenario.inject_gateway_disconnect_duration_sec is None
    ):
        raise ScenarioError("gateway disconnect injection needs both at and duration")
    if scenario.script is not None and not scenario.script.exists():
        raise ScenarioError(f"script file not found: {scenario.script}")
    component_configs(scenario, Path())
    if scenario.duration_ms % scenario.period_ms != 0:  # AgentConfig refused a period < 1 s
        raise ScenarioError("roll-up period must divide the run duration")


def component_configs(
    scenario: ScenarioConfig, out_dir: Path
) -> tuple[GatewayConfig, AgentConfig]:
    """The run's gateway and agent configs; ScenarioError for a value either refuses."""
    at_sec = scenario.inject_gateway_disconnect_at_sec
    disconnects = () if at_sec is None else (
        (at_sec * 1000, scenario.inject_gateway_disconnect_duration_sec * 1000),
    )
    try:
        model = SensorModel(scenario.mean_occupied_min, scenario.mean_free_min, scenario.seed)
        faults = FaultPlan(disconnects, scenario.inject_duplicate_updates)
        gateway = GatewayConfig(GATEWAY_ADDRESS, scenario.lot_id, scenario.bays, model, faults)
        agent = AgentConfig(
            gateway_address=GATEWAY_ADDRESS,
            cloud_address=HUB_ADDRESS,
            log_path=out_dir / "agent.log",
            csv_dir=out_dir / "csv",
            poll_interval_sec=scenario.poll_interval_sec,
            rollup_period_sec=scenario.rollup_period_sec,
            reconnect_backoff=BackoffPolicy(
                scenario.backoff_initial_ms, scenario.backoff_multiplier, scenario.backoff_cap_ms
            ),
            rollup_epoch_ms=scenario.window_epoch_ms,
            ack_timeout_ms=scenario.ack_timeout_ms,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return gateway, agent


# ---------------------------------------------------------------------------
# Traffic ledger


# ledger.json's key for each TrafficLedger field, in field order.
LEDGER_KEYS = ("rawForwardBytes", "aggregatedBytes", "eventCount", "envelopeSends")


@dataclass
class TrafficLedger:
    """Bytes actually uploaded vs per-event forwarding of the same run."""

    raw_forward_bytes: int = 0
    aggregated_bytes: int = 0
    event_count: int = 0
    envelope_sends: int = 0

    @property
    def reduction_ratio(self) -> float | None:
        if self.raw_forward_bytes == 0:
            return None
        return self.aggregated_bytes / self.raw_forward_bytes

    def to_json(self) -> dict[str, Any]:
        return {**dict(zip(LEDGER_KEYS, astuple(self))), "reductionRatio": self.reduction_ratio}


# ---------------------------------------------------------------------------
# run-sim


def run_sim(scenario: ScenarioConfig, out_dir: str | Path) -> TrafficLedger:
    """Execute one scenario end to end under the virtual clock; its traffic
    ledger, also written to ledger.json beside summary.md."""
    out_dir = Path(out_dir)
    if (out_dir / "agent.log").exists():
        raise ScenarioError(
            f"{out_dir} already contains a run (agent.log present); "
            "use a fresh output directory"
        )

    epoch = scenario.start_ms
    sched = VirtualScheduler(epoch)
    net = VirtualNetwork(sched)

    gw_config, agent_config = component_configs(scenario, out_dir)
    if scenario.script is not None:
        try:
            trace = scripted_trace(gw_config, scenario.duration_ms, scenario.script)
        except (OSError, ValueError) as exc:
            raise ScenarioError(f"cannot read script {scenario.script}: {exc}") from exc
    else:
        trace = generate_trace(gw_config, scenario.duration_ms)
    store = RollupStore(out_dir / "hub_store", fsync=False)
    hub = HubCore(sched, net, store, HUB_ADDRESS, drop_acks=scenario.inject_drop_acks)

    agents: list[EdgeAgentCore] = []

    def spawn_agent() -> None:
        core = EdgeAgentCore(sched, net, agent_config)
        agents.append(core)
        core.start()

    with open(out_dir / "trace.jsonl", "wb") as trace_file:  # out_dir made by the store
        # Each item's row is written as the gateway takes the item.
        items = write_trace(trace, trace_file)
        gateway = GatewayCore(sched, net, gw_config, replace(trace, items=items))
        hub.start()
        gateway.start()
        spawn_agent()

        if scenario.inject_agent_kill_at_sec is not None:
            kill_at = epoch + scenario.inject_agent_kill_at_sec * 1000

            def kill_and_restart() -> None:
                agents[-1].kill()
                log.info("agent killed at %d; restarting from its log", sched.now_ms())
                spawn_agent()

            sched.call_at(kill_at, kill_and_restart, priority=PRIORITY_FAULT)

        sched.run_until(scenario.end_ms + scenario.upload_grace_sec * 1000)
        for _ in items:  # an item the gateway has not taken still goes into the file
            pass

    agents[-1].stop()
    gateway.stop()
    hub.stop()

    ledger = TrafficLedger(
        raw_forward_bytes=gateway.update_bytes,
        aggregated_bytes=sum(a.upload_bytes for a in agents),
        event_count=gateway.updates_sent,
        envelope_sends=sum(a.upload_sends for a in agents),
    )
    (out_dir / "ledger.json").write_text(
        json.dumps(ledger.to_json(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    meta = {
        "scenario": {
            key: (str(value) if isinstance(value, Path) else value)
            for key, value in vars(scenario).items()
        },
        "startMs": scenario.start_ms,
        "endMs": scenario.end_ms,
        "windowEpochMs": scenario.window_epoch_ms,
        "periodMs": scenario.period_ms,
        "lotId": scenario.lot_id,
        "bayCount": scenario.bays,
        "totalGapMs": sum(a.total_gap_ms for a in agents),
        "counters": {
            "eventsIngested": sum(a.events_ingested for a in agents),
            "pingsSent": sum(a.pings_sent for a in agents),
            "uploadSends": ledger.envelope_sends,
            "warnings": sum(sum(a.warnings.values()) for a in agents),
            "rejectedEvents": sum(a.warnings["rejected_event"] for a in agents),
            "agentIncarnations": len(agents),
        },
    }
    (out_dir / "meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out_dir / "summary.md").write_text(build_report_markdown(store, ledger), encoding="utf-8")
    return ledger


# ---------------------------------------------------------------------------
# replay


@dataclass
class ReplayWindow:
    window: RollupWindow
    totals_ms: dict[int, int]
    records: list[RollupRecord]
    csv_path: Path | None


@dataclass
class ReplayResult:
    windows: list[ReplayWindow]
    skipped_lines: int

    @property
    def csv_paths(self) -> list[Path]:
        return [rw.csv_path for rw in self.windows if rw.csv_path is not None]


def replay_log(
    log_path: str | Path,
    window_sec: int,
    out_dir: str | Path | None,
    *,
    epoch_ms: int | None = None,
) -> ReplayResult:
    """Feed an event log through the accounting core from a clean table.

    Window boundaries are re-derived on the epoch-aligned grid (default:
    midnight UTC of the first record), disconnect markers invalidate
    statuses, and rejected events are skipped; apply_event's warnings are
    summed in one WARNING. Running twice yields byte-identical CSVs.

    Every flush marker, on this grid or off it, credits each occupied bay
    up to its ts, as the agent's roll-up did. The re-seed block after it is
    checked by its bytes: one that is ``eventlog.reseed_lines`` of the table
    is skipped, as folding it would change no status or total, only the lot
    seen. Any other line is decoded and folded.
    """
    if window_sec < 1:
        raise ValueError("window must be at least 1 s")
    if not Path(log_path).is_file():
        raise FileNotFoundError(f"no event log at {log_path}")
    period = window_sec * 1000
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    windows: list[ReplayWindow] = []
    window_start: int | None = None  # set by the first record
    table: dict[int, Any] = {}
    warnings: Counter[str] = Counter()
    lot_seen = UNKNOWN_LOT
    has_observations = False

    def close_window() -> None:
        nonlocal window_start, has_observations
        window = RollupWindow(window_start, window_start + period)
        recs, totals = rollup(table, window)
        csv_path = write_csv(recs, window, lot_seen, out) if out is not None else None
        windows.append(ReplayWindow(window, totals, recs, csv_path))
        window_start = window.end
        has_observations = False

    with eventlog.read_records(log_path) as records:
        for ts, event, record in records:
            if record is not None:
                ts = eventlog.record_ts(record)
            if window_start is None:
                window_start = window_floor(ts, period, epoch_ms)
            while ts >= window_start + period:
                close_window()
            if event is not None:  # a line read by its head
                kind, lot_seen, bay_id, status = event
                apply_event(table, kind, ts, lot_seen, bay_id, status, warnings)
            else:
                if record.get("marker") == eventlog.MARKER_FLUSH and table:
                    # Credit up to ts, as the roll-up did: the re-seed lines credit nothing.
                    update_occupation_time(table, ts)
                    if records.consume(eventlog.reseed_lines(table, ts)):
                        lot_seen = table[max(table)].lot_id
                        has_observations |= ts > window_start
                        continue
                applied = eventlog.apply_record(table, record, warnings, ts)
                if applied is None:
                    if record.get("marker") == eventlog.MARKER_DISCONNECT and ts > window_start:
                        has_observations = True
                    continue
                kind, lot_seen = applied
            # Updates are real observations; snapshots at exactly the window
            # start are boundary bookkeeping (post-rollup re-seed lines).
            has_observations |= kind is EventKind.UPDATE or ts > window_start

    if window_start is None:  # no record: one empty window
        window_start, has_observations = 0, True
    if has_observations:
        # A log that simply stops mid-window (a crash leftover) still gets its
        # in-progress window closed; a log ending at a flush boundary does not.
        close_window()
    if warnings:
        summary = ", ".join(f"{n} {kind}" for kind, n in warnings.items())
        log.warning("replay of %s: %s", log_path, summary)

    return ReplayResult(windows, records.skipped)


# ---------------------------------------------------------------------------
# verify


@dataclass
class VerifyReport:
    ok: bool
    max_error_ms: int
    allowed_ms: int
    checks: list[str]
    failures: list[str]

    def render(self) -> str:
        lines = []
        lines.extend(f"ok: {c}" for c in self.checks)
        lines.extend(f"FAIL: {f}" for f in self.failures)
        lines.append(
            f"max per-bay error {self.max_error_ms} ms "
            f"(allowed {self.allowed_ms} ms): {'pass' if self.ok else 'FAIL'}"
        )
        return "\n".join(lines) + "\n"


def trace_to_events(trace: SimTrace, epoch_ms: int) -> Iterable[tuple[int, int, BayStatus]]:
    """The oracle's input as (ts, bay_id, status) triples: every bay's initial
    status at the epoch, then every change, as the trace's items are taken.
    An item's one adaptation is its ts moved to the epoch, here and not in the
    oracle, so the oracle's refusals name the run's timestamps."""
    initial = [(epoch_ms, bay_id, status) for bay_id, status in sorted(trace.initial.items())]
    return chain(initial, ((epoch_ms + ts, bay_id, status) for ts, bay_id, status in trace.items))


class RunMeta(NamedTuple):
    """What verify reads from a run's meta.json."""

    lot_id: str
    start_ms: int
    end_ms: int
    window_epoch_ms: int
    period_ms: int
    total_gap_ms: int


# meta.json's key for each integer RunMeta field, in field order.
META_INT_KEYS = ("startMs", "endMs", "windowEpochMs", "periodMs", "totalGapMs")


def load_meta(run_dir: str | Path) -> RunMeta:
    """The run's meta.json; ValueError for one that is not a run's meta."""
    path = Path(run_dir) / "meta.json"
    row = json.loads(path.read_text(encoding="utf-8"))
    try:
        meta = RunMeta(row["lotId"], *(int(row[key]) for key in META_INT_KEYS))
    except (LookupError, TypeError, OverflowError) as exc:
        raise ValueError(f"{path} is not a run's meta: {exc!r}") from exc
    if not (protocol.is_lot_id(meta.lot_id) and meta.period_ms > 0):
        raise ValueError(f"{path} is not a run's meta: needs a valid lotId and periodMs > 0")
    return meta


def scenario_windows(meta: RunMeta) -> list[RollupWindow]:
    """Every whole window of the run's grid that overlaps [startMs, endMs)."""
    period = meta.period_ms
    first = window_floor(meta.start_ms, period, meta.window_epoch_ms)
    return [RollupWindow(ws, ws + period) for ws in range(first, meta.end_ms - period + 1, period)]


def verify_run(run_dir: str | Path) -> VerifyReport:
    """Diff the replayed log against the oracle, and each window's CSV (byte for
    byte, ``csv_bytes``) and hub record against the replayed records; a CSV that
    differs is parsed to name the bay, with ValueError if it cannot be."""
    run_dir = Path(run_dir)
    required = ["meta.json", "trace.jsonl", "agent.log", "csv", "hub_store"]
    missing = [name for name in required if not (run_dir / name).exists()]
    if missing:
        raise ValueError(f"{run_dir} is not a run: it has no {', '.join(missing)}")

    meta = load_meta(run_dir)
    lot_id, allowed_ms = meta.lot_id, meta.total_gap_ms
    windows = scenario_windows(meta)
    # The trace's order is checked here, before the log and the store are read.
    sweep = oracle_windows(
        trace_to_events(read_trace(run_dir / "trace.jsonl"), meta.start_ms), windows
    )
    replayed = replay_log(
        run_dir / "agent.log", meta.period_ms // 1000, None, epoch_ms=meta.window_epoch_ms
    )
    replay_by_start = {rw.window.start: rw for rw in replayed.windows}
    store = RollupStore(run_dir / "hub_store", fsync=False)

    checks: list[str] = []
    failures: list[str] = []
    max_error_ms = 0

    for window, oracle in zip(windows, sweep):
        label = f"window {window.start}"
        rw = replay_by_start.get(window.start)
        if rw is None:
            if not oracle:
                checks.append(f"{label}: no bays observed, nothing to diff")
                continue
            failures.append(f"{label}: no replayed window from agent log")
            continue
        bay_ids = sorted(set(oracle) | set(rw.totals_ms))
        for bay_id in bay_ids:
            err = abs(oracle.get(bay_id, 0) - rw.totals_ms.get(bay_id, 0))
            if err > max_error_ms:
                max_error_ms = err
            if err > allowed_ms:
                failures.append(
                    f"{label} bay {bay_id}: log replay off by {err} ms "
                    f"(oracle {oracle.get(bay_id, 0)}, agent {rw.totals_ms.get(bay_id, 0)})"
                )
        csv_path = run_dir / "csv" / csv_filename(lot_id, window.start)
        try:
            written = csv_path.read_bytes()
        except FileNotFoundError:
            failures.append(f"{label}: missing CSV {csv_path.name}")
            continue
        if written == csv_bytes(rw.records):
            checks.append(f"{label}: CSV matches log replay ({len(rw.records)} bays)")
        elif (csv_records := read_csv_records(csv_path)[2]) != rw.records:
            failures.append(_diff_records(label, "CSV", csv_records, rw.records))
        else:
            failures.append(f"{label}: CSV has the replayed records but not their bytes")
        stored = store.query_daily(lot_id, window.start)
        if stored is None:
            failures.append(f"{label}: hub store has no record for key {lot_id}:{window.start}")
        elif list(stored) != rw.records:
            failures.append(_diff_records(label, "hub store", list(stored), rw.records))
        else:
            checks.append(f"{label}: hub store matches CSV")
    checks.append(f"oracle diff over {len(windows)} windows: max {max_error_ms} ms")

    ok = not failures and max_error_ms <= allowed_ms
    return VerifyReport(ok, max_error_ms, allowed_ms, checks, failures)


def _diff_records(
    label: str, what: str, got: list[RollupRecord], want: list[RollupRecord]
) -> str:
    got_by_bay = {r.bay_id: r for r in got}
    want_by_bay = {r.bay_id: r for r in want}
    for bay_id in sorted(set(got_by_bay) | set(want_by_bay)):
        if got_by_bay.get(bay_id) != want_by_bay.get(bay_id):
            return (
                f"{label} bay {bay_id}: {what} mismatch "
                f"(got {got_by_bay.get(bay_id)}, want {want_by_bay.get(bay_id)})"
            )
    return f"{label}: {what} record count mismatch ({len(got)} vs {len(want)})"


# ---------------------------------------------------------------------------
# reports


def load_ledger(run_dir: str | Path) -> TrafficLedger:
    """The run's ledger.json; ValueError for one that is not a traffic ledger."""
    path = Path(run_dir) / "ledger.json"
    row = json.loads(path.read_text(encoding="utf-8"))
    try:
        return TrafficLedger(*(int(row[key]) for key in LEDGER_KEYS))
    except (LookupError, TypeError, OverflowError) as exc:
        raise ValueError(f"{path} is not a traffic ledger: {exc!r}") from exc


def _day_label(window_start_ms: int) -> str:
    return datetime.fromtimestamp(window_start_ms / 1000, tz=timezone.utc).strftime(
        "%Y-%m-%d %H:%M"
    )


def report_tables(
    store: RollupStore,
) -> Iterator[tuple[str, list[tuple[int, float]], dict[int, tuple[float, float]]]]:
    """Per lot: its id, its (window_start, fleet avg hours) rows and its
    per-bay (min, max) occupied hours over every window."""
    for lot_id in store.lots():
        rows = store.windows_for(lot_id)
        averages = [(stored.window_start, fleet_average_hours(stored.records)) for stored in rows]
        yield lot_id, averages, per_bay_extremes(stored.records for stored in rows)


def build_report_markdown(store: RollupStore, ledger: TrafficLedger | None = None) -> str:
    lines: list[str] = ["# Run report", ""]
    for lot_id, averages, extremes in list(report_tables(store)) or [("(no data)", [], {})]:
        lines.append(f"## Lot {lot_id}: fleet average occupied hours per window")
        lines.append("")
        lines.append("| window start (UTC) | fleet avg hours |")
        lines.append("| --- | --- |")
        for window_start, hours in averages:
            lines.append(f"| {_day_label(window_start)} | {hours:.4f} |")
        lines.append("")
        if averages:
            lines.append(f"## Lot {lot_id}: per-bay occupied hours, min and max over the run")
            lines.append("")
            lines.append("| bay | min hours | max hours |")
            lines.append("| --- | --- | --- |")
            for bay_id, (lo, hi) in extremes.items():
                lines.append(f"| {bay_id} | {lo:.4f} | {hi:.4f} |")
            lines.append("")
    if ledger is not None:
        ratio = ledger.reduction_ratio
        lines.append("## Traffic")
        lines.append("")
        lines.append(f"- per-event forwarding baseline: {ledger.raw_forward_bytes} bytes"
                     f" ({ledger.event_count} events)")
        lines.append(f"- aggregated uploads: {ledger.aggregated_bytes} bytes"
                     f" ({ledger.envelope_sends} sends)")
        lines.append(
            "- reduction ratio (aggregated/raw): "
            + (f"{ratio:.6f}" if ratio is not None else "undefined (no events)")
        )
        lines.append("")
    return "\n".join(lines)


def export_report(run_dir: str | Path, fmt: str) -> list[Path]:
    """Emit the per-day fleet-average and per-bay min/max tables."""
    if fmt not in ("csv", "markdown"):
        raise ValueError("format must be csv or markdown")
    run_dir = Path(run_dir)
    if not (run_dir / "hub_store").is_dir():
        raise ValueError(f"{run_dir} is not a run: it has no hub_store directory")
    store = RollupStore(run_dir / "hub_store", fsync=False)
    if fmt == "markdown":
        ledger = None
        if (run_dir / "ledger.json").exists():
            ledger = load_ledger(run_dir)
        path = run_dir / "report.md"
        path.write_text(build_report_markdown(store, ledger), encoding="utf-8")
        return [path]
    daily_lines = ["lotId,windowStart,fleetAvgHours"]
    bays_lines = ["lotId,bayId,minHours,maxHours"]
    for lot_id, averages, extremes in report_tables(store):
        for window_start, hours in averages:
            daily_lines.append(f"{lot_id},{window_stamp(window_start)},{hours:.4f}")
        for bay_id, (lo, hi) in extremes.items():
            bays_lines.append(f"{lot_id},{bay_id},{lo:.4f},{hi:.4f}")
    daily_path = run_dir / "report_daily.csv"
    bays_path = run_dir / "report_bays.csv"
    daily_path.write_bytes(("\n".join(daily_lines) + "\n").encode("utf-8"))
    bays_path.write_bytes(("\n".join(bays_lines) + "\n").encode("utf-8"))
    return [daily_path, bays_path]
