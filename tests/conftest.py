"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
import random
import string
import tracemalloc

import pytest

from edgepark import eventlog
from edgepark.agent import AgentConfig, BackoffPolicy, EdgeAgentCore
from edgepark.clock import VirtualScheduler
from edgepark.gateway import (
    FaultPlan,
    GatewayConfig,
    GatewayCore,
    SimTrace,
    TraceItem,
    write_trace,
)
from edgepark.harness import GATEWAY_ADDRESS, HUB_ADDRESS, ScenarioConfig
from edgepark.hub import HubCore, RollupStore
from edgepark.occupancy import BayStatus, EventKind
from edgepark.transport import VirtualNetwork

# 2018-11-19T00:00:00Z, a Monday: the start of the reproduced week.
EPOCH_MS = 1_542_585_600_000
DAY_MS = 86_400_000


def item_record(item) -> dict:
    """The record a log pass's item stands for. A line of a checked head comes as
    its ts and event fields, and the logs the tests read hold no other keys in one."""
    ts, event, record = item
    if event is None:
        return record
    kind, lot_id, bay_id, status = event
    return {"bayId": bay_id, "lotId": lot_id, "src": kind.value, "status": status.value, "ts": ts}


def log_records(path) -> list[dict]:
    """Every record of one pass over a log."""
    with eventlog.read_records(path) as reader:
        return [item_record(item) for item in reader]


def make_scenario(**overrides) -> ScenarioConfig:
    values = dict(
        name="test",
        seed=0,
        lot_id="LOT-A",
        bays=22,
        mean_occupied_min=450.0,
        mean_free_min=990.0,
        days=1,
        start_ms=EPOCH_MS,
    )
    values.update(overrides)
    return ScenarioConfig(**values)


def idle_trace(bays: int = 22, duration_ms: int = DAY_MS, lot_id: str = "LOT-A") -> SimTrace:
    return SimTrace(
        lot_id=lot_id,
        bay_count=bays,
        duration_ms=duration_ms,
        initial={b: BayStatus.FREE for b in range(1, bays + 1)},
        items=(),
    )


def items_trace(
    items: list[tuple[int, int, str]],
    bays: int = 22,
    duration_ms: int = DAY_MS,
    lot_id: str = "LOT-A",
) -> SimTrace:
    return SimTrace(
        lot_id=lot_id,
        bay_count=bays,
        duration_ms=duration_ms,
        initial={b: BayStatus.FREE for b in range(1, bays + 1)},
        items=tuple(TraceItem(ts, bay, BayStatus(status)) for ts, bay, status in items),
    )


def materialised(trace: SimTrace) -> SimTrace:
    """The trace with its items taken into a tuple, to compare or iterate again."""
    return dataclasses.replace(trace, items=tuple(trace.items))


def save_trace(trace: SimTrace, path) -> None:
    """Write the whole trace to path."""
    with open(path, "wb") as fh:
        for _ in write_trace(trace, fh):
            pass


def update_lines(ts: int, updates: int, bays: int = 4) -> bytes:
    """Log lines: a free snapshot of each bay at ts, then ``updates`` updates
    1 ms apart that take turns occupying and freeing each bay, so no update
    repeats a bay's status."""
    lines = [eventlog.event_line(EventKind.SNAPSHOT, ts, "L", b, BayStatus.FREE)
             for b in range(1, bays + 1)]
    for i in range(updates):
        status = BayStatus.OCCUPIED if i // bays % 2 == 0 else BayStatus.FREE
        lines.append(eventlog.event_line(EventKind.UPDATE, ts + 1 + i, "L", i % bays + 1, status))
    return b"".join(lines)


def traced_peak(fn) -> int:
    """tracemalloc's peak, in bytes, over one call of fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MIB = 1 << 20


def append_long_torn_tail(path) -> None:
    """Append 32 MiB with no newline, a MiB at a time: a reader that read it
    whole would peak above 64 MiB."""
    with open(path, "ab") as fh:
        for _ in range(32):
            fh.write(b"x" * MIB)


# Characters JSON must escape, plus non-ASCII, astral-plane and lone
# surrogate code points, for byte-identity tests of the line encoders.
AWKWARD_CHARS = '"\\/\x00\x01\x1f\x7f\b\f\n\r\té\xff中\u2028\U0001F600\U0001D11E\ud800'


def random_text(rng: random.Random, max_len: int = 12) -> str:
    plain = string.ascii_letters + string.digits + "-_.: "
    return "".join(
        rng.choice(AWKWARD_CHARS) if rng.random() < 0.3 else rng.choice(plain)
        for _ in range(rng.randint(0, max_len))
    )


def random_int(rng: random.Random) -> int:
    """Small, 64-bit and far larger integers, negatives included."""
    return rng.choice((
        rng.randint(0, 100),
        rng.randint(0, 2**63),
        rng.randint(-(10**40), 10**40),
        2**64,
    ))


# Every agent a helper builds, killed when its test ends so that no
# agent.log handle or session outlives the test.
_built_agents: list[EdgeAgentCore] = []


def track_agent(agent: EdgeAgentCore) -> EdgeAgentCore:
    _built_agents.append(agent)
    return agent


@pytest.fixture(autouse=True)
def kill_built_agents():
    yield
    while _built_agents:
        _built_agents.pop().kill()


# Every store a helper opens, closed when its test ends: a store keeps each
# lot's file open, and no file handle may outlive the test.
_opened_stores: list[RollupStore] = []


def open_store(store_dir) -> RollupStore:
    _opened_stores.append(RollupStore(store_dir, fsync=False))
    return _opened_stores[-1]


@pytest.fixture(autouse=True)
def close_opened_stores():
    yield
    while _opened_stores:
        _opened_stores.pop().close()


class SimRig:
    """Gateway + hub + agent wired in-process under one virtual clock."""

    def __init__(
        self,
        tmp_path,
        trace: SimTrace,
        *,
        faults: FaultPlan | None = None,
        poll_interval_sec: int = 60,
        rollup_period_sec: int = 86_400,
        drop_acks: int = 0,
        backoff: BackoffPolicy | None = None,
        start_agent: bool = True,
    ) -> None:
        self.sched = VirtualScheduler(EPOCH_MS)
        self.net = VirtualNetwork(self.sched)
        self.trace = trace
        gw_config = GatewayConfig(
            listen_address=GATEWAY_ADDRESS,
            lot_id=trace.lot_id,
            bay_count=trace.bay_count,
            faults=faults or FaultPlan(),
        )
        self.gateway = GatewayCore(self.sched, self.net, gw_config, trace)
        self.store = open_store(tmp_path / "hub_store")
        self.hub = HubCore(self.sched, self.net, self.store, HUB_ADDRESS, drop_acks=drop_acks)
        self.agent_config = AgentConfig(
            gateway_address=GATEWAY_ADDRESS,
            cloud_address=HUB_ADDRESS,
            log_path=tmp_path / "agent.log",
            csv_dir=tmp_path / "csv",
            poll_interval_sec=poll_interval_sec,
            rollup_period_sec=rollup_period_sec,
            reconnect_backoff=backoff or BackoffPolicy(1000, 1.0, 1000),
            rollup_epoch_ms=EPOCH_MS,
        )
        self.agent = track_agent(EdgeAgentCore(self.sched, self.net, self.agent_config))
        self.hub.start()
        self.gateway.start()
        if start_agent:
            self.agent.start()

    def run_for(self, ms: int) -> None:
        self.sched.run_until(self.sched.now_ms() + ms)


def record_pings(gateway: GatewayCore) -> list:
    """The seq of each ping the gateway receives, in order, on every session
    it accepts from now on: install it before the agent starts."""
    seqs = []
    handle = gateway._on_message

    def recorded(conn, message):
        if message.get("type") == "ping":
            seqs.append(message.get("seq"))
        handle(conn, message)

    gateway._on_message = recorded
    return seqs


@pytest.fixture
def rig_factory(tmp_path):
    def build(trace: SimTrace | None = None, **kwargs) -> SimRig:
        return SimRig(tmp_path, trace if trace is not None else idle_trace(), **kwargs)

    return build
