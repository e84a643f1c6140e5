"""Trace generation, trace files, and gateway session behavior."""

import importlib.util
import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from edgepark import gateway, protocol
from edgepark.clock import VirtualScheduler
from edgepark.gateway import (
    FaultPlan,
    GatewayConfig,
    GatewayCore,
    SensorModel,
    SimTrace,
    TraceItem,
    generate_trace,
    read_trace,
)
from edgepark.occupancy import BayStatus, InvariantViolationError
from edgepark.transport import VirtualNetwork

from conftest import (
    EPOCH_MS, idle_trace, items_trace, materialised, random_int, random_text, save_trace,
)

DAY_MS = 86_400_000
WEEK_MS = 7 * DAY_MS


def config(bays=22, seed=0, occ=450.0, free=990.0):
    return GatewayConfig("sim://gw", "LOT", bays, SensorModel(occ, free, seed))


@pytest.mark.parametrize("lot_id", ['LOT"A', "a/b", "LOT A", "LOT-A\n"])
def test_config_refuses_a_lot_id_the_hub_would_refuse(lot_id):
    with pytest.raises(ValueError, match=protocol.LOT_ID_RULE):
        GatewayConfig("sim://gw", lot_id)


# ---------------------------------------------------------------------------
# generate_trace


def test_same_config_gives_identical_traces():
    a = generate_trace(config(seed=5), DAY_MS)
    b = generate_trace(config(seed=5), DAY_MS)
    assert materialised(a) == materialised(b)


def test_different_seed_gives_different_trace():
    a = generate_trace(config(seed=1), DAY_MS)
    b = generate_trace(config(seed=2), DAY_MS)
    assert materialised(a) != materialised(b)


def test_zero_bays_gives_empty_trace():
    trace = generate_trace(config(bays=0), DAY_MS)
    assert tuple(trace.items) == () and trace.initial == {}


def test_per_bay_alternation_and_strictly_increasing_timestamps():
    trace = materialised(generate_trace(config(seed=3, occ=30, free=30), DAY_MS))
    last_ts = {}
    last_status = dict(trace.initial)
    for item in trace.items:
        if item.bay_id in last_ts:
            assert item.sim_ts > last_ts[item.bay_id]
        assert item.new_status is not last_status[item.bay_id]
        last_ts[item.bay_id] = item.sim_ts
        last_status[item.bay_id] = item.new_status
    assert all(0 <= it.sim_ts < DAY_MS for it in trace.items)


@pytest.mark.parametrize("bays", [0, 1, 50])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_generate_trace_items_are_strictly_sorted_by_time_then_bay(bays, seed):
    # Dwell times of a few seconds over ten minutes: many bays change at one instant.
    trace = generate_trace(config(bays=bays, seed=seed, occ=0.05, free=0.05), 600_000)
    keys = [(item.sim_ts, item.bay_id) for item in trace.items]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    if bays == 50:
        assert len({ts for ts, _bay in keys}) < len(keys)


def test_a_bay_draws_its_next_change_when_its_last_is_taken(monkeypatch):
    """No bay draws more than one change ahead of the items taken, so the
    trace holds one pending change per bay however long the run."""
    draws = Counter()

    class CountingGenerator(gateway.Generator):
        def __init__(self, seed, child):
            super().__init__(seed, child)
            self.bay_id = child + 1

        def exponential(self, scale):
            draws[self.bay_id] += 1
            return super().exponential(scale)

    monkeypatch.setattr(gateway, "Generator", CountingGenerator)
    bays = range(1, 41)
    trace = generate_trace(config(bays=len(bays), seed=4, occ=0.5, free=0.5), 3_600_000)
    assert not draws  # only the initial statuses are drawn up front
    taken = Counter()
    for item in trace.items:
        taken[item.bay_id] += 1
        assert draws[item.bay_id] == taken[item.bay_id]  # its next change is not drawn yet
        assert all(draws[b] <= taken[b] + 1 for b in bays)
    assert taken.total() > 4000
    assert all(draws[b] == taken[b] + 1 for b in bays)  # each drew one change past the end


def eager_trace(config, duration_ms):
    """The generator before it streamed, as the reference: every bay's whole
    draw loop, then one sort, drawn by numpy. Its initial statuses and its items."""
    np = pytest.importorskip("numpy")
    model = config.model
    children = np.random.SeedSequence(model.seed).spawn(max(config.bay_count, 1))
    initial, items = {}, []
    for bay_id in range(1, config.bay_count + 1):
        rng = np.random.default_rng(children[bay_id - 1])
        status = (
            BayStatus.OCCUPIED if rng.random() < model.occupied_fraction else BayStatus.FREE
        )
        initial[bay_id] = status
        t, prev_ts = 0.0, -1
        while True:
            mean_min = (
                model.mean_occupied_min if status is BayStatus.OCCUPIED else model.mean_free_min
            )
            t += rng.exponential(mean_min * 60_000.0)
            if t >= duration_ms:
                break
            ts = max(int(t), prev_ts + 1)
            if ts >= duration_ms:
                break
            status = BayStatus.FREE if status is BayStatus.OCCUPIED else BayStatus.OCCUPIED
            items.append(TraceItem(ts, bay_id, status))
            prev_ts = ts
    items.sort()
    return initial, items


def streamed(config, duration_ms):
    trace = generate_trace(config, duration_ms)
    return trace.initial, list(trace.items)


def benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for @dataclass
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("workload", benchmark_workloads().values(), ids=lambda w: w.name)
@pytest.mark.parametrize("seed", [0, 1, 31, 104729])
def test_generate_trace_draws_numpy_s_trace_on_every_benchmark_workload(workload, seed):
    model = config(bays=workload.bays, seed=seed, occ=workload.mean_occupied_min,
                   free=workload.mean_free_min)
    duration_ms = workload.days * DAY_MS
    assert streamed(model, duration_ms) == eager_trace(model, duration_ms)


@pytest.mark.parametrize("bays", [0, 1, 50, 125])
@pytest.mark.parametrize("seed", [0, 1, 31, 104729])
def test_streamed_generator_draws_the_eager_trace_item_for_item(bays, seed):
    hour = 3_600_000
    for duration_ms in (hour // 2, 5 * hour // 2 + 1):  # under an hour; not a multiple of it
        model = config(bays=bays, seed=seed, occ=20.0, free=10.0)
        assert streamed(model, duration_ms) == eager_trace(model, duration_ms)
    # Dwell times of a fraction of a millisecond: each change is bumped +1 ms
    # past the last, in runs that cross the 100 ms and 200 ms marks.
    model = config(bays=bays, seed=seed, occ=1e-5, free=1e-5)
    initial, items = streamed(model, 250)
    assert (initial, items) == eager_trace(model, 250)
    if bays:
        crossing = {(99, 100), (199, 200)}
        per_bay = {}
        for item in items:
            per_bay.setdefault(item.bay_id, []).append(item.sim_ts)
        assert all(crossing <= set(zip(ts, ts[1:])) for ts in per_bay.values())


def occupied_ms_from_trace(trace):
    """Direct interval summation, independent of any accounting code."""
    per_bay = {b: [] for b in trace.initial}
    for item in trace.items:
        per_bay[item.bay_id].append(item)
    total = 0
    for bay, items in per_bay.items():
        status, t = trace.initial[bay], 0
        for item in items:
            if status is BayStatus.OCCUPIED:
                total += item.sim_ts - t
            status, t = item.new_status, item.sim_ts
        if status is BayStatus.OCCUPIED:
            total += trace.duration_ms - t
    return total


def test_calibrated_week_averages_near_7_5_hours_per_day():
    trace = generate_trace(config(seed=0), WEEK_MS)
    occupied = occupied_ms_from_trace(trace)
    hours_per_bay_day = occupied / (22 * 7) / 3_600_000
    assert abs(hours_per_bay_day - 7.5) <= 0.75


def test_trace_write_read_roundtrip(tmp_path):
    trace = materialised(generate_trace(config(seed=8, bays=5), 3_600_000))
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    assert materialised(read_trace(path)) == trace


@pytest.mark.parametrize(
    "row",
    [{"bayId": 0}, {"bayId": -2}, {"simTs": -1}, {"bayId": True}, {"bayId": "3"},
     {"bayId": 3.0}, {"simTs": True}, {"simTs": "5"}, {"simTs": 5.5}, {"simTs": None}],
)
def test_read_trace_accepts_only_json_integer_simts_and_bay_id(tmp_path, row):
    path = tmp_path / "trace.jsonl"
    save_trace(items_trace([(5, 3, "occupied")], bays=4), path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[-1] = protocol.encode_line({**json.loads(lines[-1]), **row})
    path.write_bytes(b"".join(lines))
    with pytest.raises(InvariantViolationError):
        read_trace(path)


# Each meta value must be a JSON integer >= 0 in 64 bits, or a lot id.
META_VALUES = [
    pytest.param("durationMs", "1e400", id="durationMs"),  # inf as a float
    pytest.param("bayCount", "1e400", id="bayCount"),
    *(pytest.param(key, value, id=f"{key}={value}")
      for key in ("bayCount", "durationMs")
      for value in ("true", "2.5", '"7"', "1e3", "-1", str(2**63))),
    pytest.param("lotId", "5", id="lotId=5"),
    pytest.param("lotId", '"a/b"', id="lotId=a/b"),
]


@pytest.mark.parametrize("key, value", META_VALUES)
def test_read_trace_refuses_an_oversized_number_in_the_meta_row(tmp_path, key, value):
    path = tmp_path / "trace.jsonl"
    save_trace(idle_trace(bays=2), path)
    lines = path.read_bytes().splitlines(keepends=True)
    row = {**json.loads(lines[0]), key: "VALUE"}
    lines[0] = json.dumps(row).replace('"VALUE"', value).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(InvariantViolationError, match=f"^{path}:1: "):
        read_trace(path)


@pytest.mark.parametrize("row", [0, 1])
def test_read_trace_refuses_a_meta_or_initial_row_after_the_first_item(tmp_path, row):
    path = tmp_path / "trace.jsonl"
    save_trace(items_trace([(5, 1, "occupied"), (9, 2, "occupied")], bays=2), path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines.insert(3, lines.pop(row))  # after the first item: line 4
    path.write_bytes(b"".join(lines))
    trace = read_trace(path)
    with pytest.raises(InvariantViolationError, match=f"^{path}:4: a (meta|initial) row must "):
        tuple(trace.items)


def test_read_trace_rejects_initial_bay_below_one(tmp_path):
    path = tmp_path / "trace.jsonl"
    save_trace(idle_trace(bays=2), path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = protocol.encode_line({"kind": "initial", "statuses": {"0": "free", "1": "free"}})
    path.write_bytes(b"".join(lines))
    with pytest.raises(InvariantViolationError):
        read_trace(path)


def write_trace_reference(trace, path):
    """Reference: every trace line through encode_line."""
    rows = [
        {"kind": "meta", "lotId": trace.lot_id, "bayCount": trace.bay_count,
         "durationMs": trace.duration_ms},
        {"kind": "initial",
         "statuses": {str(b): s.value for b, s in sorted(trace.initial.items())}},
    ]
    rows.extend(
        {"kind": "item", "simTs": item.sim_ts, "bayId": item.bay_id,
         "status": item.new_status.value}
        for item in trace.items
    )
    path.write_bytes(b"".join(protocol.encode_line(row) for row in rows))


def test_write_trace_is_encode_line_of_every_row(tmp_path):
    rng = random.Random(2019)
    for case in range(50):
        bays = rng.randint(0, 5)
        trace = SimTrace(
            lot_id=random_text(rng),
            bay_count=bays,
            duration_ms=random_int(rng),
            initial={b: rng.choice(list(BayStatus)) for b in range(1, bays + 1)},
            items=tuple(
                TraceItem(random_int(rng), random_int(rng), rng.choice(list(BayStatus)))
                for _ in range(10)
            ),
        )
        save_trace(trace, tmp_path / f"{case}.jsonl")
        write_trace_reference(trace, tmp_path / f"{case}.ref")
        assert (tmp_path / f"{case}.jsonl").read_bytes() == (tmp_path / f"{case}.ref").read_bytes()


# ---------------------------------------------------------------------------
# GatewayCore sessions (in-process)


class Probe:
    """Minimal protocol client for poking the gateway core."""

    def __init__(self, sched, net, address="sim://gw"):
        self.received = []
        self.closed = False
        self.conn = net.connect(address)
        self.conn.on_message = self.received.append
        self.conn.on_close = self._on_close
        self.sched = sched

    def _on_close(self):
        self.closed = True

    def send(self, line):
        self.conn.send(line)
        self.sched.run_until(self.sched.now_ms())


def make_gateway(trace, faults=None):
    sched = VirtualScheduler(EPOCH_MS)
    net = VirtualNetwork(sched)
    gw_config = GatewayConfig(
        "sim://gw", trace.lot_id, trace.bay_count, faults=faults or FaultPlan()
    )
    core = GatewayCore(sched, net, gw_config, trace)
    core.start()
    return sched, net, core


# ---------------------------------------------------------------------------
# The snapshot a hello gets


def hello_statuses(sched, net):
    """Every bay's status in the snapshot a new session's hello gets now."""
    probe = Probe(sched, net)
    probe.send(protocol.encode_line({"type": "hello", "client": "probe", "proto": 1}))
    (snapshot,) = probe.received
    return {b["id"]: b["status"] for b in snapshot["data"][0]["bays"]}


def test_snapshot_before_any_item_shows_initial_statuses():
    sched, net, _ = make_gateway(items_trace([(1000, 3, "occupied")], bays=4))
    assert hello_statuses(sched, net) == {1: "free", 2: "free", 3: "free", 4: "free"}


def test_snapshot_between_events_reflects_most_recent():
    sched, net, _ = make_gateway(items_trace([(1000, 3, "occupied"), (5000, 3, "free")], bays=3))
    sched.run_until(EPOCH_MS + 2500)
    assert hello_statuses(sched, net)[3] == "occupied"


def test_snapshot_matches_linear_scan_oracle():
    trace = materialised(generate_trace(config(seed=6, bays=8, occ=20, free=40), 6 * 3_600_000))
    sched, net, _ = make_gateway(trace)
    for sim_ts in (0, 1, 3_600_000, 12_345_678, trace.duration_ms):
        sched.run_until(EPOCH_MS + sim_ts)  # every item due at or before sim_ts is dispatched
        want = {}
        for bay in trace.initial:
            status = trace.initial[bay]
            for item in trace.items:
                if item.bay_id == bay and item.sim_ts <= sim_ts:
                    status = item.new_status
            want[bay] = status.value
        assert hello_statuses(sched, net) == want


def test_hello_yields_full_snapshot():
    sched, net, _ = make_gateway(items_trace([], bays=22))
    probe = Probe(sched, net)
    probe.send(protocol.encode_line({"type": "hello", "client": "probe", "proto": 1}))
    (reply,) = probe.received
    assert reply["type"] == "bays"
    assert len(reply["data"][0]["bays"]) == 22
    assert reply["data"][0]["lotId"] == "LOT-A"


def test_ping_echoes_seq():
    sched, net, _ = make_gateway(items_trace([]))
    probe = Probe(sched, net)
    probe.send(protocol.ping_line(7))
    assert probe.received == [{"type": "pong", "seq": 7}]


def test_malformed_line_is_dropped_and_session_stays_up():
    sched, net, _ = make_gateway(items_trace([]))
    probe = Probe(sched, net)
    probe.send(b"not json\n")  # the sender sees no parse error
    probe.send(b"[" * 100_000 + b"\n")  # nested past the recursion limit
    probe.send(protocol.ping_line(7))
    assert probe.received == [{"type": "pong", "seq": 7}]
    assert not probe.closed


def test_ping_with_boolean_seq_gets_error_and_close():
    sched, net, _ = make_gateway(items_trace([]))
    probe = Probe(sched, net)
    probe.send(protocol.encode_line({"type": "ping", "seq": True}))
    assert [m["type"] for m in probe.received] == ["error"]
    assert probe.closed


def test_unknown_type_gets_error_and_close():
    sched, net, _ = make_gateway(items_trace([]))
    probe = Probe(sched, net)
    probe.send(protocol.encode_line({"type": "launch", "payload": 1}))
    sched.run_until(sched.now_ms())
    assert probe.received[0]["type"] == "error"
    assert probe.closed


def test_midrun_join_snapshot_matches_trace_state():
    trace = items_trace([(1000, 1, "occupied"), (5000, 2, "occupied"), (9000, 1, "free")])
    sched, net, _ = make_gateway(trace)
    sched.run_until(sched.now_ms() + 6000)  # two items dispatched
    probe = Probe(sched, net)
    probe.send(protocol.encode_line({"type": "hello", "client": "late", "proto": 1}))
    statuses = {b["id"]: b["status"] for b in probe.received[0]["data"][0]["bays"]}
    assert statuses[1] == "occupied" and statuses[2] == "occupied"
    sched.run_until(sched.now_ms() + 4000)  # third item pushed to the live session
    update = probe.received[-1]
    assert update["type"] == "baysUpdate"
    assert update["bay"] == {"id": 1, "status": "free"}


def test_updates_pushed_only_after_handshake():
    trace = items_trace([(1000, 1, "occupied")])
    sched, net, core = make_gateway(trace)
    probe = Probe(sched, net)  # connected but never says hello
    sched.run_until(sched.now_ms() + 2000)
    assert probe.received == []
    assert core.updates_sent == 0


def test_a_connection_accepted_before_an_outage_is_dropped_at_its_hello():
    trace = items_trace([(1000, 1, "occupied")])
    sched, net, core = make_gateway(trace, faults=FaultPlan(disconnects=((0, 600_000),)))
    probe = Probe(sched, net)  # accepted at the outage's instant, before it fires
    probe.send(protocol.encode_line({"type": "hello", "client": "probe", "proto": 1}))
    assert probe.received == [] and probe.closed
    assert core.sessions == []
    sched.run_until(sched.now_ms() + 2000)
    assert core.updates_sent == 0


def test_duplicate_update_fault_sends_twice():
    trace = items_trace([(1000, 1, "occupied")])
    sched, net, core = make_gateway(trace, faults=FaultPlan(duplicate_updates=True))
    probe = Probe(sched, net)
    probe.send(protocol.encode_line({"type": "hello", "client": "probe", "proto": 1}))
    sched.run_until(sched.now_ms() + 2000)
    updates = [m for m in probe.received if m["type"] == "baysUpdate"]
    assert len(updates) == 2
    assert core.updates_sent == 2


def test_injected_disconnect_refuses_reconnects_for_duration():
    trace = items_trace([])
    sched, net, core = make_gateway(trace, faults=FaultPlan(disconnects=((5000, 2000),)))
    probe = Probe(sched, net)
    probe.send(protocol.encode_line({"type": "hello", "client": "probe", "proto": 1}))
    sched.run_until(sched.now_ms() + 5000)
    assert probe.closed
    with pytest.raises(ConnectionRefusedError):
        net.connect("sim://gw")
    sched.run_until(sched.now_ms() + 2000)
    Probe(sched, net)  # reconnect admitted once the window elapses


class RawRecorder:
    """A session that records the raw bytes it is asked to send."""

    def __init__(self):
        self.sent = []

    def send(self, payload):
        self.sent.append(payload)
        return len(payload)


def test_dispatch_encodes_once_and_fans_out_the_bytes(monkeypatch):
    encodes = []
    real_update_line = protocol.bays_update_line

    def counting_update_line(*args):
        encodes.append(args)
        return real_update_line(*args)

    def no_encode_line(message):
        raise AssertionError(f"update encoded through encode_line: {message}")

    monkeypatch.setattr(protocol, "bays_update_line", counting_update_line)
    monkeypatch.setattr(protocol, "encode_line", no_encode_line)
    trace = items_trace([(1000, 3, "occupied")])
    core = GatewayCore(
        VirtualScheduler(EPOCH_MS), None,
        GatewayConfig("sim://gw", trace.lot_id, trace.bay_count,
                      faults=FaultPlan(duplicate_updates=True)),
        trace,
    )
    sessions = [RawRecorder(), RawRecorder()]
    core.sessions.extend(sessions)
    core._dispatch(trace.items[0])

    line = real_update_line("LOT-A", 3, "occupied")
    assert encodes == [("LOT-A", 3, "occupied")]
    assert core.updates_sent == 4
    assert core.update_bytes == 4 * len(line)
    assert [s.sent for s in sessions] == [[line, line], [line, line]]
    assert json.loads(line) == {
        "type": "baysUpdate", "lotId": "LOT-A", "bay": {"id": 3, "status": "occupied"}
    }


def test_each_bay_and_status_is_encoded_once_over_many_dispatches(monkeypatch):
    encodes = []
    real_update_line = protocol.bays_update_line

    def counting_update_line(*args):
        encodes.append(args)
        return real_update_line(*args)

    monkeypatch.setattr(protocol, "bays_update_line", counting_update_line)
    statuses = ("occupied", "free")
    trace = items_trace([(1000 * i, 1 + i % 2, statuses[i // 2 % 2]) for i in range(10)])
    core = GatewayCore(VirtualScheduler(EPOCH_MS), None,
                       GatewayConfig("sim://gw", trace.lot_id, trace.bay_count), trace)
    session = RawRecorder()
    core.sessions.append(session)
    for item in trace.items:
        core._dispatch(item)

    assert sorted(encodes) == sorted(
        ("LOT-A", bay, status) for bay in (1, 2) for status in statuses
    )
    assert session.sent == [
        real_update_line("LOT-A", item.bay_id, item.new_status) for item in trace.items
    ]


# ---------------------------------------------------------------------------
# trace dispatch: one pending item, in the order the whole trace queued at once


def recording_gateway(trace):
    """A started gateway with one session that records every update from the start."""
    sched = VirtualScheduler(EPOCH_MS)
    gw_config = GatewayConfig("sim://gw", trace.lot_id, trace.bay_count)
    core = GatewayCore(sched, VirtualNetwork(sched), gw_config, trace)
    session = RawRecorder()
    core.sessions.append(session)
    core.start()
    return sched, session


def sent_updates(session):
    return [(m["bay"]["id"], m["bay"]["status"]) for m in map(json.loads, session.sent)]


@pytest.mark.parametrize("bays", [0, 1, 200])
def test_start_queues_one_trace_dispatch_whatever_the_trace_length(bays):
    gw_config = GatewayConfig(
        "sim://gw", "LOT", bays, SensorModel(20.0, 10.0, 3),
        faults=FaultPlan(disconnects=((3_600_000, 1000), (7_200_000, 1000))),
    )
    trace = generate_trace(gw_config, DAY_MS)
    sched = VirtualScheduler(EPOCH_MS)
    GatewayCore(sched, VirtualNetwork(sched), gw_config, trace).start()
    assert len(sched._heap) <= 1 + len(gw_config.faults.disconnects)


def test_run_sends_every_update_in_trace_order():
    trace = materialised(generate_trace(config(bays=50, occ=20.0, free=10.0), DAY_MS))
    sched, session = recording_gateway(trace)
    sched.run_until(EPOCH_MS + DAY_MS)
    assert len(trace.items) > 1000
    assert sent_updates(session) == [(i.bay_id, i.new_status) for i in trace.items]


ITEM_ROW = '{"bayId":%s,"kind":"item","simTs":%s,"status":"%s"}\n'
NEAR_FIXED_ROWS = {
    "bay 0": ITEM_ROW % (0, 5, "free"),
    "bay 2**63 - 1": ITEM_ROW % (2**63 - 1, 5, "free"),
    "bay 2**63": ITEM_ROW % (2**63, 5, "free"),
    "simTs 0": ITEM_ROW % (1, 0, "free"),
    "simTs 10**18": ITEM_ROW % (1, 10**18, "free"),
    "simTs 2**63 - 1": ITEM_ROW % (1, 2**63 - 1, "free"),
    "simTs 2**63": ITEM_ROW % (1, 2**63, "free"),
    "simTs 10**19 - 1": ITEM_ROW % (1, 10**19 - 1, "free"),
    "simTs 10**19": ITEM_ROW % (1, 10**19, "free"),
    "bay 01": ITEM_ROW % ("01", 5, "free"),
    "simTs 05": ITEM_ROW % (1, "05", "free"),
    "unknown": ITEM_ROW % (1, 5, "unknown"),
    "reordered keys": '{"kind":"item","bayId":1,"simTs":5,"status":"free"}\n',
    "meta after an item": '{"bayCount":2,"durationMs":9,"kind":"meta","lotId":"L"}\n',
}


def trace_outcome(path):
    """read_trace's header and items, in repr, or the text of its error."""
    try:
        trace = read_trace(path)
        items = tuple(trace.items)
    except InvariantViolationError as exc:
        return f"error: {exc}"
    return repr((trace.lot_id, trace.bay_count, trace.duration_ms, trace.initial, items))


@pytest.mark.parametrize("end", [" ", "\t", "\r", " \t\r "])
def test_read_trace_reads_a_row_with_trailing_json_whitespace_as_before(tmp_path, end):
    path = tmp_path / "trace.jsonl"
    rows = [ITEM_ROW % (1, ts, "free") for ts in (5, 9)]  # the second on the fixed-field path
    path.write_text("".join(rows))
    want = trace_outcome(path)
    path.write_text("".join(row[:-1] + end + "\n" for row in rows))
    assert trace_outcome(path) == want and want.startswith("(")


@pytest.mark.parametrize("line", [1, 2])
def test_read_trace_refuses_a_row_json_loads_refuses_for_a_form_feed(tmp_path, line):
    path = tmp_path / "trace.jsonl"
    rows = ['{"simTs":1,"bayId":1,"status":"free"}\n', ITEM_ROW % (1, 5, "free")]
    rows[line - 1] = rows[line - 1][:-1] + "\f\n"
    with pytest.raises(ValueError):
        json.loads(rows[line - 1])
    path.write_text("".join(rows))
    with pytest.raises(InvariantViolationError, match=f"^{re.escape(str(path))}:{line}: "):
        tuple(read_trace(path).items)


@pytest.mark.parametrize("row", NEAR_FIXED_ROWS.values(), ids=NEAR_FIXED_ROWS)
def test_read_trace_reads_a_row_alike_on_the_fixed_field_path_and_off_it(
    tmp_path, monkeypatch, row
):
    path = tmp_path / "trace.jsonl"
    # Free items of bays 1 and 2**63 - 1 first, so the row's bay may already be parsed.
    save_trace(items_trace([(0, 1, "free"), (0, 2**63 - 1, "free")], bays=2), path)
    with open(path, "a") as fh:
        fh.write(row * 2)
    fixed = trace_outcome(path)
    # (?!) fails the fixed-row alternative only, so every row is decoded.
    monkeypatch.setattr(gateway, "_ROWS", re.compile(b"(?!)" + gateway._ROWS.pattern))
    assert fixed == trace_outcome(path)


def parse_bay_calls(monkeypatch):
    """The (bay id, status) of each protocol.parse_bay call, appended as it is made."""
    calls = []
    parse_bay = protocol.parse_bay
    monkeypatch.setattr(protocol, "parse_bay", lambda b, s: calls.append((b, s)) or parse_bay(b, s))
    return calls


@pytest.mark.parametrize("cap", [gateway.MAX_TRACE_BAYS, 3])
def test_a_read_of_a_trace_parses_each_bay_and_status_once_up_to_its_cap(
    tmp_path, monkeypatch, cap
):
    monkeypatch.setattr(gateway, "MAX_TRACE_BAYS", cap)
    trace = materialised(generate_trace(config(bays=5, seed=3, occ=20.0, free=10.0), DAY_MS))
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    calls = parse_bay_calls(monkeypatch)
    assert materialised(read_trace(path)) == trace
    want = [(bay_id, status.value) for bay_id, status in trace.initial.items()]
    kept = set()  # the first ``cap`` item pairs are kept; any other is parsed each time
    for pair in ((item.bay_id, item.new_status.value) for item in trace.items):
        if pair not in kept:
            want.append(pair)
            if len(kept) < cap:
                kept.add(pair)
    assert len(kept) == min(cap, 10) and len(trace.items) > 100
    assert calls == want
