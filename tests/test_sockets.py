"""Real-TCP integration: the services speak the same protocol over sockets."""

import json
import socket
import threading
import time

import pytest

from edgepark import protocol
from edgepark.agent import AgentConfig, BackoffPolicy, EdgeAgentCore
from edgepark.clock import RealScheduler
from edgepark.gateway import GatewayConfig, GatewayCore, SensorModel
from edgepark.hub import HubCore, RollupStore
from edgepark.occupancy import RollupRecord
from edgepark.transport import SocketNetwork

from conftest import EPOCH_MS, items_trace


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class LineClient:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        self.stream = self.sock.makefile("rb")

    def send(self, message):
        self.sock.sendall(protocol.encode_line(message))

    def recv(self):
        line = self.stream.readline()
        if not line:
            return None
        return json.loads(line)

    def close(self):
        self.sock.close()


@pytest.fixture
def gateway_rig():
    """Gateway core on a real socket with a 90-minute scripted trace."""
    port = free_port()
    sched = RealScheduler(warp=600.0, origin_ms=EPOCH_MS)
    net = SocketNetwork(sched)
    trace = items_trace(
        [(600_000, 1, "occupied"), (1_200_000, 2, "occupied"), (1_800_000, 1, "free")],
        bays=22,
        duration_ms=5_400_000,
    )
    config = GatewayConfig(f"127.0.0.1:{port}", "LOT-A", 22, SensorModel(450, 990, 0))
    core = GatewayCore(sched, net, config, trace)
    core.start()
    sched.start()
    yield port, trace, core
    sched.stop()  # joins its thread, so no callback runs during core.stop()
    core.stop()


def test_gateway_hello_snapshot_and_ping(gateway_rig):
    port, _trace, _core = gateway_rig
    client = LineClient(port)
    client.send(protocol.hello_message("itest"))
    snapshot = client.recv()
    assert snapshot["type"] == "bays"
    assert len(snapshot["data"][0]["bays"]) == 22
    client.sock.sendall(protocol.ping_line(7))
    # Trace pushes may interleave with the pong; scan for it.
    for _ in range(5):
        reply = client.recv()
        if reply and reply["type"] == "pong":
            assert reply == {"type": "pong", "seq": 7}
            break
    else:
        pytest.fail("no pong received")
    client.close()


def test_gateway_session_survives_deeply_nested_line(gateway_rig):
    port, _trace, _core = gateway_rig
    client = LineClient(port)
    client.sock.sendall(b"[" * 100_000 + b"\n")  # nested past the recursion limit
    client.sock.sendall(protocol.ping_line(7))
    # No hello was sent, so no trace push comes before the pong.
    assert client.recv() == {"type": "pong", "seq": 7}
    client.close()


def test_gateway_rejects_unknown_type(gateway_rig):
    port, _trace, _core = gateway_rig
    client = LineClient(port)
    client.send({"type": "abracadabra"})
    reply = client.recv()
    assert reply["type"] == "error"
    assert client.recv() is None  # session closed
    client.close()


def test_gateway_midrun_join_snapshot_consistent(gateway_rig):
    port, trace, core = gateway_rig
    # 3 real seconds at warp 600 = 30 simulated minutes: after item 1 (10 min),
    # comfortably before item 2 (20 min would be 2 s; use the 10-30 min gap).
    time.sleep(2.5)  # ~25 simulated minutes
    client = LineClient(port)
    client.send(protocol.hello_message("late"))
    snapshot = client.recv()
    statuses = {b["id"]: b["status"] for b in snapshot["data"][0]["bays"]}
    # The trace folded to 25 min: mid-gap, far from both items.
    expected_statuses = {bay: status.value for bay, status in trace.initial.items()}
    for sim_ts, bay_id, status in trace.items:
        if sim_ts <= 25 * 60_000:
            expected_statuses[bay_id] = status.value
    del statuses[2], expected_statuses[2]  # bay 2 flips at 20 min, near the probe
    assert statuses == expected_statuses
    client.close()


def test_gateway_bind_failure_surfaces_as_oserror():
    port = free_port()
    blocker = socket.socket()
    blocker.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 0)
    blocker.bind(("127.0.0.1", port))
    blocker.listen(1)
    sched = RealScheduler(origin_ms=EPOCH_MS)
    net = SocketNetwork(sched)
    core = GatewayCore(
        sched, net,
        GatewayConfig(f"127.0.0.1:{port}", "LOT", 1, SensorModel(450, 990, 0)),
        items_trace([], bays=1),
    )
    with pytest.raises(OSError):
        core.start()
    blocker.close()
    sched.stop()


def test_conn_closed_by_peer_runs_on_close_and_releases_its_socket():
    with socket.socket() as server:
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        sched = RealScheduler()
        sched.start()
        try:
            conn = SocketNetwork(sched).connect(f"127.0.0.1:{server.getsockname()[1]}")
            closed = threading.Event()
            conn.on_close = closed.set
            peer, _ = server.accept()
            peer.close()
            assert closed.wait(5)
            assert conn._sock.fileno() == -1  # released, not left to the collector
        finally:
            sched.stop()


@pytest.fixture
def hub_rig(tmp_path):
    port = free_port()
    sched = RealScheduler()
    net = SocketNetwork(sched)
    store = RollupStore(tmp_path / "store", fsync=False)
    core = HubCore(sched, net, store, f"127.0.0.1:{port}")
    core.start()
    sched.start()
    yield port, store
    sched.stop()
    core.stop()


def test_hub_ack_dedupe_and_queries_over_tcp(hub_rig):
    port, store = hub_rig
    client = LineClient(port)
    raw = protocol.encode_rollup_envelope(
        "LOT-A", EPOCH_MS, EPOCH_MS + 86_400_000, [RollupRecord(1, 60, 0.0007)]
    )
    client.sock.sendall(raw)
    assert client.recv() == {"type": "ack", "key": f"LOT-A:{EPOCH_MS}"}
    client.sock.sendall(raw)
    assert client.recv()["type"] == "ack"
    assert len(store) == 1
    client.send({"type": "queryDaily", "lotId": "LOT-A", "windowStart": EPOCH_MS})
    reply = client.recv()
    assert reply["type"] == "daily" and len(reply["records"]) == 1
    client.send({"type": "rollup", "bogus": True})
    assert client.recv()["type"] == "error"
    client.close()


def test_full_stack_over_tcp(tmp_path):
    """Gateway + hub + agent as real socket services under heavy time warp."""
    warp = 1200.0
    gw_port, hub_port = free_port(), free_port()

    gw_sched = RealScheduler(warp=warp, origin_ms=EPOCH_MS)
    gw_net = SocketNetwork(gw_sched)
    trace = items_trace(
        [(900_000, 3, "occupied"), (2_700_000, 3, "free")],
        bays=5,
        duration_ms=2 * 3_600_000,
    )
    gateway = GatewayCore(
        gw_sched, gw_net,
        GatewayConfig(f"127.0.0.1:{gw_port}", "LOT-A", 5, SensorModel(450, 990, 0)),
        trace,
    )
    gateway.start()

    hub_sched = RealScheduler(warp=warp, origin_ms=EPOCH_MS)
    hub_net = SocketNetwork(hub_sched)
    store = RollupStore(tmp_path / "store", fsync=False)
    hub = HubCore(hub_sched, hub_net, store, f"127.0.0.1:{hub_port}")
    hub.start()

    agent_sched = RealScheduler(warp=warp, origin_ms=EPOCH_MS)
    agent_net = SocketNetwork(agent_sched)
    config = AgentConfig(
        gateway_address=f"127.0.0.1:{gw_port}",
        cloud_address=f"127.0.0.1:{hub_port}",
        log_path=tmp_path / "agent.log",
        csv_dir=tmp_path / "csv",
        poll_interval_sec=60,
        rollup_period_sec=3600,
        reconnect_backoff=BackoffPolicy(500, 1.0, 500),
        rollup_epoch_ms=EPOCH_MS,
        ack_timeout_ms=60_000,
    )
    agent = EdgeAgentCore(agent_sched, agent_net, config)
    agent.start()

    for sched in (gw_sched, hub_sched, agent_sched):
        sched.start()
    try:
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and len(store) < 2:
            time.sleep(0.1)
        assert len(store) >= 1, "no roll-up reached the hub"
        records = store.query_daily("LOT-A", EPOCH_MS)
        assert records is not None and len(records) == 5
        # Bay 3 was occupied 15 to 45 minutes into the first hour window.
        bay3 = next(r for r in records if r.bay_id == 3)
        assert 0 < bay3.occupation_time_sec <= 3600
        assert agent.pings_sent > 0
        csvs = sorted((tmp_path / "csv").glob("rollup_*.csv"))
        assert csvs, "no CSV written"
    finally:
        for sched in (gw_sched, hub_sched, agent_sched):
            sched.stop()
        agent.stop()
        gateway.stop()
        hub.stop()
