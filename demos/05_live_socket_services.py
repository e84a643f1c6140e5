#!/usr/bin/env python3
"""Run the three services as real TCP peers on localhost, time-warped.

Same cores as the virtual-clock harness, but wired to sockets and a
wall-clock scheduler at 900x warp: two simulated hours pass in eight real
seconds. Equivalent to running the edgepark-gateway, edgepark-hub, and
edgepark-agent commands in three terminals.
"""

import socket
import tempfile
import time
from pathlib import Path

from edgepark.agent import AgentConfig, BackoffPolicy, EdgeAgentCore
from edgepark.clock import RealScheduler
from edgepark.gateway import GatewayConfig, GatewayCore, SensorModel, generate_trace
from edgepark.hub import HubCore, RollupStore
from edgepark.transport import SocketNetwork

WARP = 900.0
START_MS = 1_542_585_600_000  # 2018-11-19T00:00:00Z


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def main():
    with tempfile.TemporaryDirectory(prefix="edgepark_live_") as tmp:
        run_services(Path(tmp))


def run_services(work):
    """Two simulated hours of the live services, their files under work."""
    gw_port, hub_port = free_port(), free_port()

    gw_sched = RealScheduler(warp=WARP, origin_ms=START_MS)
    gw_config = GatewayConfig(
        f"127.0.0.1:{gw_port}", "DEMO-LOT", bay_count=8,
        model=SensorModel(20, 40, seed=7),
    )
    trace = generate_trace(gw_config, 2 * 3_600_000)
    gateway = GatewayCore(gw_sched, SocketNetwork(gw_sched), gw_config, trace)
    gateway.start()

    hub_sched = RealScheduler(warp=WARP, origin_ms=START_MS)
    store = RollupStore(work / "hub_store")
    hub = HubCore(hub_sched, SocketNetwork(hub_sched), store, f"127.0.0.1:{hub_port}")
    hub.start()

    agent_sched = RealScheduler(warp=WARP, origin_ms=START_MS)
    agent = EdgeAgentCore(
        agent_sched,
        SocketNetwork(agent_sched),
        AgentConfig(
            gateway_address=f"127.0.0.1:{gw_port}",
            cloud_address=f"127.0.0.1:{hub_port}",
            log_path=work / "agent.log",
            csv_dir=work / "csv",
            rollup_period_sec=3600,
            reconnect_backoff=BackoffPolicy(500, 1.0, 500),
            rollup_epoch_ms=START_MS,
            ack_timeout_ms=60_000,
        ),
    )
    agent.start()

    for sched in (gw_sched, hub_sched, agent_sched):
        sched.start()
    print(f"gateway :{gw_port}, hub :{hub_port}, {gw_config.bay_count} bays over two simulated hours")
    print("letting two simulated hours elapse (about 8 real seconds) ...")

    deadline = time.monotonic() + 12
    while time.monotonic() < deadline and len(store) < 2:
        time.sleep(0.2)

    print(f"\npings sent: {agent.pings_sent}, events ingested: {agent.events_ingested}")
    print(f"hourly roll-ups stored at the hub: {len(store)}")
    for path in sorted((work / "csv").glob("*.csv")):
        print(f"\n{path.name}:")
        for line in path.read_text().splitlines()[:4]:
            print(f"  {line}")

    # Each scheduler first: its stop() joins its thread, so no callback
    # runs while its core stops.
    for sched in (gw_sched, hub_sched, agent_sched):
        sched.stop()
    agent.stop()
    gateway.stop()
    hub.stop()


if __name__ == "__main__":
    main()
