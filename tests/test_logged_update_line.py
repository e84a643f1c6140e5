"""The agent's logged update line is eventlog.event_line of the update, byte for
byte, for any lot, bay, wire status and ts, on its first delivery and its repeats."""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from edgepark import eventlog, protocol  # noqa: E402
from edgepark.agent import AgentConfig, EdgeAgentCore  # noqa: E402
from edgepark.clock import VirtualScheduler  # noqa: E402
from edgepark.occupancy import BayStatus, EventKind  # noqa: E402
from edgepark.transport import VirtualNetwork  # noqa: E402


def logged_lines(log_dir: Path, ts: int, lot_id: str, bay_id: int, status: str) -> list[bytes]:
    """agent.log after a snapshot of the bay at ts, then its update delivered at
    ts and again at ts + 1; the window closes a day after ts."""
    sched = VirtualScheduler(ts)
    net = VirtualNetwork(sched)
    update = protocol.bays_update_line(lot_id, bay_id, status)

    def accept(conn):
        def handle(msg):
            if msg["type"] == "hello":
                conn.send(protocol.encode_line(protocol.bays_message(lot_id, [(bay_id, "free")])))
                conn.send(update)
                sched.call_at(ts + 1, conn.send, update)

        conn.on_message = handle
        conn.on_close = lambda: None

    net.listen("sim://gw", accept)
    agent = EdgeAgentCore(sched, net, AgentConfig(
        "sim://gw", "sim://hub", log_dir / "agent.log", log_dir / "csv", rollup_epoch_ms=ts,
    ))
    try:
        agent.start()
        sched.run_until(ts + 1)
    finally:
        agent.kill()
    return (log_dir / "agent.log").read_bytes().splitlines(keepends=True)


@settings(max_examples=60, deadline=None)
@given(
    lot_id=st.text(),
    bay_id=st.integers(1, 2**63 - 1),
    status=st.sampled_from(protocol.WIRE_STATUSES),
    ts=st.integers(0, 2**62),
)
@example(lot_id='L"\\é😀', bay_id=1, status="occupied", ts=0)
def test_the_logged_update_line_is_event_line_of_the_update(lot_id, bay_id, status, ts):
    expected = [
        eventlog.event_line(EventKind.UPDATE, at, lot_id, bay_id, BayStatus(status))
        for at in (ts, ts + 1)
    ]
    assert expected[0] == protocol.encode_line(
        {"ts": ts, "lotId": lot_id, "bayId": bay_id, "status": status, "src": "update"}
    )
    # The agent refuses a lot id outside is_lot_id's alphabet; widened here, so
    # that the escaping of any text goes through the agent's own line.
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as log_dir:
        patch.setattr(protocol, "is_lot_id", lambda value: isinstance(value, str))
        lines = logged_lines(Path(log_dir), ts, lot_id, bay_id, status)
    assert lines[1:] == expected
