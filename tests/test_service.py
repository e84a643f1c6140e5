"""Live services: the real-time dispatch loop and the crash-only runner."""

import json
import socket
import time

import pytest

from edgepark import cli, protocol
from edgepark.clock import RealScheduler
from edgepark.harness import GATEWAY_ADDRESS, HUB_ADDRESS
from edgepark.hub import HubCore, RollupStore
from edgepark.occupancy import RollupRecord

from conftest import EPOCH_MS


def test_run_reraises_the_first_failing_callback_and_runs_no_later_one():
    sched = RealScheduler(warp=1000.0, origin_ms=EPOCH_MS)
    ran = []

    def boom():
        raise RuntimeError("boom")

    sched.call_at(EPOCH_MS, ran.append, 1)
    sched.call_at(EPOCH_MS + 10, boom)
    sched.call_at(EPOCH_MS + 20, ran.append, 2)
    with pytest.raises(RuntimeError, match="boom"):
        sched.run()
    assert ran == [1]


def test_a_callback_that_stops_the_loop_ends_run_and_the_thread():
    sched = RealScheduler(warp=1000.0, origin_ms=EPOCH_MS)
    sched.call_at(EPOCH_MS + 10, sched.stop)
    sched.run()  # returns once stop() runs
    threaded = RealScheduler(warp=1000.0, origin_ms=EPOCH_MS)
    threaded.call_at(EPOCH_MS + 10, threaded.stop)  # stop() on its own thread
    threaded.start()
    threaded._thread.join(5)
    assert not threaded._thread.is_alive()


class RecordedCore:
    """A core whose stops are counted; start runs the given function, and
    stop raises stop_error if one is given."""

    def __init__(self, start, inner=None, stop_error=None):
        self._start = start
        self.inner = inner
        self.stop_error = stop_error
        self.stops = 0

    def start(self):
        self._start()

    def stop(self):
        self.stops += 1
        if self.inner is not None:
            self.inner.stop()
        if self.stop_error is not None:
            raise self.stop_error


def serve_recorded(sched, start, stop_error=None, **kwargs):
    built = []

    def build(net):
        built.append(RecordedCore(start, stop_error=stop_error))
        return built[0]

    code = cli.serve(sched, build, "test service", **kwargs)
    return code, built[0]


def test_serve_returns_crash_for_a_raising_callback_and_stops_the_core():
    sched = RealScheduler(warp=1000.0)

    def boom():
        raise RuntimeError("callback failed")

    code, core = serve_recorded(sched, lambda: sched.post(boom))
    assert code == cli.EXIT_CRASH
    assert core.stops == 1


def test_serve_returns_ok_on_keyboard_interrupt_and_stops_the_core():
    sched = RealScheduler(warp=1000.0)

    def interrupt():
        raise KeyboardInterrupt

    code, core = serve_recorded(sched, lambda: sched.post(interrupt))
    assert code == cli.EXIT_OK
    assert core.stops == 1


def test_serve_returns_ok_at_until_ms_and_stops_the_core():
    sched = RealScheduler(warp=1000.0)
    ran = []
    code, core = serve_recorded(
        sched, lambda: sched.post(ran.append, 1), until_ms=sched.now_ms() + 100
    )
    assert code == cli.EXIT_OK
    assert ran == [1]
    assert core.stops == 1


def test_serve_returns_crash_for_a_stop_that_raises_after_a_clean_end():
    # Like an agent whose last log flush fails with ENOSPC as it closes.
    sched = RealScheduler(warp=1000.0)
    code, core = serve_recorded(
        sched, lambda: None, stop_error=OSError(28, "No space left on device"),
        until_ms=sched.now_ms() + 100,
    )
    assert code == cli.EXIT_CRASH
    assert core.stops == 1


def test_serve_returns_crash_for_a_stop_that_raises_after_a_crash():
    sched = RealScheduler(warp=1000.0)

    def boom():
        raise RuntimeError("callback failed")

    code, core = serve_recorded(
        sched, lambda: sched.post(boom), stop_error=OSError(28, "No space left on device")
    )
    assert code == cli.EXIT_CRASH
    assert core.stops == 1


def test_serve_returns_crash_for_a_port_in_use_and_stops_the_core(tmp_path):
    with socket.socket() as blocker:
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        sched = RealScheduler()
        built = []

        def build(net):
            hub = HubCore(sched, net, RollupStore(tmp_path, fsync=False), f"127.0.0.1:{port}")
            built.append(RecordedCore(hub.start, inner=hub))
            return built[0]

        assert cli.serve(sched, build, "hub") == cli.EXIT_CRASH
    assert built[0].stops == 1


def test_hub_whose_store_cannot_open_exits_crash(tmp_path):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    assert cli.main_hub(["--listen", "127.0.0.1:0", "--store-dir", str(not_a_dir)]) == (
        cli.EXIT_CRASH
    )


def test_gateway_returns_ok_when_its_duration_ends():
    started = time.monotonic()
    code = cli.main_gateway(
        ["--listen", "127.0.0.1:0", "--bays", "3", "--duration", "1h", "--time-warp", "3600"]
    )
    elapsed = time.monotonic() - started
    assert code == cli.EXIT_OK
    assert 0.9 <= elapsed < 5


@pytest.mark.parametrize("duration", ["0", "-1h"])
def test_gateway_with_a_duration_that_is_not_positive_exits_2(duration, capsys):
    assert cli.main_gateway(["--listen", "127.0.0.1:0", f"--duration={duration}"]) == (
        cli.EXIT_CONFIG
    )
    assert "duration must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("warp", ["0", "-1", "nan", "inf"])
def test_gateway_with_a_bad_time_warp_exits_2(warp, capsys):
    argv = ["--listen", "127.0.0.1:0", "--bays", "1", f"--time-warp={warp}"]
    assert cli.main_gateway(argv) == cli.EXIT_CONFIG
    assert "time warp must be positive" in capsys.readouterr().err


def test_gateway_with_a_bad_lot_id_exits_2(capsys):
    argv = ["--listen", "127.0.0.1:0", "--lot-id", "a/b", "--duration", "1s"]
    assert cli.main_gateway(argv) == cli.EXIT_CONFIG
    assert "lot id must be" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# hostile input: a live service ends at the first exception that escapes a
# handler, so each handler of outside input must answer or drop a bad line.

HOUR_MS = 3_600_000
HOSTILE_VALUES = [
    True, None, -1, 0, 2**63, -(2**63) - 1, int("9" * 4300), -int("9" * 4300),
    0.5, float("nan"), float("inf"), "x", "\ud800", [], {}, [[[]]],
]


def hostile_variants(value):
    """value with one part at a time replaced by each hostile value or left out."""
    yield from HOSTILE_VALUES
    if isinstance(value, dict):
        for key, inner in value.items():
            yield {k: v for k, v in value.items() if k != key}
            for variant in hostile_variants(inner):
                yield dict(value, **{key: variant})
    elif isinstance(value, list):
        for i, inner in enumerate(value):
            for variant in hostile_variants(inner):
                yield value[:i] + [variant] + value[i + 1:]


def hostile_lines(*templates):
    return [protocol.encode_line(v) for t in templates for v in hostile_variants(t)]


def send_each_on_a_new_link(rig, address, lines):
    for line in lines:
        conn = rig.net.connect(address)
        conn.on_message = conn.on_close = lambda *_: None
        conn.send(line)
        rig.run_for(0)
        conn.close()


def test_no_hostile_line_ends_the_hub_the_gateway_or_the_agent(rig_factory):
    rig = rig_factory(rollup_period_sec=3600)
    rig.run_for(HOUR_MS + 60_000)  # one hourly window uploaded: the agent has a hub link
    assert len(rig.store) == 1 and rig.agent.hub_conn is not None
    envelope = json.loads(protocol.encode_rollup_envelope(
        "LOT-A", EPOCH_MS + 5 * HOUR_MS, EPOCH_MS + 6 * HOUR_MS,
        [RollupRecord(1, 60, 0.0167), RollupRecord(2, 0, 0.0)],
    ))
    send_each_on_a_new_link(rig, HUB_ADDRESS, hostile_lines(
        envelope,
        {"type": "queryDaily", "lotId": "LOT-A", "windowStart": EPOCH_MS},
        {"type": "queryWeekly", "lotId": "LOT-A", "weekStart": EPOCH_MS},
    ))
    send_each_on_a_new_link(rig, GATEWAY_ADDRESS, hostile_lines(
        {"type": "hello", "client": "probe", "proto": 1}, {"type": "ping", "seq": 1},
    ))
    for line in hostile_lines(
        protocol.bays_message("LOT-A", [(1, "free"), (2, "occupied")]),
        protocol.decode_line(protocol.bays_update_line("LOT-A", 1, "occupied")),
        {"type": "pong", "seq": 1}, {"type": "error", "reason": "x"},
    ):
        rig.agent.session.peer.send(line)  # as the gateway
        rig.run_for(0)
    for line in hostile_lines({"type": "ack", "key": f"LOT-A:{EPOCH_MS}"}):
        rig.agent.hub_conn.peer.send(line)  # as the hub
        rig.run_for(0)
    rig.run_for(HOUR_MS)  # every component still serves
    assert rig.agent._gap_open is None
    assert rig.store.query_daily("LOT-A", EPOCH_MS + HOUR_MS) is not None
