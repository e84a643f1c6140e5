"""The receiving side both transports share: each connection decodes an update
line once and hands equal lines the same read-only message, in bounded memory."""

import threading

import pytest

from edgepark import protocol, transport
from edgepark.clock import RealScheduler, VirtualScheduler
from edgepark.transport import SocketNetwork, VirtualNetwork

from conftest import EPOCH_MS


class VirtualPair:
    """A client and the server end of one in-memory session."""

    def __init__(self):
        self.sched = VirtualScheduler(EPOCH_MS)
        net = VirtualNetwork(self.sched)
        self.received = []
        self.server = None
        net.listen("sim://server", self._accept)
        self.client = net.connect("sim://server")

    def _accept(self, conn):
        self.server = conn
        conn.on_message = self.received.append

    def deliver(self, lines, delivered):
        for line in lines:
            self.client.send(line)
        self.sched.run_until(EPOCH_MS + 1)
        assert len(self.received) == delivered

    def close(self):
        self.client.close()


class SocketPair:
    """A client and the server end of one loopback TCP session."""

    def __init__(self):
        self.sched = RealScheduler(origin_ms=EPOCH_MS)
        self.sched.start()
        net = SocketNetwork(self.sched)
        self.received = []
        self.server = None
        self._arrived = threading.Condition()
        self.listener = net.listen("127.0.0.1:0", self._accept)
        self.client = net.connect(f"127.0.0.1:{self.listener.getsockname()[1]}")

    def _accept(self, conn):
        self.server = conn
        conn.on_message = self._record

    def _record(self, message):
        with self._arrived:
            self.received.append(message)
            self._arrived.notify()

    def deliver(self, lines, delivered):
        self.client.send(b"".join(lines))
        with self._arrived:
            assert self._arrived.wait_for(lambda: len(self.received) >= delivered, timeout=10)
        assert len(self.received) == delivered

    def close(self):
        self.client.close()
        self.listener.close()
        self.sched.stop()
        if self.server is not None:
            self.server.close()


@pytest.fixture(params=[VirtualPair, SocketPair], ids=["virtual", "socket"])
def pair(request):
    made = request.param()
    yield made
    made.close()


UPDATE_A = protocol.bays_update_line("LOT-A", 1, "occupied")
UPDATE_B = protocol.bays_update_line("LOT-A", 2, "free")
PING = protocol.ping_line(1)
ERROR = protocol.encode_line(protocol.error_message("no"))
MALFORMED = b'{"type":"baysUpdate"\n'


def test_equal_update_lines_share_one_message_and_nothing_else_is_kept(pair):
    lines = [UPDATE_A, UPDATE_B, UPDATE_A, PING, PING, ERROR, ERROR, MALFORMED, MALFORMED,
             UPDATE_A]
    pair.deliver(lines, delivered=8)  # the malformed lines are dropped
    a1, b, a2, ping1, ping2, error1, error2, a3 = pair.received
    assert a1 == protocol.decode_line(UPDATE_A) and b == protocol.decode_line(UPDATE_B)
    assert a1 is a2 is a3
    assert ping1 == ping2 == {"type": "ping", "seq": 1} and ping1 is not ping2
    assert error1 == error2 == {"type": "error", "reason": "no"} and error1 is not error2
    assert pair.server._decoded == {UPDATE_A: a1, UPDATE_B: b}


def test_a_connection_keeps_at_most_its_cap_of_decoded_updates(pair, monkeypatch):
    monkeypatch.setattr(transport, "MAX_DECODED_UPDATES", 4)
    lines = [protocol.bays_update_line("LOT-A", bay, "free") for bay in range(1, 11)]
    pair.deliver(lines + lines[:1] + lines[-1:], delivered=12)
    assert pair.received == [protocol.decode_line(line) for line in lines + lines[:1] + lines[-1:]]
    assert len(pair.server._decoded) <= 4


def test_an_over_long_update_line_is_decoded_but_not_kept(pair):
    long_line = protocol.bays_update_line("L" * transport.MAX_DECODED_LINE_BYTES, 1, "free")
    pair.deliver([long_line, long_line], delivered=2)
    assert pair.received == [protocol.decode_line(long_line)] * 2
    assert pair.received[0] is not pair.received[1]
    assert pair.server._decoded == {}

