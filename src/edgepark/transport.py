"""Message transports: an in-memory network and a TCP JSON-lines network.

Both carry one encoded line per send, with per-session FIFO ordering, and
raise ConnectionRefusedError from connect() when nothing is accepting.
Both hand each received line and the peer's close to one receiving side,
``_LineEndpoint``, on the owning scheduler: a line that does not decode
is logged and dropped and the session stays up. Handlers
(conn.on_message / conn.on_close) always run on that scheduler, so
component logic stays single-threaded under either transport.
"""

from __future__ import annotations

import logging
import socket
import threading
from typing import Any, Callable, NamedTuple

from . import protocol
from .clock import RealScheduler, VirtualScheduler

log = logging.getLogger(__name__)
MAX_DECODED_UPDATES = 1024  # distinct 'baysUpdate' lines a connection keeps decoded,
MAX_DECODED_LINE_BYTES = 256  # each at most this long


def parse_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise ValueError(f"address must be host:port, a port of 0-65535, got {address!r}")
    return host, int(port)


class _LineEndpoint:
    """What either transport does with a received line and the peer's close. A
    delivered message is read-only: equal 'baysUpdate' lines share one."""

    closed: bool = False
    on_message: Callable[[dict[str, Any]], None] | None = None
    on_close: Callable[[], None] | None = None

    def __init__(self, label: str) -> None:
        self.label = label
        self._decoded: dict[bytes, dict[str, Any]] = {}

    def _deliver(self, line: bytes) -> None:
        if self.closed or self.on_message is None:
            return
        message = self._decoded.get(line)
        if message is None:
            try:
                message = protocol.decode_line(line)
            except protocol.ProtocolError as exc:
                log.warning("%s: dropping malformed line: %s", self.label, exc)
                return
            if (message["type"] == "baysUpdate" and len(line) <= MAX_DECODED_LINE_BYTES
                    and len(self._decoded) < MAX_DECODED_UPDATES):
                self._decoded[line] = message
        self.on_message(message)

    def _deliver_close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.on_close is not None:
            self.on_close()


class VirtualConn(_LineEndpoint):
    """One endpoint of an in-memory session."""

    def __init__(self, sched: VirtualScheduler, label: str) -> None:
        super().__init__(label)
        self._sched = sched
        self.peer: VirtualConn | None = None

    def send(self, line: bytes) -> int:
        """Deliver exactly one encoded line to the peer at the current instant.

        Returns the wire bytes. The peer decodes the line on delivery, as a
        socket reader would, so a sender never sees its peer's parse error.
        A socket splits a payload at newlines; this transport does not, so a
        payload of several lines is decoded as one and dropped.
        """
        if self.closed:
            raise ConnectionError(f"{self.label}: send on closed connection")
        peer = self.peer
        if peer is not None and not peer.closed:
            self._sched.post(peer._deliver, line)
        return len(line)

    # perfbench/tracing.py looks both names up in the class __dict__ to patch
    # them; drop this alias once the tracer no longer patches it.
    send_raw = send

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        peer = self.peer
        if peer is not None and not peer.closed:
            self._sched.post(peer._deliver_close)


class VirtualListener(NamedTuple):
    """An in-process listener; closing it frees its address."""

    listeners: dict[str, VirtualListener]
    address: str
    on_accept: Callable[[VirtualConn], None]

    def close(self) -> None:
        if self.listeners.get(self.address) is self:
            del self.listeners[self.address]


class VirtualNetwork:
    """Address book of in-process listeners over one virtual scheduler."""

    def __init__(self, sched: VirtualScheduler) -> None:
        self._sched = sched
        self._listeners: dict[str, VirtualListener] = {}

    def listen(self, address: str, on_accept: Callable[[VirtualConn], None]) -> VirtualListener:
        if address in self._listeners:
            raise OSError(f"address already in use: {address}")
        listener = self._listeners[address] = VirtualListener(self._listeners, address, on_accept)
        return listener

    def connect(self, address: str) -> VirtualConn:
        listener = self._listeners.get(address)
        if listener is None:
            raise ConnectionRefusedError(f"nothing listening on {address}")
        client = VirtualConn(self._sched, f"client->{address}")
        server = VirtualConn(self._sched, f"server@{address}")
        client.peer = server
        server.peer = client
        # The acceptor may refuse (fault injection) by raising.
        listener.on_accept(server)
        return client


class SocketConn(_LineEndpoint):
    """TCP session endpoint; a reader thread feeds the scheduler."""

    def __init__(self, sched: RealScheduler, sock: socket.socket, label: str) -> None:
        super().__init__(label)
        self._sched = sched
        self._sock = sock
        self._lock = threading.Lock()
        self._reader = threading.Thread(target=self._read_loop, name=f"rx-{label}", daemon=True)

    def start_reader(self) -> None:
        self._reader.start()

    def send(self, line: bytes) -> int:
        """Write exactly one encoded line to the socket; returns its bytes."""
        with self._lock:
            if self.closed:
                raise ConnectionError(f"{self.label}: send on closed connection")
            try:
                self._sock.sendall(line)
            except OSError as exc:
                raise ConnectionError(f"{self.label}: {exc}") from exc
        return len(line)

    def close(self) -> None:
        with self._lock:
            if self.closed:
                return
            self.closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    def _read_loop(self) -> None:
        try:
            with self._sock.makefile("rb") as stream:
                for line in stream:
                    self._sched.post(self._deliver, line)
        except (OSError, ValueError):
            pass
        # The stream is over, whoever ended it: release the socket here, as
        # close() is a no-op once the peer's close has been delivered.
        with self._lock:
            self._sock.close()
        self._sched.post(self._deliver_close)


class SocketNetwork:
    """TCP implementation bound to one RealScheduler."""

    def __init__(self, sched: RealScheduler) -> None:
        self._sched = sched

    def listen(self, address: str, on_accept: Callable[[SocketConn], None]) -> socket.socket:
        """Bind and accept on a daemon thread; closing the returned socket ends it."""
        host, port = parse_address(address)
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind((host, port))
            server.listen(16)
        except OSError:
            server.close()
            raise

        def accept_loop() -> None:
            while True:
                try:
                    sock, peer = server.accept()
                except OSError:
                    return
                conn = SocketConn(self._sched, sock, f"session-{peer[0]}:{peer[1]}")
                self._sched.post(self._admit, on_accept, conn)

        threading.Thread(target=accept_loop, name=f"accept-{address}", daemon=True).start()
        return server

    @staticmethod
    def _admit(on_accept: Callable[[SocketConn], None], conn: SocketConn) -> None:
        try:
            on_accept(conn)
        except ConnectionRefusedError:
            conn.close()
            return
        conn.start_reader()

    def connect(self, address: str) -> SocketConn:
        host, port = parse_address(address)
        try:
            sock = socket.create_connection((host, port), timeout=10)
        except OSError as exc:
            raise ConnectionRefusedError(f"connect to {address} failed: {exc}") from exc
        sock.settimeout(None)
        conn = SocketConn(self._sched, sock, f"client->{address}")
        conn.start_reader()
        return conn
