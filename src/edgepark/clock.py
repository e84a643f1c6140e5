"""Time sources: a manually stepped virtual scheduler and a warped real one.

Every callback, deliveries included, is scheduled by call_at as (due
epoch-ms, priority, callback) and gets a Handle. Under the virtual
scheduler the harness advances time explicitly, so multi-day scenarios
execute in milliseconds and two runs of the same scenario execute the
exact same callback sequence. The real scheduler dispatches against
the wall clock, optionally warped (simulated seconds per real second),
on the calling thread or on a daemon thread. It is crash-only: the
first callback that raises ends its loop.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Any, Callable

# Same-instant ordering: window roll-ups run before injected faults,
# which run before the gateway's trace dispatch, which runs before
# message deliveries and ordinary timers.
PRIORITY_ROLLUP = 0
PRIORITY_FAULT = 1
PRIORITY_TRACE = 4
PRIORITY_DELIVERY = 5


class Handle:
    """Cancellation token for one scheduled callback."""

    cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _EventQueue:
    """The queue both schedulers share: a heap of (due, priority, seq, handle, fn, args).

    Subclasses supply now_ms() and call_at(), which pushes one entry.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, int, Handle, Callable[..., None], tuple]] = []
        self._seq = itertools.count()

    def call_later(
        self,
        delay_ms: int,
        fn: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_DELIVERY,
    ) -> Handle:
        return self.call_at(self.now_ms() + max(0, int(delay_ms)), fn, *args, priority=priority)

    def post(self, fn: Callable[..., None], *args: Any) -> Handle:
        return self.call_at(self.now_ms(), fn, *args)


class VirtualScheduler(_EventQueue):
    """Deterministic event queue with an explicit clock.

    Callbacks run inline during run_until, in (due, priority, insertion)
    order; exceptions propagate to the caller driving time.
    """

    def __init__(self, start_ms: int) -> None:
        super().__init__()
        self._now = int(start_ms)

    def now_ms(self) -> int:
        return self._now

    def call_at(self, due_ms: int, fn: Callable[..., None], *args: Any,
                priority: int = PRIORITY_DELIVERY) -> Handle:
        due = int(due_ms)
        if due < self._now:
            due = self._now
        handle = Handle()
        heapq.heappush(self._heap, (due, priority, next(self._seq), handle, fn, args))
        return handle

    def run_until(self, end_ms: int) -> None:
        """Execute every callback due at or before end_ms, then set now."""
        end = int(end_ms)
        heap, pop = self._heap, heapq.heappop
        # call_at never pushes a due before now, so popping never moves now back.
        while heap and heap[0][0] <= end:
            due, _prio, _seq, handle, fn, args = pop(heap)
            self._now = due
            if not handle.cancelled:
                fn(*args)
        if end > self._now:
            self._now = end


class RealScheduler(_EventQueue):
    """Dispatch loop over the wall clock, optionally time-warped.

    now_ms() reads origin + elapsed*warp, so components schedule in
    simulated epoch milliseconds exactly as they do under the virtual
    scheduler. post() is safe from any thread (socket readers use it);
    all callbacks execute on the one thread running the loop.
    """

    def __init__(self, *, warp: float = 1.0, origin_ms: int | None = None) -> None:
        if not 0 < warp < float("inf"):  # NaN too
            raise ValueError("time warp must be positive and finite")
        super().__init__()
        self._warp = float(warp)
        self._origin_ms = int(time.time() * 1000) if origin_ms is None else int(origin_ms)
        self._mono0 = time.monotonic()
        self._cond = threading.Condition()
        self._stopped = False
        self._thread = threading.Thread(target=self.run, name="edgepark-sched", daemon=True)

    def now_ms(self) -> int:
        return self._origin_ms + int((time.monotonic() - self._mono0) * self._warp * 1000)

    def call_at(self, due_ms: int, fn: Callable[..., None], *args: Any,
                priority: int = PRIORITY_DELIVERY) -> Handle:
        handle = Handle()
        with self._cond:
            heapq.heappush(self._heap, (int(due_ms), priority, next(self._seq), handle, fn, args))
            self._cond.notify()
        return handle

    def start(self) -> None:
        """Run the dispatch loop on the scheduler's daemon thread."""
        self._thread.start()

    def stop(self) -> None:
        """End the loop; from another thread, also wait for the daemon thread."""
        with self._cond:
            self._stopped = True
            self._cond.notify()
        if self._thread.is_alive() and self._thread is not threading.current_thread():
            self._thread.join(timeout=5)

    def run(self) -> None:
        """Dispatch on the calling thread until stop(). Crash-only: the first
        callback that raises ends the loop, and its exception reaches the
        caller (under start(), it ends the thread)."""
        while True:
            with self._cond:
                if self._stopped:
                    return
                wait_real = 0.5  # on an empty heap, until a call_at notifies
                if self._heap:
                    wait_real = (self._heap[0][0] - self.now_ms()) / self._warp / 1000.0
                if wait_real > 0:
                    self._cond.wait(timeout=min(wait_real, 0.5))
                    continue
                _due, _prio, _seq, handle, fn, args = heapq.heappop(self._heap)
            if not handle.cancelled:
                fn(*args)
