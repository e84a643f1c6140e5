"""Callback order: every shipped scenario runs the same callbacks in the same order.

The virtual scheduler is the simulator's one source of ordering. Each
callback it runs is recorded as (virtual now, qualname), and a delivery
also by its connection's label, which names the component it serves.
The sequence is hashed and pinned per scenario. A change to the queue,
the transport or the gateway's trace dispatch must leave every digest as
recorded; the artifact digests of test_golden.py could miss a reordering
that happens to write the same bytes.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from edgepark import harness
from edgepark.clock import VirtualScheduler

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# (callbacks run, digest), recorded before the single pending trace dispatch.
ORDER: dict[str, tuple[int, str]] = {
    "calibrated_week": (30889, "3bd31a8f75669915"),
    "crash_day": (6013, "dca69a536138227e"),
    "disconnect_day": (5226, "fe108540b3b7e2ec"),
    "idle_day": (4331, "783fb8891cacd0da"),
    "overnight": (8662, "d0423a98312fbea5"),
    "traffic_day": (15017, "bbaf527b3b1dc156"),
}


def callback_order_digest(monkeypatch, scenario_path: Path, out_dir: Path) -> tuple[int, str]:
    """(callbacks run, sha256 prefix of their sequence) for one run_sim."""
    digest = hashlib.sha256()
    ran = 0
    real_call_at = VirtualScheduler.call_at

    def recording_call_at(sched, due_ms, fn, *args, **kwargs):
        def run(*fn_args):
            nonlocal ran
            name = getattr(fn, "__qualname__", repr(fn))
            label = fn.__self__.label if name.startswith("_LineEndpoint._deliver") else ""
            digest.update(f"{sched.now_ms()} {name} {label}\n".encode())
            ran += 1
            fn(*fn_args)

        return real_call_at(sched, due_ms, run, *args, **kwargs)

    monkeypatch.setattr(VirtualScheduler, "call_at", recording_call_at)
    harness.run_sim(harness.parse_scenario(scenario_path), out_dir)
    return ran, digest.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.scenario")))
def test_callback_order_matches_recorded(monkeypatch, tmp_path, name):
    got = callback_order_digest(monkeypatch, SCENARIO_DIR / f"{name}.scenario", tmp_path / "run")
    assert got == ORDER.get(name)
