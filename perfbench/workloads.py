"""Benchmark workloads: seeded scenario definitions for the edgepark pipeline.

Each workload is a scenario template; the benchmark's --seed selects the
scenario's seed (see bench.scenario_seed), so the program itself only ever
sees a generated scenario file. Why each workload exists is stated in
BENCHMARK.json. ``scale`` shrinks the bay count for the self-check and
nothing else, so the faults and the window grid stay the same at every
size.

Sizes are chosen so that one repetition takes a few seconds: a run of the
benchmark then collects enough samples per metric that their median moves
little with the noise of a shared machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

# Seed reserved for confirming later performance claims on inputs that no
# tuning has seen; never tune on it.
HELD_OUT_SEED = 104_729

DAY_SEC = 86_400


@dataclass(frozen=True)
class Workload:
    name: str
    bays: int
    days: int
    rollup_period_sec: int
    mean_occupied_min: float
    mean_free_min: float
    faults: tuple[tuple[str, Any], ...] = ()

    def scenario(self, seed: int, scale: float = 1.0) -> dict[str, Any]:
        """Scenario keys for this workload and seed, in file order."""
        values: dict[str, Any] = {
            "name": f"perfbench-{self.name}",
            "seed": seed,
            "lot_id": "LOT-A",
            "bays": max(1, round(self.bays * scale)),
            "mean_occupied_min": self.mean_occupied_min,
            "mean_free_min": self.mean_free_min,
            "days": self.days,
            "start": "2018-11-19T00:00:00Z",
            "rollup_period_sec": self.rollup_period_sec,
        }
        values.update(self.faults)
        return values

    def write_scenario(self, path: Path, seed: int, scale: float = 1.0) -> dict[str, Any]:
        values = self.scenario(seed, scale)
        lines = [f"# perfbench workload {self.name}"]
        lines.extend(f"{key} = {_scenario_value(value)}" for key, value in values.items())
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return values


def _scenario_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ingest_burst",
            bays=125,
            days=2,
            rollup_period_sec=DAY_SEC,
            mean_occupied_min=20.0,
            mean_free_min=10.0,
        ),
        Workload(
            name="window_churn",
            bays=50,
            days=14,
            rollup_period_sec=3600,
            mean_occupied_min=450.0,
            mean_free_min=990.0,
        ),
        Workload(
            name="crash_recovery",
            bays=25,
            days=7,
            rollup_period_sec=3600,
            mean_occupied_min=60.0,
            mean_free_min=120.0,
            faults=(
                # Constant 1 s reconnect backoff bounds the observation gap at
                # the 300 s outage plus one retry, so verify allows 301 s.
                ("backoff_initial_ms", 1000),
                ("backoff_multiplier", 1.0),
                ("backoff_cap_ms", 1000),
                ("inject_gateway_disconnect_at_sec", 36 * 3600),
                ("inject_gateway_disconnect_duration_sec", 300),
                ("inject_agent_kill_at_sec", int(6.5 * DAY_SEC)),
                ("inject_drop_acks", 3),
                ("inject_duplicate_updates", True),
            ),
        ),
    )
}
