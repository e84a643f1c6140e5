"""The paper's traffic claim as a curve: the bytes the agent's roll-ups upload
against forwarding every update, over a grid of dwell times and windows.

Each point runs run_sim on 20 bays for 2 days, seed 3, with equal occupied
and free mean dwell, and pins the run's TrafficLedger.reduction_ratio (what
`traffic-report` prints) exactly: a virtual run is deterministic. README's
traffic table is built from the same grid.
"""

import re
from pathlib import Path

import pytest

from edgepark import harness

from conftest import make_scenario

README = Path(__file__).resolve().parents[1] / "README.md"

# (window sec, mean dwell min) -> reduction_ratio
CURVE = {
    (3600, 2): 0.03050217529131414,
    (3600, 10): 0.15176801616692934,
    (3600, 30): 0.4562525434567758,
    (3600, 60): 0.8970680688117963,
    (3600, 120): 1.6906505816458424,
    (3600, 480): 6.908450704225352,
    (86400, 2): 0.0012903570587049305,
    (86400, 10): 0.006420359501455217,
    (86400, 30): 0.019301203418405907,
    (86400, 60): 0.03794936274789964,
    (86400, 120): 0.07152089616544594,
    (86400, 480): 0.29225352112676056,
}


@pytest.mark.parametrize(("window_sec", "dwell_min"), sorted(CURVE))
def test_traffic_ratio_on_the_grid(tmp_path, window_sec, dwell_min):
    scenario = make_scenario(
        seed=3, bays=20, days=2, mean_occupied_min=dwell_min, mean_free_min=dwell_min,
        rollup_period_sec=window_sec,
    )
    ledger = harness.run_sim(scenario, tmp_path / "run")
    assert ledger.reduction_ratio == CURVE[window_sec, dwell_min]


def test_the_readme_traffic_table_is_the_grid():
    readme = README.read_text(encoding="utf-8")
    for (window_sec, dwell_min), ratio in CURVE.items():
        window = {3600: "1 h", 86400: "1 d"}[window_sec]
        row = rf"^\| {window} \| {dwell_min} min \| [0-9.]+ \| {ratio:.3f} \|"
        assert re.search(row, readme, re.MULTILINE), (window, dwell_min)
