"""Every callable the benchmark's tracer wraps still exists in src/.

perfbench/tracing.py names the functions it times in PATCHES and looks
each one up with ``owner.__dict__[attr]`` when the traced benchmark
starts. A renamed or deleted name fails there, deep inside a benchmark
run; this test fails on it directly and names it.

The tracer also names every scheduler callback by its qualname, and
every delivery by its connection, through ``VirtualScheduler.call_at``:
a renamed callback or a delivery that bypassed call_at would read 0.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from edgepark import harness  # also loads every module the tracer patches

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    pytest.importorskip("numpy")  # the benchmark, and so its tracer, imports numpy
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_as_the_tracer_looks_it_up():
    patches = load_tracing().PATCHES
    assert patches
    missing = []
    for module_name, qualname, span, overrides in patches:
        owner = importlib.import_module(f"edgepark.{module_name}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = owner.__dict__.get(part)
            if owner is None:
                break
        if owner is None or attr not in owner.__dict__:
            missing.append(f"edgepark.{module_name}.{qualname} (span {span})")
            continue
        original = owner.__dict__[attr]
        for holder in overrides:
            held = importlib.import_module(f"edgepark.{holder}").__dict__.get(attr)
            if held is not original:
                missing.append(f"edgepark.{holder}.{attr}, imported from {module_name}")
    assert not missing, "traced names missing from src/: " + ", ".join(missing)


def test_callback_and_delivery_spans_are_counted(tmp_path):
    tracer = load_tracing().Tracer()
    with tracer.installed():
        harness.run_sim(
            harness.parse_scenario(ROOT / "scenarios" / "traffic_day.scenario"), tmp_path / "run"
        )
    spans = tracer.analyse()["all"]
    counts = {
        name: spans.get(name, {}).get("count", 0)
        for name in ("gateway.dispatch", "agent.ingest", "gateway.serve", "hub.handle",
                     "agent.ping_tick")
    }
    assert all(counts.values()), counts
