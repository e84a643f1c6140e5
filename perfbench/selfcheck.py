"""Self-check of the benchmark at a tiny size: python3 perfbench/run.py --self-check

For every workload, at a few bays, it runs the timed and the traced
measurement and confirms that:
  * every correctness check passes;
  * the metrics measured are exactly those named in BENCHMARK.json, and
    each is reported with its unit;
  * the tracing wrappers are gone afterwards: every edgepark module and
    class namespace holds the very objects it held before;
  * the traced run's artifact digest equals the untraced one, so tracing
    changes no behaviour.
It also runs the benchmark in a directory holding only BENCHMARK.json and
the benchmark's files, where it must fail without printing a result.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from typing import Any

import bench
from workloads import WORKLOADS

SCALE = 0.05
SEED = 3


def namespaces() -> dict[str, dict[str, Any]]:
    """Shallow copies of every edgepark module and class namespace."""
    snapshot: dict[str, dict[str, Any]] = {}
    for name, module in list(sys.modules.items()):
        if name != "edgepark" and not name.startswith("edgepark."):
            continue
        snapshot[name] = dict(vars(module))
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == name:
                snapshot[f"{name}.{attr}"] = dict(vars(value))
    return snapshot


def changed(before: dict[str, dict[str, Any]], after: dict[str, dict[str, Any]]) -> list[str]:
    out = []
    for space, attrs in before.items():
        now = after.get(space, {})
        out.extend(f"{space}.{a}" for a, v in attrs.items() if now.get(a) is not v)
    return out


def run() -> int:
    spec = bench.load_spec()
    problems: list[str] = []

    def expect(ok: bool, message: str) -> None:
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            problems.append(message)

    recorded = bench.load_recorded_digests()
    expect(all(set(recorded.get(w, {})) == {str(s) for s in bench.RECORDED_SEEDS} for w in WORKLOADS),
           "digests.json records every workload for exactly RECORDED_SEEDS")

    bench.import_harness()
    for workload in WORKLOADS.values():
        name = workload.name
        before = namespaces()
        plain, plain_metrics, plain_gate = bench.measure(
            workload, SEED, 0, False, scale=SCALE, tag="-selfcheck")
        traced, traced_metrics, traced_gate = bench.measure(
            workload, SEED, 0, True, scale=SCALE, tag="-selfcheck")
        expect(plain_gate.failed == 0 and traced_gate.failed == 0,
               f"{name}: {plain_gate.attempted + traced_gate.attempted} checks pass")
        expect(not changed(before, namespaces()),
               f"{name}: tracing wrappers restored ({changed(before, namespaces())[:3]})")
        expect(plain["digest"] == traced["digest"],
               f"{name}: traced artifact digest equals the untraced one")
        for trace, result, metrics, gate in (
            (0, plain, plain_metrics, plain_gate), (1, traced, traced_metrics, traced_gate)
        ):
            units = bench.metric_units(bool(trace))
            expect(set(metrics) == set(units),
                   f"{name} --trace {trace}: measures exactly the {len(units)} named metrics "
                   f"(unnamed: {sorted(set(metrics) - set(units))}, "
                   f"missing: {sorted(set(units) - set(metrics))})")
            line = bench.result_line(result, metrics, gate)
            listed = spec["per_layer"] if trace else spec["end_to_end"]
            expect(
                [(n, v["unit"]) for n, v in line["metrics"].items()]
                == [(m["name"], m["unit"]) for m in listed],
                f"{name} --trace {trace}: every BENCHMARK.json metric reported with its unit",
            )
        expect(plain_metrics["error_rate"] == 0.0, f"{name}: error_rate is 0")

    # Without the program, the benchmark must fail and print no result.
    bare = bench.WORK / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.BENCH_DIR, bare / bench.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{bench.BENCH_DIR.name}/run.py", "--workload", "ingest_burst",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without src/ the benchmark exits {proc.returncode} and prints no result")

    print(f"self-check: {len(problems)} problem(s)")
    return 1 if problems else 0
