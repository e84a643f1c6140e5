"""Measurement core of the edgepark pipeline benchmark (entry point: run.py).

One process imports edgepark from ``src/`` and repeats the pipeline on one
seeded workload (see workloads.py) until ``--seconds`` is used up, each
repetition in a fresh run directory under ``.perfbench_runs/``. Every
repetition passes the correctness gate: verify_run must pass, the replayed
CSVs must equal the live ones byte for byte, and the artifact digest must
equal the first repetition's and the one recorded in digests.json for that
workload and scenario seed. The last line of standard output is one JSON
object: with ``--trace 0`` it holds the end-to-end metrics (medians over the
repetitions, times scaled to one machine speed), with ``--trace 1`` the
per-layer metrics of a separate traced run (see tracing.py). The full
result, with every sample and the machine, goes to ``result.json`` in the
run directory.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Any

import numpy

import tracing
from workloads import HELD_OUT_SEED, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"
SPEC = ROOT / "BENCHMARK.json"
DIGESTS = BENCH_DIR / "digests.json"

# digests.json holds the artifact digest of every workload for these seeds
# (run.py --record-digests). Any other --seed maps into the cycle, so every
# full-size repetition is checked against a recorded digest.
SEED_CYCLE = 32
RECORDED_SEEDS = (*range(SEED_CYCLE), HELD_OUT_SEED)

# Same level and format as the edgepark CLI, but into a file: left
# unconfigured, crash_recovery's duplicate-update warnings would reach the
# terminal through logging.lastResort and terminal I/O would dominate.
LOG_LEVEL = logging.INFO
LOG_FORMAT = "%(asctime)s %(name)s %(levelname)s %(message)s"
LOGGING = {
    "level": logging.getLevelName(LOG_LEVEL),
    "format": LOG_FORMAT,
    "file": "rep<N>/edgepark.log, kept with the repetition's artifacts only if a check failed",
}

# Artifacts hashed into the run digest; summary.md is derived from them.
DIGEST_ARTIFACTS = ("csv", "agent.log", "hub_store", "ledger.json", "meta.json", "trace.jsonl")

# setup_s: fresh interpreter -> import the CLI's modules -> scenario parsed.
# The child prints CLOCK_MONOTONIC, which is system-wide on Linux.
SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import edgepark.cli\n"
    "from edgepark.harness import parse_scenario\n"
    "parse_scenario(sys.argv[2])\n"
    "print(edgepark.cli.__file__)\n"
    "print(time.monotonic())\n"
)
# reference_s() does REFERENCE_ITEMS items of work. Reported times are
# scaled to the machine speed at which that takes REFERENCE_NOMINAL_S, its
# typical time on one core of the 2-core cloud VM the bounds were set on.
REFERENCE_ITEMS = 6000
REFERENCE_NOMINAL_S = 0.080
# At least this many set-up samples; one is also taken before every
# repetition, so they spread over the run like the pipeline samples.
SETUP_SAMPLES = 7


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure)."""


def scenario_seed(seed: int) -> int:
    """The seed of the scenario that --seed runs, always one of RECORDED_SEEDS."""
    return seed if seed in RECORDED_SEEDS else seed % SEED_CYCLE


def load_spec() -> dict[str, Any]:
    """BENCHMARK.json: the workloads and the metrics, with units and directions."""
    try:
        return json.loads(SPEC.read_text(encoding="utf-8"))
    except OSError as exc:
        raise BenchError(f"cannot read {SPEC}: {exc}") from exc


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of every metric a run reports, in BENCHMARK.json's order."""
    spec = load_spec()
    if trace:
        return {m["name"]: m["unit"] for m in spec["per_layer"]}
    # error_rate is 0 by design, and BENCHMARK.json takes only metrics that
    # are never 0: it is printed here, and the JSON result line carries it
    # as failed/attempted.
    return {**{m["name"]: m["unit"] for m in spec["end_to_end"]}, "error_rate": "share"}


def import_harness() -> Any:
    """Import edgepark from this checkout's src/, never from elsewhere."""
    if not (SRC / "edgepark" / "__init__.py").is_file():
        raise BenchError(f"no edgepark sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    from edgepark import harness

    if Path(harness.__file__).resolve().parent != (SRC / "edgepark").resolve():
        raise BenchError(f"imported edgepark from {harness.__file__}, not from {SRC}")
    return harness


def configure_logging(path: Path) -> None:
    handler = logging.FileHandler(path, encoding="utf-8")
    handler.setFormatter(logging.Formatter(LOG_FORMAT))
    root = logging.getLogger()
    for old in list(root.handlers):
        root.removeHandler(old)
        old.close()
    root.addHandler(handler)
    root.setLevel(LOG_LEVEL)


# ---------------------------------------------------------------------------
# artifacts and checks


def artifact_digest(run_dir: Path) -> str:
    digest = hashlib.sha256()
    for name in DIGEST_ARTIFACTS:
        path = run_dir / name
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for file in files:
            digest.update(str(file.relative_to(run_dir)).encode("utf-8") + b"\0")
            digest.update(file.read_bytes() if file.exists() else b"<missing>")
            digest.update(b"\0")
    return digest.hexdigest()


class Gate:
    """Counts checks attempted and failed; keeps the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        for message in failures:
            if len(self.failures) < 20:
                self.failures.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr)

    def check(self, ok: bool, message: str) -> None:
        self.add(1, [] if ok else [message])

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def check_verify(gate: Gate, report: Any, label: str) -> None:
    failures = [f"{label}: verify: {failure}" for failure in report.failures]
    if not report.ok and not failures:
        failures.append(f"{label}: verify: max error {report.max_error_ms} > {report.allowed_ms} ms")
    gate.add(len(report.checks) + len(failures), failures)


def check_replay_csvs(gate: Gate, live_dir: Path, replay_dir: Path, label: str) -> None:
    live = {p.name: p for p in live_dir.glob("rollup_*.csv")}
    replayed = {p.name: p for p in replay_dir.glob("rollup_*.csv")}
    for name in sorted(set(live) | set(replayed)):
        same = (
            name in live and name in replayed
            and live[name].read_bytes() == replayed[name].read_bytes()
        )
        gate.check(same, f"{label}: replayed {name} differs from the live CSV")


def load_recorded_digests() -> dict[str, dict[str, str]]:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# one repetition


def run_rep(
    harness: Any,
    scenario: Any,
    rep_dir: Path,
    gate: Gate,
    label: str,
    tracer: tracing.Tracer | None = None,
    *,
    sim_only: bool = False,
) -> dict[str, Any]:
    """sim (+ verify + replay) in a fresh directory; returns samples and counts.

    Untraced, the reference work is timed before the first phase and after
    each phase (``reference_s``), so every phase lies between two of them.
    """
    sim_dir = rep_dir / "sim"
    replay_dir = rep_dir / "replay"
    references = [reference_s()] if tracer is None else []

    def phase(name: str, fn: Any, *args: Any) -> tuple[Any, float]:
        gc.collect()
        with tracer.span(name) if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            value = fn(*args)
            elapsed = time.perf_counter() - t0
        if tracer is None:
            references.append(reference_s())
        return value, elapsed

    _, sim_s = phase("sim", harness.run_sim, scenario, sim_dir)
    meta = json.loads((sim_dir / "meta.json").read_text(encoding="utf-8"))
    ledger = json.loads((sim_dir / "ledger.json").read_text(encoding="utf-8"))
    events = int(meta["counters"]["eventsIngested"])
    sample: dict[str, Any] = {
        "sim_s": sim_s,
        "traffic_ratio": ledger["aggregatedBytes"] / ledger["rawForwardBytes"],
        "reference_s": references,
        "digest": artifact_digest(sim_dir),
        "counts": {
            "events_ingested": events,
            "gateway_updates_sent": int(ledger["eventCount"]),
            "upload_sends": int(meta["counters"]["uploadSends"]),
            "agent_incarnations": int(meta["counters"]["agentIncarnations"]),
            "warnings": int(meta["counters"]["warnings"]),
            "windows": len(list((sim_dir / "csv").glob("rollup_*.csv"))),
            "agent_log_bytes": (sim_dir / "agent.log").stat().st_size,
        },
    }
    if not sim_only:
        report, sample["verify_s"] = phase("verify", harness.verify_run, sim_dir)
        check_verify(gate, report, label)
        replayed, sample["replay_s"] = phase(
            "replay", harness.replay_log,
            sim_dir / "agent.log", scenario.rollup_period_sec, replay_dir,
        )
        sample["counts"]["records"] = sum(len(w.records) for w in replayed.windows)
        check_replay_csvs(gate, sim_dir / "csv", replay_dir, label)
    return sample


# ---------------------------------------------------------------------------
# measurements


def reference_s() -> float:
    """Wall time of a fixed piece of stdlib-only work, like the pipeline's.

    It runs no edgepark code, so it measures only how fast the machine is
    at that moment.
    """
    gc.collect()
    t0 = time.perf_counter()
    heap: list[tuple[int, int]] = []
    stamps = []
    for i in range(REFERENCE_ITEMS):
        item = {"bay": f"B{i % 500:04d}", "t": i * 1000, "occupied": i % 3 == 0, "v": [i, i + 1]}
        stamps.append(json.loads(json.dumps(item, sort_keys=True))["t"])
        heapq.heappush(heap, (i * 7919 % 6007, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    "".join(f"{t},{t * 2}\n" for t in stamps)
    return time.perf_counter() - t0


def at_nominal_speed(wall_s: float, reference_s: float) -> float:
    """A wall time taken while reference_s() took reference_s, at the
    machine speed where it takes REFERENCE_NOMINAL_S."""
    return wall_s * REFERENCE_NOMINAL_S / reference_s


def setup_sample(scenario_path: Path) -> dict[str, float]:
    """One fresh-interpreter set-up time, and the mean reference time around it."""
    before = reference_s()
    t0 = time.monotonic()
    try:
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(scenario_path)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"set-up child failed: {exc.stderr.strip()}") from exc
    module_file, stamp = out.stdout.split()
    if Path(module_file).resolve().parent != (SRC / "edgepark").resolve():
        raise BenchError(f"set-up child imported edgepark from {module_file}")
    wall_s = float(stamp) - t0
    return {"wall_s": wall_s, "reference_s": (before + reference_s()) / 2}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }


def traced_rep(
    harness: Any, scenario: Any, rep_dir: Path, gate: Gate, label: str, tracer: tracing.Tracer
) -> tuple[dict[str, Any], dict[str, float]]:
    """An untraced run_sim, then a traced repetition; returns its sample and layer metrics."""
    base = run_rep(harness, scenario, rep_dir / "untraced", gate, label, sim_only=True)
    tracer.reset()
    with tracer.installed():
        sample = run_rep(harness, scenario, rep_dir / "traced", gate, label, tracer)
    gate.check(sample["digest"] == base["digest"],
               f"{label}: traced artifacts differ from the untraced run")
    counts = sample["counts"]
    layers = tracing.per_layer_metrics(
        tracer,
        events=counts["events_ingested"],
        updates_sent=counts["gateway_updates_sent"],
        upload_sends=counts["upload_sends"],
        log_bytes=counts["agent_log_bytes"],
        traced_sim_s=sample["sim_s"],
        untraced_sim_s=base["sim_s"],
    )
    return sample, layers


def keep_going(started: float, seconds: float, durations: list[float]) -> bool:
    """Start another repetition only if it should end within the budget."""
    return time.monotonic() - started + statistics.median(durations) <= seconds


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: float = 1.0,
    tag: str = "",
) -> tuple[dict[str, Any], dict[str, float], Gate]:
    """One benchmark run; returns (result record, metrics, gate)."""
    harness = import_harness()
    run_dir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}{tag}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    scenario_path = run_dir / f"{workload.name}.scenario"
    input_seed = scenario_seed(seed)
    params = workload.write_scenario(scenario_path, input_seed, scale)
    scenario = harness.parse_scenario(scenario_path)

    gate = Gate()
    # Only the full size has recorded digests; the self-check's tiny runs
    # are checked against their own first repetition.
    check_recorded = scale == 1.0
    recorded = load_recorded_digests().get(workload.name, {}).get(str(input_seed))
    samples: list[dict[str, Any]] = []
    durations: list[float] = []
    tracer = tracing.Tracer() if trace else None
    layer_samples: list[dict[str, float]] = []
    first_digest: str | None = None
    setup_samples: list[dict[str, float]] = []
    if tracer is None:
        setup_sample(scenario_path)  # warm-up: compiles the .pyc files once
    started = time.monotonic()
    while True:
        rep = len(samples)
        label = f"{workload.name} seed {seed} rep {rep}"
        rep_dir = run_dir / f"rep{rep}"
        t0 = time.monotonic()
        if tracer is None:
            setup_samples.append(setup_sample(scenario_path))
        rep_dir.mkdir()
        configure_logging(rep_dir / "edgepark.log")
        failed_before = gate.failed
        try:
            if tracer is None:
                sample = run_rep(harness, scenario, rep_dir, gate, label)
            else:
                sample, layers = traced_rep(harness, scenario, rep_dir, gate, label, tracer)
                layer_samples.append(layers)
                if rep == 0:
                    tracer.write_spans(run_dir / "spans.npz")
                    tracing.dump_table(tracer.analyse(), run_dir / "span_table.json")
            if first_digest is None:
                first_digest = sample["digest"]
            else:
                gate.check(sample["digest"] == first_digest,
                           f"{label}: artifact digest differs from repetition 0")
            if check_recorded:
                gate.check(sample["digest"] == recorded,
                           f"{label}: artifact digest {sample['digest']} differs from "
                           f"digests.json ({recorded})")
        except Exception as exc:  # a crashed repetition is a failed check
            gate.add(1, [f"{label}: {type(exc).__name__}: {exc}"])
            traceback.print_exc(file=sys.stderr)
            break
        finally:
            if gate.failed == failed_before:
                shutil.rmtree(rep_dir, ignore_errors=True)
        samples.append(sample)
        durations.append(time.monotonic() - t0)
        if not keep_going(started, seconds, durations):
            break
    if not samples:
        raise BenchError(f"{workload.name}: no repetition completed")

    metrics: dict[str, float] = {}
    if tracer is None:
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_sample(scenario_path))
        # Times are medians of wall times scaled to one machine speed. On a
        # shared VM a core's speed moves between levels up to 1.7x apart,
        # over seconds and over minutes, and no statistic of wall times
        # taken within a 36 s run removes that from one run to the next.
        # The reference work drifts with the pipeline, so each phase is
        # scaled by the mean of the references timed just before and after
        # it, and each set-up sample likewise. Every wall time and reference
        # time stays in result.json.
        for i, name in enumerate(("sim_s", "verify_s", "replay_s")):
            metrics[name] = statistics.median(
                at_nominal_speed(s[name], (s["reference_s"][i] + s["reference_s"][i + 1]) / 2)
                for s in samples
            )
        metrics["sim_events_per_s"] = samples[0]["counts"]["events_ingested"] / metrics["sim_s"]
        metrics["setup_s"] = statistics.median(
            at_nominal_speed(s["wall_s"], s["reference_s"]) for s in setup_samples
        )
        metrics["peak_rss_mib"] = peak_rss_mib()
        metrics["traffic_ratio"] = statistics.median(s["traffic_ratio"] for s in samples)
        metrics["error_rate"] = gate.error_rate
    else:
        metrics = {name: statistics.median(s[name] for s in layer_samples) for name in layer_samples[0]}

    result = {
        "benchmark": "edgepark perfbench",
        "workload": workload.name,
        "why": next(w["why"] for w in load_spec()["workloads"] if w["name"] == workload.name),
        "seed": seed,
        "scenario_seed": input_seed,
        "held_out_seed": HELD_OUT_SEED,
        "scale": scale,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(),
        "logging": LOGGING,
        "scenario": params,
        "counts": samples[0]["counts"],
        "repetitions": len(samples),
        "samples": [{k: v for k, v in s.items() if k != "counts"} for s in samples],
        "setup_samples": setup_samples,
        "digest": first_digest,
        "recorded_digest": recorded if check_recorded else None,
        "checks": {"attempted": gate.attempted, "failed": gate.failed, "failures": gate.failures},
        "metrics": metrics,
    }
    if tracer is not None:
        result["layer_samples"] = layer_samples
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result, metrics, gate


def result_line(result: dict[str, Any], metrics: dict[str, float], gate: Gate) -> dict[str, Any]:
    """The JSON object printed as the last line of standard output."""
    units = metric_units(result["trace"])
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            n: {"value": metrics[n], "unit": unit} for n, unit in units.items() if n != "error_rate"
        },
    }


def print_result(result: dict[str, Any], metrics: dict[str, float], gate: Gate) -> None:
    print(
        f"# {result['workload']} seed {result['seed']}: {result['repetitions']} repetition(s), "
        f"{result['counts']['events_ingested']} events, {result['counts']['windows']} windows"
    )
    for name, unit in metric_units(result["trace"]).items():
        print(f"{name:32s} {metrics[name]:16.6f} {unit}")
    if not result["trace"]:
        samples = result["samples"]
        walls = ", ".join(
            f"{name} {statistics.median(s[name] for s in samples):.4f} s"
            for name in ("sim_s", "verify_s", "replay_s")
        )
        reference = statistics.median(r for s in samples for r in s["reference_s"])
        print(f"# wall-time medians: {walls}; reference {reference:.4f} s "
              f"(times above are scaled to {REFERENCE_NOMINAL_S} s)")
    print(json.dumps(result_line(result, metrics, gate)))


def record_digests() -> None:
    """Write digests.json: the run_sim digest of every workload for RECORDED_SEEDS."""
    harness = import_harness()
    table: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS.values():
        table[workload.name] = {}
        for seed in RECORDED_SEEDS:
            run_dir = WORK / "digests" / f"{workload.name}-{seed}"
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            configure_logging(run_dir / "edgepark.log")
            workload.write_scenario(run_dir / "w.scenario", seed)
            harness.run_sim(harness.parse_scenario(run_dir / "w.scenario"), run_dir / "sim")
            table[workload.name][str(seed)] = artifact_digest(run_dir / "sim")
            shutil.rmtree(run_dir)
            print(f"{workload.name} seed {seed}: {table[workload.name][str(seed)]}", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
