"""edgepark pipeline benchmark: run_sim, then verify, then replay.

Run from the repository root:

    python3 perfbench/run.py --workload ingest_burst --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record-digests

The last line of standard output is the result as one JSON object; see
bench.py for what is measured and tracing.py for the traced run.
"""

from __future__ import annotations

import argparse
import subprocess
import sys

import bench
from workloads import WORKLOADS


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in turn, each in its own process so peak RSS stays its own."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=bench.ROOT,
        )
        status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="edgepark pipeline benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at a tiny size and check the benchmark itself")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json for seeds 0-31 and the held-out seed")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            import selfcheck

            return selfcheck.run()
        if args.record_digests:
            bench.record_digests()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0:
            parser.error("--seed must be non-negative")
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        result, metrics, gate = bench.measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except bench.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    bench.print_result(result, metrics, gate)
    return 1 if gate.failed else 0


if __name__ == "__main__":
    sys.exit(main())
