"""Command-line entry points.

Services (gateway, agent, hub) run as independently addressable processes
speaking the JSON-lines protocol over TCP. Each is crash-only (``serve``):
its first fault ends it, and a restart recovers from its log or store.
The harness command drives the in-process virtual-clock simulation and
its verification tools.

Exit codes: 0 pass, or a service stopped by Ctrl-C or at the end of its
duration; 1 verification failure; 2 configuration error; 3 component
crash: a service's failed start, callback or stop, or any error a harness
subcommand does not refuse as configuration.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import astuple
from pathlib import Path
from typing import Any, Callable

from . import harness
from .agent import AgentConfig, EdgeAgentCore
from .clock import RealScheduler
from .gateway import FaultPlan, GatewayConfig, GatewayCore, SensorModel, generate_trace
from .hub import HubCore, RollupStore
from .transport import SocketNetwork, parse_address

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_CRASH = 3

ENV_PREFIX = "EDGEPARK_"

_DURATION_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400}


def _setup_logging(verbose: bool = False) -> None:
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def config_error(exc: Exception) -> int:
    """Report a refused configuration on stderr; EXIT_CONFIG."""
    print(f"configuration error: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def parse_duration_ms(text: str) -> int:
    """'90', '90s', '15m', '2h', or '7d' to milliseconds."""
    text = text.strip().lower()
    unit = 1
    if text and text[-1] in _DURATION_UNITS:
        unit = _DURATION_UNITS[text[-1]]
        text = text[:-1]
    try:
        return int(float(text) * unit * 1000)
    except (ValueError, OverflowError) as exc:  # int() of NaN; of inf, also from '1e400'
        raise ValueError(f"bad duration {text!r}") from exc


def address(text: str) -> str:
    """argparse type of a host:port flag; parse_address's ValueError makes argparse exit 2."""
    parse_address(text)
    return text


def _parse_faults(specs: list[str]) -> FaultPlan:
    disconnects: list[tuple[int, int]] = []
    duplicate_updates = False
    mute_after: int | None = None
    for spec in specs:
        kind, _, rest = spec.partition(":")
        if kind == "disconnect":
            at_sec, _, dur_sec = rest.partition(":")
            disconnects.append((int(at_sec) * 1000, int(dur_sec) * 1000))
        elif kind == "duplicate-updates":
            duplicate_updates = True
        elif kind == "mute-pongs-after":
            mute_after = int(rest)
        else:
            raise ValueError(f"unknown fault {spec!r}")
    return FaultPlan(tuple(disconnects), duplicate_updates, mute_after)


# ---------------------------------------------------------------------------
# services


def serve(sched: RealScheduler, build: Callable[[SocketNetwork], Any], banner: str,
          *, until_ms: int | None = None) -> int:
    """Run one live service crash-only, its scheduler on this thread.

    EXIT_OK on Ctrl-C or at until_ms; EXIT_CRASH on a failed build,
    start or stop, or on the first callback that raises. The core built
    over a socket network on sched is stopped on every way out.
    """
    code, core = EXIT_OK, None
    try:
        core = build(SocketNetwork(sched))
        core.start()  # binds or dials before dispatch starts
        log.info("%s", banner)
        if until_ms is not None:
            sched.call_at(until_ms, sched.stop)
        sched.run()
    except KeyboardInterrupt:
        pass
    except Exception as exc:
        log.exception("component crash: %s", exc)
        code = EXIT_CRASH
    finally:
        try:
            if core is not None:
                core.stop()
        except Exception as exc:
            log.exception("component crash on stop: %s", exc)
            code = EXIT_CRASH
    return code


# ---------------------------------------------------------------------------
# gateway


def main_gateway(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="edgepark-gateway",
        description="Simulated parking-sensor gateway: snapshots, updates, pong echoes.",
    )
    parser.add_argument("--listen", type=address, default="127.0.0.1:9610", help="host:port to bind")
    parser.add_argument("--bays", type=int, default=22)
    parser.add_argument("--lot-id", default="LOT-A")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mean-occupied-min", type=float, default=450.0)
    parser.add_argument("--mean-free-min", type=float, default=990.0)
    parser.add_argument("--duration", default="1d", help="e.g. 90s, 15m, 2h, 7d")
    parser.add_argument("--time-warp", type=float, default=1.0,
                        help="simulated seconds per real second")
    parser.add_argument("--inject", action="append", default=[], metavar="FAULT",
                        help="disconnect:<at_sec>:<dur_sec> | duplicate-updates | "
                             "mute-pongs-after:<seq>")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    _setup_logging(args.verbose)
    try:
        config = GatewayConfig(
            listen_address=args.listen,
            lot_id=args.lot_id,
            bay_count=args.bays,
            model=SensorModel(args.mean_occupied_min, args.mean_free_min, args.seed),
            faults=_parse_faults(args.inject),
        )
        duration_ms = parse_duration_ms(args.duration)
        trace = generate_trace(config, duration_ms)
        sched = RealScheduler(warp=args.time_warp)
    except ValueError as exc:
        return config_error(exc)
    return serve(
        sched,
        lambda net: GatewayCore(sched, net, config, trace),
        f"gateway serving {config.bay_count} bays on {config.listen_address} "
        f"for {duration_ms} ms of trace (warp x{args.time_warp:g})",
        until_ms=sched.now_ms() + duration_ms,
    )


# ---------------------------------------------------------------------------
# agent


def _env_default(env: dict[str, str], name: str, fallback: str | None) -> str | None:
    return env.get(ENV_PREFIX + name, fallback)  # a str: argparse applies the flag's type


def main_agent(argv: list[str] | None = None, env: dict[str, str] | None = None) -> int:
    env = dict(os.environ) if env is None else env
    parser = argparse.ArgumentParser(
        prog="edgepark-agent",
        description="Edge aggregation agent: logs gateway events, rolls up occupancy "
                    "to CSV, uploads to the cloud hub.",
    )
    parser.add_argument("--gateway", type=address,
                        default=_env_default(env, "GATEWAY", "127.0.0.1:9610"))
    parser.add_argument("--cloud", type=address,
                        default=_env_default(env, "CLOUD", "127.0.0.1:9611"))
    parser.add_argument("--poll-interval-sec", type=int,
                        default=_env_default(env, "POLL_INTERVAL_SEC", "60"))
    parser.add_argument("--rollup-period-sec", type=int,
                        default=_env_default(env, "ROLLUP_PERIOD_SEC", "86400"))
    parser.add_argument("--log", default=_env_default(env, "LOG", "agent-events.log"))
    parser.add_argument("--csv-dir", default=_env_default(env, "CSV_DIR", "rollups"))
    parser.add_argument("--time-warp", type=float,
                        default=_env_default(env, "TIME_WARP", "1.0"))
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    _setup_logging(args.verbose)
    try:
        config = AgentConfig(
            gateway_address=args.gateway,
            cloud_address=args.cloud,
            log_path=Path(args.log),
            csv_dir=Path(args.csv_dir),
            poll_interval_sec=args.poll_interval_sec,
            rollup_period_sec=args.rollup_period_sec,
        )
        sched = RealScheduler(warp=args.time_warp)
    except ValueError as exc:
        return config_error(exc)
    return serve(
        sched,
        lambda net: EdgeAgentCore(sched, net, config),
        f"agent polling {config.gateway_address} every {config.poll_interval_sec} s, "
        f"roll-up every {config.rollup_period_sec} s, uploading to {config.cloud_address}",
    )


# ---------------------------------------------------------------------------
# hub


def main_hub(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="edgepark-hub",
        description="Cloud hub: stores uploaded roll-ups exactly once, serves reports.",
    )
    parser.add_argument("--listen", type=address, default="127.0.0.1:9611")
    parser.add_argument("--store-dir", default="hub-store")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    _setup_logging(args.verbose)
    sched = RealScheduler()
    return serve(
        sched,
        lambda net: HubCore(sched, net, RollupStore(args.store_dir), args.listen),
        f"hub listening on {args.listen}, store at {args.store_dir}",
    )


# ---------------------------------------------------------------------------
# harness


# What each harness subcommand refuses as a configuration error (exit 2).
# Anything else a subcommand raises is a component crash (exit 3).
HARNESS_REFUSES: dict[str, tuple[type[Exception], ...]] = {
    "run-sim": (harness.ScenarioError,),
    "replay": (ValueError, OSError),
    "verify": (ValueError, OSError, KeyError),
    "traffic-report": (ValueError, OSError),
    "export-report": (ValueError, OSError),
}


def main_harness(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="edgepark",
        description="Deterministic smart-parking simulation harness.",
    )
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run-sim", help="run a scenario end to end under a virtual clock")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", required=True)

    p_replay = sub.add_parser("replay", help="regenerate CSVs from an event log")
    p_replay.add_argument("--log", required=True)
    p_replay.add_argument("--window-sec", type=int, required=True)
    p_replay.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="diff a run's artifacts against the oracle")
    p_verify.add_argument("--run", required=True)

    p_traffic = sub.add_parser("traffic-report", help="print the traffic ledger")
    p_traffic.add_argument("--run", required=True)

    p_export = sub.add_parser("export-report", help="emit per-day and per-bay tables")
    p_export.add_argument("--run", required=True)
    p_export.add_argument("--format", choices=["csv", "markdown"], required=True)

    args = parser.parse_args(argv)
    _setup_logging(args.verbose)

    try:
        if args.command == "run-sim":
            harness.run_sim(harness.parse_scenario(args.scenario), args.out)
            print((Path(args.out) / "summary.md").read_text(encoding="utf-8"))
            print(f"run artifacts in {Path(args.out)}")
        elif args.command == "replay":
            result = harness.replay_log(args.log, args.window_sec, args.out)
            print(
                f"replayed {len(result.windows)} window(s), "
                f"{result.skipped_lines} torn/undecodable line(s) skipped"
            )
            for path in result.csv_paths:
                print(path)
        elif args.command == "verify":
            report = harness.verify_run(args.run)
            print(report.render(), end="")
            return EXIT_OK if report.ok else EXIT_VERIFY_FAILED
        elif args.command == "traffic-report":
            ledger = harness.load_ledger(args.run)
            for key, value in zip(harness.LEDGER_KEYS, astuple(ledger)):
                print(f"{key:<18}{value}")
            ratio = ledger.reduction_ratio
            print("reductionRatio    " + (f"{ratio:.6f}" if ratio is not None else "undefined"))
        else:
            for path in harness.export_report(args.run, args.format):
                print(path)
    except HARNESS_REFUSES[args.command] as exc:
        return config_error(exc)
    except Exception as exc:
        log.exception("%s failed", args.command)
        print(f"component crash: {exc}", file=sys.stderr)
        return EXIT_CRASH
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_harness())
