"""Command-line surface: flags, env overrides, exit codes."""

import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import edgepark
from edgepark import cli, protocol

from conftest import EPOCH_MS, traced_peak

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def write_scenario(tmp_path, content="seed = 4\nbays = 3\ndays = 1\n"):
    path = tmp_path / "s.scenario"
    path.write_text(content)
    return path


def test_run_sim_verify_traffic_export_roundtrip(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "run"
    assert cli.main_harness(["run-sim", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert cli.main_harness(["verify", "--run", str(out)]) == 0
    assert cli.main_harness(["traffic-report", "--run", str(out)]) == 0
    assert cli.main_harness(["export-report", "--run", str(out), "--format", "csv"]) == 0
    captured = capsys.readouterr().out
    assert "rawForwardBytes" in captured
    assert "report_daily.csv" in captured


RUN_SIM_STDOUT = """\
# Run report

## Lot LOT-A: fleet average occupied hours per window

| window start (UTC) | fleet avg hours |
| --- | --- |
| 2018-11-19 00:00 | 7.9260 |

## Lot LOT-A: per-bay occupied hours, min and max over the run

| bay | min hours | max hours |
| --- | --- | --- |
| 1 | 12.6967 | 12.6967 |
| 2 | 0.0000 | 0.0000 |
| 3 | 11.0814 | 11.0814 |

## Traffic

- per-event forwarding baseline: 142 bytes (2 events)
- aggregated uploads: 305 bytes (1 sends)
- reduction ratio (aggregated/raw): 2.147887

run artifacts in RUN
"""

# (arguments, exit code, stdout) in order; RUN and OUT stand for the run and
# replay directories.
PINNED_COMMANDS = [
    (["run-sim", "--scenario", "SCENARIO", "--out", "RUN"], 0, RUN_SIM_STDOUT),
    (["verify", "--run", "RUN"], 0,
     "ok: window 1542585600000: CSV matches log replay (3 bays)\n"
     "ok: window 1542585600000: hub store matches CSV\n"
     "ok: oracle diff over 1 windows: max 0 ms\n"
     "max per-bay error 0 ms (allowed 0 ms): pass\n"),
    (["traffic-report", "--run", "RUN"], 0,
     "rawForwardBytes   142\n"
     "aggregatedBytes   305\n"
     "eventCount        2\n"
     "envelopeSends     1\n"
     "reductionRatio    2.147887\n"),
    (["replay", "--log", "RUN/agent.log", "--window-sec", "86400", "--out", "OUT"], 0,
     "replayed 1 window(s), 0 torn/undecodable line(s) skipped\n"
     "OUT/rollup_LOT-A_20181119T000000Z.csv\n"),
    (["export-report", "--run", "RUN", "--format", "csv"], 0,
     "RUN/report_daily.csv\nRUN/report_bays.csv\n"),
    (["export-report", "--run", "RUN", "--format", "markdown"], 0, "RUN/report.md\n"),
]


def test_cli_stdout_and_exit_codes_on_a_seeded_run_are_pinned(tmp_path, capsys):
    names = {
        "SCENARIO": str(write_scenario(tmp_path)),
        "RUN": str(tmp_path / "run"),
        "OUT": str(tmp_path / "replayed"),
    }

    def place(text):
        for name, path in names.items():
            text = text.replace(name, path)
        return text

    for argv, code, stdout in PINNED_COMMANDS:
        assert cli.main_harness([place(arg) for arg in argv]) == code, argv
        assert capsys.readouterr().out == place(stdout), argv


def test_replay_command(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "run"
    cli.main_harness(["run-sim", "--scenario", str(scenario), "--out", str(out)])
    code = cli.main_harness(
        ["replay", "--log", str(out / "agent.log"), "--window-sec", "86400",
         "--out", str(tmp_path / "replayed")]
    )
    assert code == 0
    assert "replayed 1 window(s)" in capsys.readouterr().out


def test_replay_command_creates_a_new_out_dir(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "run"
    cli.main_harness(["run-sim", "--scenario", str(scenario), "--out", str(out)])
    replayed = tmp_path / "fresh" / "replayed"
    code = cli.main_harness(
        ["replay", "--log", str(out / "agent.log"), "--window-sec", "86400",
         "--out", str(replayed)]
    )
    assert code == 0
    live = sorted((out / "csv").glob("rollup_*.csv"))
    assert [p.name for p in sorted(replayed.glob("rollup_*.csv"))] == [p.name for p in live]
    assert (replayed / live[0].name).read_bytes() == live[0].read_bytes()


@pytest.mark.parametrize("missing", ["ts", "bayId"])
def test_replay_of_a_log_line_missing_a_field_exits_2(tmp_path, capsys, missing):
    event = {"ts": 1_542_585_601_000, "lotId": "L", "bayId": 7, "status": "occupied",
             "src": "update"}
    broken = {k: v for k, v in event.items() if k != missing}
    log = tmp_path / "agent.log"
    log.write_text(json.dumps(event) + "\n" + json.dumps(broken) + "\n")
    code = cli.main_harness(
        ["replay", "--log", str(log), "--window-sec", "86400", "--out", str(tmp_path / "out")]
    )
    assert code == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["absent.log", "a_directory"])
def test_replay_of_a_log_that_is_not_a_file_exits_2_and_creates_nothing(tmp_path, capsys, name):
    (tmp_path / "a_directory").mkdir()
    out = tmp_path / "out"
    code = cli.main_harness(
        ["replay", "--log", str(tmp_path / name), "--window-sec", "3600", "--out", str(out)]
    )
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert sum(line.startswith("configuration error: ") for line in err.splitlines()) == 1
    assert not out.exists()


def test_bad_scenario_exits_2(tmp_path, capsys):
    scenario = write_scenario(tmp_path, "nonsense = 1\n")
    assert cli.main_harness(
        ["run-sim", "--scenario", str(scenario), "--out", str(tmp_path / "x")]
    ) == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    [
        "rollup_period_sec = 0",
        "rollup_period_sec = -3600",
        "poll_interval_sec = 0",
        "poll_interval_sec = 100000",
        "mean_occupied_min = nan",
        "seed = 18446744073709551616",
        "start = 99999999999999999999",
        "start = 9999-12-31T00:00:00Z\ndays = 2",  # ends in the year 10000
        "ack_timeout_ms = 0",
        "backoff_multiplier = nan",
        "days = 367",
        "upload_grace_sec = -1",
        "upload_grace_sec = 100000000",  # about three years of pings after the run
    ],
)
def test_every_bad_scenario_value_exits_2_and_writes_nothing(tmp_path, capsys, line):
    scenario = write_scenario(tmp_path, f"bays = 3\n{line}\n")
    out = tmp_path / "x"
    assert cli.main_harness(["run-sim", "--scenario", str(scenario), "--out", str(out)]) == (
        cli.EXIT_CONFIG
    )
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["latin1.scn", "missing.scn"])
def test_unreadable_scenario_exits_2(tmp_path, capsys, name):
    (tmp_path / "latin1.scn").write_bytes("lot_id = LOT\xe9\n".encode("latin-1"))
    assert cli.main_harness(
        ["run-sim", "--scenario", str(tmp_path / name), "--out", str(tmp_path / "x")]
    ) == cli.EXIT_CONFIG
    assert "cannot read scenario" in capsys.readouterr().err


def test_verify_failure_exits_1(tmp_path):
    scenario = write_scenario(
        tmp_path, "seed = 4\nbays = 3\ndays = 1\nmean_occupied_min = 30\nmean_free_min = 60\n"
    )
    out = tmp_path / "run"
    cli.main_harness(["run-sim", "--scenario", str(scenario), "--out", str(out)])
    victim = next((out / "csv").glob("*.csv"))
    lines = victim.read_text().splitlines()
    bay, sec, rate = lines[1].split(",")
    lines[1] = f"{bay},{int(sec) + 1},{rate}"
    victim.write_text("\n".join(lines) + "\n")
    assert cli.main_harness(["verify", "--run", str(out)]) == cli.EXIT_VERIFY_FAILED


def refuse_a_log_record(run):
    log = run / "agent.log"
    lines = log.read_bytes().splitlines(keepends=True)
    update = next(i for i, line in enumerate(lines) if b'"src":"update"' in line)
    lines[update] = protocol.encode_line({**json.loads(lines[update]), "bayId": 0})
    log.write_bytes(b"".join(lines))


def break_a_trace_row(run):
    trace = run / "trace.jsonl"
    lines = trace.read_bytes().splitlines(keepends=True)
    item = next(i for i, line in enumerate(lines) if b'"kind":"item"' in line)
    lines[item] = protocol.encode_line({**json.loads(lines[item]), "simTs": -1})
    trace.write_bytes(b"".join(lines))


def swap_two_item_rows(run):
    trace = run / "trace.jsonl"
    lines = trace.read_bytes().splitlines(keepends=True)
    items = [i for i, line in enumerate(lines) if b'"kind":"item"' in line]
    first, second = next(
        (a, b) for a, b in zip(items, items[1:])
        if json.loads(lines[a])["simTs"] != json.loads(lines[b])["simTs"]
    )
    lines[first], lines[second] = lines[second], lines[first]
    trace.write_bytes(b"".join(lines))


def cut_meta_short(run):
    meta = run / "meta.json"
    meta.write_bytes(meta.read_bytes()[:20])


def drop_a_meta_key(run):
    meta = run / "meta.json"
    values = json.loads(meta.read_bytes())
    del values["periodMs"]
    meta.write_text(json.dumps(values))


def rewrite_meta(run, **values):
    meta = run / "meta.json"
    meta.write_text(json.dumps({**json.loads(meta.read_bytes()), **values}))


def null_the_period(run):
    rewrite_meta(run, periodMs=None)


def make_the_gap_infinite(run):
    rewrite_meta(run, totalGapMs=float("inf"))  # written as Infinity


def make_meta_an_array(run):
    (run / "meta.json").write_text("[1]")


def oversize_the_trace_duration(run):
    trace = run / "trace.jsonl"
    meta_row, *rows = trace.read_text().splitlines(keepends=True)
    meta_row = re.sub(r'"durationMs":\d+', '"durationMs":1e400', meta_row)
    trace.write_text("".join([meta_row, *rows]))


def remove_the_run(run):
    shutil.rmtree(run)


def drop_the_trace(run):
    (run / "trace.jsonl").unlink()


@pytest.mark.parametrize(
    "tamper",
    [refuse_a_log_record, break_a_trace_row, swap_two_item_rows, cut_meta_short, drop_a_meta_key,
     remove_the_run, drop_the_trace, null_the_period, make_the_gap_infinite, make_meta_an_array,
     oversize_the_trace_duration],
)
def test_verify_of_a_run_it_cannot_read_exits_2(tmp_path, capsys, tamper):
    scenario = write_scenario(
        tmp_path, "seed = 4\nbays = 3\ndays = 1\nmean_occupied_min = 30\nmean_free_min = 60\n"
    )
    out = tmp_path / "run"
    assert cli.main_harness(["run-sim", "--scenario", str(scenario), "--out", str(out)]) == 0
    tamper(out)
    capsys.readouterr()
    assert cli.main_harness(["verify", "--run", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert sum(line.startswith("configuration error: ") for line in err.splitlines()) == 1
    assert "Traceback" not in err


def test_verify_refuses_a_swapped_trace_before_reading_the_log_or_the_store(
    tmp_path, capsys, caplog
):
    scenario = write_scenario(
        tmp_path, "seed = 4\nbays = 3\ndays = 1\nmean_occupied_min = 30\nmean_free_min = 60\n"
        "inject_duplicate_updates = true\n"
    )
    out = tmp_path / "run"
    assert cli.main_harness(["run-sim", "--scenario", str(scenario), "--out", str(out)]) == 0
    caplog.set_level(logging.INFO)

    def replay_or_store_load(messages):
        return [m for m in messages if m.startswith("replay of ") or "rebuilt index" in m]

    caplog.clear()
    assert cli.main_harness(["verify", "--run", str(out)]) == cli.EXIT_OK
    assert len(replay_or_store_load(caplog.messages)) == 2  # the replay summary, the store load
    swap_two_item_rows(out)
    caplog.clear()
    assert cli.main_harness(["verify", "--run", str(out)]) == cli.EXIT_CONFIG
    assert replay_or_store_load(caplog.messages) == []


def verify_with_a_csv_rewritten(tmp_path, capsys, rewrite):
    """verify's exit code and output on a run whose first CSV's text is rewrite(text)."""
    out = tmp_path / "run"
    assert cli.main_harness(
        ["run-sim", "--scenario", str(write_scenario(tmp_path)), "--out", str(out)]
    ) == 0
    victim = next((out / "csv").glob("*.csv"))
    victim.write_bytes(rewrite(victim.read_bytes().decode()).encode())
    capsys.readouterr()
    return cli.main_harness(["verify", "--run", str(out)]), capsys.readouterr()


def with_first_row_cells(cells):
    """A CSV rewrite that keeps the first row's bay and replaces its other cells."""
    def rewrite(text):
        lines = text.splitlines()
        lines[1] = lines[1].split(",")[0] + "," + cells
        return "\n".join(lines) + "\n"
    return rewrite


@pytest.mark.parametrize("cells", ["-1,0.0000", "10,1.5000", "10,nan", "10,inf"])
def test_verify_of_a_run_with_a_csv_row_out_of_range_exits_2(tmp_path, capsys, cells):
    code, output = verify_with_a_csv_rewritten(tmp_path, capsys, with_first_row_cells(cells))
    assert code == cli.EXIT_CONFIG
    assert sum(line.startswith("configuration error: ") for line in output.err.splitlines()) == 1
    assert "Traceback" not in output.err


@pytest.mark.parametrize("cells", ["+1_0,5e-1", " 7,0.5 ", "10,.5", "0,0.0"])
def test_verify_of_a_run_with_a_csv_row_not_as_written_exits_2(tmp_path, capsys, cells):
    code, output = verify_with_a_csv_rewritten(tmp_path, capsys, with_first_row_cells(cells))
    assert code == cli.EXIT_CONFIG
    assert output.err.startswith("configuration error: ") and "is not written as" in output.err


@pytest.mark.parametrize(
    "rewrite", [lambda text: text.replace("\n", "\r\n"), lambda text: text[:-1]],
    ids=["crlf", "no final newline"],
)
def test_verify_of_a_csv_with_the_replayed_records_in_other_bytes_exits_1(
    tmp_path, capsys, rewrite
):
    code, output = verify_with_a_csv_rewritten(tmp_path, capsys, rewrite)
    assert code == cli.EXIT_VERIFY_FAILED
    failures = [line for line in output.out.splitlines() if line.startswith("FAIL: ")]
    assert failures == [
        f"FAIL: window {EPOCH_MS}: CSV has the replayed records but not their bytes"
    ]


@pytest.mark.parametrize(
    "row",
    [
        '{"simTs":5,"bayId":1,"status":"parked"}',
        "not json",
        '{"simTs":-5,"bayId":1,"status":"free"}',
        '{"simTs":1,"bayId":1,"status":"free"}\f',  # json.loads refuses a form feed
        '{"bayId":1,"status":"free"}',
        '{"kind":"initial","statuses":{"0":"occupied"}}',
        '{"initial":{"1":"occupied"}}',  # the old script-only form is an item without simTs
        "[1, 2]",
        # A row follows the wire's bay-id and status rules.
        '{"kind":"initial","statuses":{"1":"unknown"}}',
        '{"kind":"initial","statuses":{"9223372036854775808":"occupied"}}',
        '{"simTs":5,"bayId":9223372036854775808,"status":"free"}',
        '{"simTs":5,"bayId":1,"status":"unknown"}',
        '{"simTs":9223372036854775808,"bayId":1,"status":"free"}',
        # An initial row's key is a bay id only in the form the trace writer writes.
        '{"kind":"initial","statuses":{"01":"occupied"}}',
        '{"kind":"initial","statuses":{"+1_0":"occupied"}}',
        '{"kind":"initial","statuses":{" 2":"occupied"}}',
        '{"kind":"initial","statuses":{"\\uff12":"occupied"}}',
    ],
)
def test_a_bad_script_row_exits_2_and_writes_nothing(tmp_path, capsys, row):
    script = tmp_path / "items.jsonl"
    script.write_text(f"# one bad row\n{row}\n")
    scenario = write_scenario(tmp_path, f"bays = 3\nscript = {script.name}\n")
    out = tmp_path / "run"
    assert cli.main_harness(["run-sim", "--scenario", str(scenario), "--out", str(out)]) == (
        cli.EXIT_CONFIG
    )
    err = capsys.readouterr().err
    (error,) = [line for line in err.splitlines() if line.startswith("configuration error: ")]
    assert error.startswith(f"configuration error: cannot read script {script}: {script}:2: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("line", [b"# caf\xe9", b'{"simTs":5,"bayId":1,"status":"fr\xffee"}'])
def test_a_script_line_that_is_not_utf_8_exits_2_naming_its_line(tmp_path, capsys, line):
    script = tmp_path / "items.jsonl"
    script.write_bytes(b'# one bad line\n{"simTs":1,"bayId":1,"status":"free"}\n' + line + b"\n")
    scenario = write_scenario(tmp_path, f"bays = 3\nscript = {script.name}\n")
    out = tmp_path / "run"
    assert cli.main_harness(["run-sim", "--scenario", str(scenario), "--out", str(out)]) == (
        cli.EXIT_CONFIG
    )
    err = capsys.readouterr().err
    (error,) = [text for text in err.splitlines() if text.startswith("configuration error: ")]
    assert error.startswith(f"configuration error: cannot read script {script}: {script}:3: "
                            "'utf-8' codec can't decode byte ")
    assert "Traceback" not in err
    assert not out.exists()


def test_verify_of_a_trace_row_that_is_not_utf_8_exits_2_naming_its_line(tmp_path, capsys):
    scenario = write_scenario(
        tmp_path, "seed = 4\nbays = 3\ndays = 1\nmean_occupied_min = 30\nmean_free_min = 60\n"
    )
    out = tmp_path / "run"
    assert cli.main_harness(["run-sim", "--scenario", str(scenario), "--out", str(out)]) == 0
    trace = out / "trace.jsonl"
    lines = trace.read_bytes().splitlines(keepends=True)
    lines[5] = lines[5].replace(b'"status"', b'"st\xffatus"')
    trace.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert cli.main_harness(["verify", "--run", str(out)]) == cli.EXIT_CONFIG
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert err.splitlines() == [
        f"configuration error: {trace}:6: 'utf-8' codec can't decode byte 0xff in position "
        f"{lines[5].index(0xff)}: invalid start byte"
    ]


@pytest.mark.parametrize(
    "argv",
    [["traffic-report"], ["export-report", "--format", "csv"],
     ["export-report", "--format", "markdown"]],
    ids=["traffic-report", "export-csv", "export-markdown"],
)
def test_a_report_on_a_missing_run_exits_2_and_creates_nothing(tmp_path, capsys, argv):
    run = tmp_path / "absent"
    assert cli.main_harness([*argv, "--run", str(run)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert sum(line.startswith("configuration error: ") for line in err.splitlines()) == 1
    assert not run.exists()


def drop_a_ledger_key(ledger):
    values = json.loads(ledger.read_bytes())
    del values["eventCount"]
    ledger.write_text(json.dumps(values))


@pytest.mark.parametrize(
    "tamper",
    [
        drop_a_ledger_key,
        lambda ledger: ledger.write_text("[1, 2]"),
        lambda ledger: ledger.write_text('"ledger"'),
        lambda ledger: ledger.write_text(ledger.read_text().replace(": 142", ": Infinity")),
        lambda ledger: ledger.write_text(ledger.read_text()[:20]),
    ],
    ids=["missing-key", "array", "string", "infinity", "cut-short"],
)
@pytest.mark.parametrize(
    "argv", [["traffic-report"], ["export-report", "--format", "markdown"]],
    ids=["traffic-report", "export-markdown"],
)
def test_a_ledger_it_cannot_read_exits_2(tmp_path, capsys, tamper, argv):
    out = tmp_path / "run"
    assert cli.main_harness(
        ["run-sim", "--scenario", str(write_scenario(tmp_path)), "--out", str(out)]
    ) == 0
    tamper(out / "ledger.json")
    capsys.readouterr()
    assert cli.main_harness([*argv, "--run", str(out)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert sum(line.startswith("configuration error: ") for line in captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err
    assert not (out / "report.md").exists()


def never_serve(sched, build, banner, until_ms=None):
    pytest.fail(f"service started: {banner}")


def test_live_gateway_starts_without_drawing_its_whole_duration(monkeypatch):
    banners = []

    def record_banner(sched, build, banner, until_ms=None):
        banners.append(banner)
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "serve", record_banner)
    argv = ["--listen", "127.0.0.1:0", "--bays", "100"]
    # A first call loads the gateway's modules, so the peak below is the draw alone.
    assert cli.main_gateway([*argv, "--duration", "1h"]) == cli.EXIT_OK
    peak = traced_peak(lambda: cli.main_gateway([*argv, "--duration", "366d"]))
    # A year of 100 bays is about 73k changes: some 10 MiB, were they drawn now.
    assert peak < 2**20
    assert banners[-1] == (
        "gateway serving 100 bays on 127.0.0.1:0 for 31622400000 ms of trace (warp x1)"
    )


def test_agent_env_overrides_apply(capsys, monkeypatch):
    monkeypatch.setattr(cli, "serve", never_serve)
    # The env sets the default; the poll-interval check proves it took effect.
    assert cli.main_agent([], env={"EDGEPARK_POLL_INTERVAL_SEC": "0"}) == cli.EXIT_CONFIG
    assert "poll interval" in capsys.readouterr().err


def test_agent_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setattr(cli, "serve", never_serve)
    # A valid env value loses to an invalid flag, so the agent never starts.
    code = cli.main_agent(
        ["--poll-interval-sec", "0"],
        env={"EDGEPARK_POLL_INTERVAL_SEC": "60"},
    )
    assert code == cli.EXIT_CONFIG
    assert "poll interval" in capsys.readouterr().err


def agent_without_env(argv):
    return cli.main_agent(argv, env={})


@pytest.mark.parametrize(
    "main, argv",
    [
        (cli.main_gateway, ["--duration", "1e400"]),
        (agent_without_env, ["--time-warp", "inf"]),
    ],
)
def test_a_live_service_refuses_an_infinite_value_with_exit_2(capsys, monkeypatch, main, argv):
    monkeypatch.setattr(cli, "serve", never_serve)
    assert main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert sum(line.startswith("configuration error: ") for line in err.splitlines()) == 1


@pytest.mark.parametrize(
    "main, argv",
    [
        (cli.main_gateway, ["--listen", "nonsense"]),
        (cli.main_hub, ["--listen", "nonsense"]),
        (cli.main_hub, ["--listen", "127.0.0.1:65536"]),
        (agent_without_env, ["--gateway", "nonsense"]),
        (agent_without_env, ["--cloud", "nonsense"]),
    ],
)
def test_a_live_service_refuses_an_address_that_is_not_host_port_with_exit_2(
    capsys, monkeypatch, main, argv
):
    monkeypatch.setattr(cli, "serve", never_serve)
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == cli.EXIT_CONFIG
    assert f"invalid address value: {argv[1]!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, value",
    [("POLL_INTERVAL_SEC", "abc"), ("ROLLUP_PERIOD_SEC", "1.5"), ("TIME_WARP", "fast"),
     ("GATEWAY", "nonsense"), ("CLOUD", "nonsense")],
)
def test_a_bad_agent_env_value_exits_2(capsys, monkeypatch, name, value):
    monkeypatch.setattr(cli, "serve", never_serve)
    with pytest.raises(SystemExit) as exited:
        cli.main_agent([], env={cli.ENV_PREFIX + name: value})
    assert exited.value.code == cli.EXIT_CONFIG
    assert f"{value!r}" in capsys.readouterr().err


SERVICE_CHILD = "import sys; from edgepark import cli; sys.exit(getattr(cli, sys.argv[1])(sys.argv[2:]))"


@pytest.mark.parametrize(
    "argv, env",
    [
        (["main_agent", "--cloud", "nonsense"], {}),
        (["main_agent"], {"EDGEPARK_POLL_INTERVAL_SEC": "abc"}),
        (["main_gateway", "--duration", "inf"], {}),
        (["main_hub", "--listen", "nonsense"], {}),
    ],
)
def test_a_live_service_with_a_bad_value_exits_2_without_a_traceback(tmp_path, argv, env):
    # A deadline: an agent that started with a bad cloud address would redial it for ever.
    child_env = {k: v for k, v in os.environ.items() if not k.startswith(cli.ENV_PREFIX)}
    child_env.update(env, PYTHONPATH=str(Path(edgepark.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", SERVICE_CHILD, *argv],
        env=child_env, cwd=tmp_path, capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == cli.EXIT_CONFIG, result.stderr
    assert "Traceback" not in result.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("text", ["inf", "-inf", "1e400", "infd", "nan"])
def test_parse_duration_ms_refuses_a_value_that_is_not_finite(text):
    with pytest.raises(ValueError, match="^bad duration "):
        cli.parse_duration_ms(text)


def test_parse_duration_ms():
    assert cli.parse_duration_ms("90") == 90_000
    assert cli.parse_duration_ms("90s") == 90_000
    assert cli.parse_duration_ms("15m") == 900_000
    assert cli.parse_duration_ms("2h") == 7_200_000
    assert cli.parse_duration_ms("7d") == 604_800_000
    with pytest.raises(ValueError):
        cli.parse_duration_ms("soon")


def test_parse_faults():
    plan = cli._parse_faults(["disconnect:3600:120", "duplicate-updates"])
    assert plan.disconnects == ((3_600_000, 120_000),)
    assert plan.duplicate_updates is True
    for spec in ("explode", "delay:50"):
        with pytest.raises(ValueError):
            cli._parse_faults([spec])


def test_traffic_report_missing_run_exits_2(tmp_path):
    assert cli.main_harness(
        ["traffic-report", "--run", str(tmp_path / "absent")]
    ) == cli.EXIT_CONFIG


def test_component_crash_exits_3(tmp_path, monkeypatch, capsys):
    scenario = write_scenario(tmp_path)

    def explode(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.harness, "run_sim", explode)
    code = cli.main_harness(
        ["run-sim", "--scenario", str(scenario), "--out", str(tmp_path / "x")]
    )
    assert code == cli.EXIT_CRASH
    assert "component crash" in capsys.readouterr().err


def test_verify_crash_exits_3(tmp_path, monkeypatch, capsys):
    # An error verify does not refuse as configuration takes run-sim's crash path.
    def explode(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.harness, "verify_run", explode)
    assert cli.main_harness(["verify", "--run", str(tmp_path)]) == cli.EXIT_CRASH
    assert "component crash: boom" in capsys.readouterr().err


NO_NUMPY_CHILD = """
import sys
from pathlib import Path

import edgepark.cli
from edgepark import harness

scenario_path, out = Path(sys.argv[1]), Path(sys.argv[2])
scenario = harness.parse_scenario(scenario_path)
harness.run_sim(scenario, out / "run")
assert harness.verify_run(out / "run").ok
harness.replay_log(out / "run" / "agent.log", scenario.rollup_period_sec, out / "replayed")
assert "numpy" not in sys.modules, "numpy was imported"
"""


NO_NUMPY_GATEWAY_CHILD = """
import sys

from edgepark import cli

def build_only(sched, build, banner, until_ms=None):
    core = build(None)
    assert next(iter(core.trace.items), None) is not None
    return cli.EXIT_OK

cli.serve = build_only
assert cli.main_gateway(["--listen", "127.0.0.1:0", "--bays", "50", "--duration", "1h"]) == 0
assert "numpy" not in sys.modules, "numpy was imported"
"""


def run_without_numpy(*argv):
    """Run a child interpreter that asserts numpy was never imported."""
    env = dict(os.environ, PYTHONPATH=str(Path(edgepark.__file__).parents[1]))
    argv = [sys.executable, "-c", *map(str, argv)]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_scripted_run_verify_replay_never_import_numpy(tmp_path):
    run_without_numpy(NO_NUMPY_CHILD, SCENARIOS / "overnight.scenario", tmp_path)


def test_generated_run_verify_replay_never_import_numpy(tmp_path):
    # generate_trace draws with edgepark.rng, which reproduces numpy's draws.
    run_without_numpy(NO_NUMPY_CHILD, SCENARIOS / "calibrated_week.scenario", tmp_path)


def test_live_gateway_build_never_imports_numpy():
    run_without_numpy(NO_NUMPY_GATEWAY_CHILD)
