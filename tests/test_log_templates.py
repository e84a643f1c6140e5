"""A log pass reads a line of a checked head it has seen as that head's event at the
line's ts; it yields exactly what a decode of every line yields, and replay and a
restart fold the same log alike with templates and without."""

import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from edgepark import eventlog, harness  # noqa: E402
from edgepark.agent import AgentConfig, EdgeAgentCore  # noqa: E402
from edgepark.clock import VirtualScheduler  # noqa: E402
from edgepark.occupancy import BayStatus, EventKind  # noqa: E402
from edgepark.protocol import encode_line  # noqa: E402
from edgepark.transport import VirtualNetwork  # noqa: E402

from test_eventlog import read_all, reference_read_records  # noqa: E402

TS = b'"ts":'

# Heads, the bytes before a line's last "ts":, each followed below by every ts text and end.
HEADS = [
    eventlog.event_prefix(EventKind.UPDATE, "L", 1, BayStatus.FREE)[:-len(TS)],
    eventlog.event_prefix(EventKind.SNAPSHOT, "L", 2, BayStatus.OCCUPIED, rejected=True)[:-len(TS)],
    b'{"marker":"disconnect",',
    b"{",
    b'{"ts":5,"x\\',  # an escaped key that ends in "ts":, after the real ts
    b'{"ts":1,',  # a duplicate ts
    b'{"x\\"ts":0,"ts":1,"x\\',  # a duplicate key that leaves ts the last key
    b'{"a":1,"ts":2,"b":3,',  # a duplicate ts that is not the last key
    b'{"ts":{',  # the "ts": of a nested object
    b'{"a":[1,{"ts":2}],',  # a list
    b'{"bayId": 1, "lotId": "L", ',  # spaced
    b'{"lotId":"\xc3\xa9\\u00e9",',  # non-ASCII text, raw and escaped
    b'{"q":"\\"ts\\":1",',  # "ts": inside a string, escaped
    b"",
]
TS_TEXTS = [
    b"0", b"5", b"7", b"1542585600000", b"9" * 19, b"1" + b"0" * 19, b"12345678901234567890",
    b"007", b"-1", b"1.0", b"1e3", b"-0", b'"ts"', b"true", b"null", b" 5", b"{}",
]
ENDS = [b"}\n", b"}}\n", b"} \n", b"}\r\n", b"\n", b',"z":1}\n', b'}"ts":\n']
WHOLE_LINES = [b"\n", b'"ts"\n', b'{"ts":"ts"}\n', b"[1]\n", b"\xff{}\n", b'{"ts":3}\n',
               b'{"a": {"ts": 1}, "ts": 4}\n']

EVENT_LINES = st.builds(
    eventlog.event_line, st.sampled_from(EventKind), st.integers(0, 2**64),
    st.sampled_from(["L", "\xe9", 'q"ts":', " "]), st.integers(1, 3),
    st.sampled_from(BayStatus), st.booleans(),
)


@st.composite
def log_lines(draw):
    """Lines of a few heads each, so that heads repeat, mixed with whole lines and event lines."""
    heads = draw(st.lists(st.sampled_from(HEADS), min_size=1, max_size=3))
    headed = st.builds(lambda head, ts, end: head + TS + ts + end, st.sampled_from(heads),
                       st.sampled_from(TS_TEXTS), st.just(b"}\n") | st.sampled_from(ENDS))
    return draw(st.lists(headed | headed | st.sampled_from(WHOLE_LINES) | EVENT_LINES,
                         max_size=40))


TORN = [b"", b'{"ts":1', HEADS[0] + TS + b"5}", b"x" * 300]


def one_pass_and_reference(lines, torn):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.log"
        path.write_bytes(b"".join(lines) + torn)
        return read_all(path), reference_read_records(path)


@settings(max_examples=300, deadline=None)
@given(lines=log_lines(), torn=st.sampled_from(TORN))
# Without the last-key rule the second line reads as ts 7, its "x\"ts" as 5.
@example(lines=[b'{"ts":5,"x\\"ts":5}\n', b'{"ts":5,"x\\"ts":7}\n'], torn=b"")
# Without the canonical check the second line reads as "x\"ts" 5, ts 7.
@example(lines=[b'{"x\\"ts":0,"ts":1,"x\\"ts":5}\n', b'{"x\\"ts":0,"ts":1,"x\\"ts":7}\n'],
         torn=b"")
# Without the no-object rule the second line, one brace short, reads as a record.
@example(lines=[b'{"ts":{"ts":1}}\n', b'{"ts":{"ts":7}\n'], torn=b"")
# Every ts text after a kept head; then spaced, non-ASCII and nested lines; a torn tail.
@example(lines=[HEADS[0] + TS + b"1}\n", *(HEADS[0] + TS + ts + b"}\n" for ts in TS_TEXTS)],
         torn=b"")
@example(lines=[head + TS + b"3}\n" for head in HEADS for _ in range(2)], torn=TORN[2])
@example(lines=[b'"ts"\n', b'{"ts":"ts"}\n', b'{"ts":"ts"}\n'], torn=TORN[1])
def test_a_pass_yields_what_a_decode_of_every_line_yields(lines, torn):
    (records, skipped), (want, want_skipped) = one_pass_and_reference(lines, torn)
    # repr tells 1 from 1.0 and True, and shows the key order.
    assert (repr(records), skipped) == (repr(want), want_skipped)


EPOCH_MS = 1_542_585_600_000
WINDOW_MS = 60_000
# One field of an update line each, in canonical lines whose head fails event_fields or,
# for bay 0, apply_event.
BAD_FIELDS = [("src", "bogus"), ("status", "busy"), ("bayId", True), ("bayId", "1"),
              ("lotId", 5), ("bayId", 0)]
SHAPES = ["event"] * 4 + ["rejected", "disconnect", "flush", "spaced"]


@st.composite
def fold_logs(draw):
    """A log of update and snapshot lines, lines of heads that fail the check, rejected
    lines, disconnect and flush markers (some followed by the re-seed block replay's
    table renders) and spaced copies of earlier lines at a later ts. Half the logs also
    hold bad lines and clock steps back of up to 5 s, which replay refuses and a restart
    skips."""
    lines, ts, table = [], EPOCH_MS, {}  # table: replay's, as far as it folds
    shapes = SHAPES + (["bad", "back"] if draw(st.booleans()) else [])
    for _ in range(draw(st.integers(0, 40))):
        shape = draw(st.sampled_from(shapes))
        if shape == "back":
            ts = max(0, ts - draw(st.integers(1, 5_000)))
            shape = "event"
        ts += draw(st.integers(0, 20_000))
        if shape in ("event", "rejected"):
            line = eventlog.event_line(
                draw(st.sampled_from(EventKind)), ts, draw(st.sampled_from(["L", "M"])),
                draw(st.integers(1, 3)), draw(st.sampled_from(BayStatus)),
                rejected=shape == "rejected")
        elif shape == "bad":
            key, value = draw(st.sampled_from(BAD_FIELDS))
            line = encode_line({"bayId": 1, "lotId": "L", "src": "update", "status": "free",
                                "ts": ts, key: value})
        elif shape == "disconnect":
            line = encode_line(eventlog.disconnect_record(ts))
        elif shape == "flush":
            line = encode_line(eventlog.flush_record(ts, ts - WINDOW_MS))
            if table is not None and draw(st.booleans()):
                line += eventlog.reseed_lines(table, ts)
        elif lines:
            record = {**json.loads(lines[draw(st.integers(0, len(lines) - 1))]), "ts": ts}
            line = (json.dumps(record) + "\n").encode()
        else:
            continue
        for part in line.splitlines(keepends=True):
            lines.append(part)
            try:
                if table is not None:
                    eventlog.apply_record(table, json.loads(part))
            except ValueError:
                table = None  # replay raises here
    return b"".join(lines), ts


def outcome(fn, *args):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def restart(log, now):
    """What a restart at ``now`` from this log keeps: its table, warnings, lot and window."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "agent.log"
        path.write_bytes(log)
        sched = VirtualScheduler(now)
        config = AgentConfig("sim://nowhere", "sim://nohub", path, Path(tmp) / "csv",
                             rollup_period_sec=WINDOW_MS // 1000, rollup_epoch_ms=EPOCH_MS)
        agent = EdgeAgentCore(sched, VirtualNetwork(sched), config)
        try:
            agent.start()
            return agent.table, agent.warnings, agent.lot_id, agent.window_start
        finally:
            agent.kill()


def folds(log, now):
    """Replay's windows and skipped count, and a restart's state, for the log."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "agent.log"
        path.write_bytes(log)
        replayed = outcome(harness.replay_log, path, WINDOW_MS // 1000, None)
    return repr(replayed), repr(outcome(restart, log, now))


@settings(max_examples=200, deadline=None)
@given(drawn=fold_logs(), now_after=st.integers(-30_000, 3 * WINDOW_MS))
def test_replay_and_restart_fold_a_log_alike_with_templates_and_without(drawn, now_after):
    log, last_ts = drawn
    now = max(0, last_ts + now_after)
    with_templates = folds(log, now)
    with mock.patch.object(eventlog, "MAX_TEMPLATES", 0):  # every line decoded and checked
        assert folds(log, now) == with_templates
