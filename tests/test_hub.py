"""Hub store dedupe/durability and report queries."""

import json
import random

import pytest

from edgepark import eventlog, protocol
from edgepark.clock import VirtualScheduler
from edgepark.hub import MAX_OPEN_LOTS, HubCore, fleet_average_hours, store_row_line
from edgepark.occupancy import BayStatus, EventKind, RollupRecord
from edgepark.transport import VirtualNetwork

from conftest import DAY_MS, EPOCH_MS, MIB, append_long_torn_tail, open_store, traced_peak


def envelope(lot="LOT-A", start=EPOCH_MS, records=None, period=DAY_MS):
    records = records if records is not None else [RollupRecord(1, 100, 0.0012)]
    raw = protocol.encode_rollup_envelope(lot, start, start + period, records)
    return protocol.parse_rollup_envelope(json.loads(raw))


def full_day_records(sec, bays=22):
    from edgepark.occupancy import occupation_rate

    return [RollupRecord(b, sec, occupation_rate(sec * 1000, DAY_MS)) for b in range(1, bays + 1)]


# ---------------------------------------------------------------------------
# store semantics


def test_fresh_envelope_stored(tmp_path):
    store = open_store(tmp_path)
    assert store.receive(envelope(), received_at=1) is True
    assert len(store) == 1
    assert store.query_daily("LOT-A", EPOCH_MS) == (RollupRecord(1, 100, 0.0012),)


def test_duplicate_key_stored_once(tmp_path):
    store = open_store(tmp_path)
    for i in range(5):
        stored = store.receive(envelope(), received_at=i)
        assert stored is (i == 0)
    assert len(store) == 1
    lines = (tmp_path / "LOT-A.jsonl").read_text().strip().splitlines()
    assert len(lines) == 1


def test_two_windows_two_records(tmp_path):
    store = open_store(tmp_path)
    store.receive(envelope(start=EPOCH_MS), received_at=1)
    store.receive(envelope(start=EPOCH_MS + DAY_MS), received_at=2)
    assert len(store) == 2


def test_unknown_window_is_not_found(tmp_path):
    store = open_store(tmp_path)
    assert store.query_daily("LOT-A", EPOCH_MS) is None


def test_ack_implies_durable_across_restart(tmp_path):
    store = open_store(tmp_path)
    store.receive(envelope(), received_at=42)
    reopened = open_store(tmp_path)
    assert reopened.query_daily("LOT-A", EPOCH_MS) == (RollupRecord(1, 100, 0.0012),)
    # Duplicate after restart still deduped.
    assert reopened.receive(envelope(), received_at=43) is False


def test_store_survives_torn_append(tmp_path):
    store = open_store(tmp_path)
    store.receive(envelope(start=EPOCH_MS), received_at=1)
    with open(tmp_path / "LOT-A.jsonl", "ab") as fh:
        fh.write(b'{"key":"L:864')  # crash mid-append: no newline
    reopened = open_store(tmp_path)
    assert len(reopened) == 1
    assert reopened.receive(envelope(start=EPOCH_MS + DAY_MS), received_at=2) is True
    again = open_store(tmp_path)
    assert again.query_daily("LOT-A", EPOCH_MS) == (RollupRecord(1, 100, 0.0012),)
    assert again.query_daily("LOT-A", EPOCH_MS + DAY_MS) == (RollupRecord(1, 100, 0.0012),)


def row_dict(env, received_at):
    """Reference: a store row as it was written, a dict through encode_line."""
    return {
        "key": env.key,
        "lotId": env.lot_id,
        "windowStart": env.window_start,
        "windowEnd": env.window_end,
        "records": [
            {"bayId": r.bay_id, "occupationTime": r.occupation_time_sec,
             "occupationRate": r.occupation_rate}
            for r in env.records
        ],
        "receivedAt": received_at,
    }


def random_wire_envelope(rng):
    """A rollup envelope as the wire carries it, integer rates 0 and 1 included."""
    window_sec = rng.choice((3600, 86_400, rng.randint(1, 10**6)))
    start = rng.choice((EPOCH_MS, rng.randint(0, 2**45)))
    lot = rng.choice(("LOT-A", "L", "lot_7.b"))
    bays = sorted(rng.sample(range(1, rng.choice((9, 99, 12_000)) + 1), rng.randint(0, 6)))
    records = []
    for b in bays:
        sec = rng.randint(0, window_sec)
        rate = rng.choice((0, 1, 0.0001, 1.0, 0.0, round(rng.random(), 4), rng.random()))
        records.append({"bayId": b, "occupationTime": sec, "occupationRate": rate})
    return {
        "type": "rollup", "key": protocol.envelope_key(lot, start), "lotId": lot,
        "windowStart": start, "windowEnd": start + window_sec * 1000, "records": records,
    }


def test_store_row_line_is_encode_line_of_the_row(tmp_path):
    rng = random.Random(11)
    rates = set()
    for _ in range(600):
        wire = random_wire_envelope(rng)
        env = protocol.parse_rollup_envelope(protocol.decode_line(protocol.encode_line(wire)))
        rates.update(repr(r["occupationRate"]) for r in wire["records"])
        received_at = rng.choice((0, EPOCH_MS, rng.randint(0, 2**50)))
        want = protocol.encode_line(row_dict(env, received_at))
        assert store_row_line(env, received_at) == want
    assert {"0", "1", "0.0001", "1.0"} <= rates
    # Records built in Python may carry integer rates; they are written as json writes them.
    records = (RollupRecord(7, 0, 0), RollupRecord(12, 1, 1))
    env = protocol.RollupEnvelope("L:0", "L", 0, 1000, records)
    assert store_row_line(env, 5) == protocol.encode_line(row_dict(env, 5))


def test_receive_writes_the_encode_line_bytes_of_each_row(tmp_path, monkeypatch):
    rng = random.Random(12)
    store = open_store(tmp_path)
    kept = []
    with monkeypatch.context() as patched:
        patched.setattr(protocol, "encode_line", lambda row: pytest.fail("row through encode_line"))
        for received_at in range(40):
            env = protocol.parse_rollup_envelope(random_wire_envelope(rng))
            if store.receive(env, received_at=received_at):
                kept.append((env, received_at))
    want = {}
    for env, received_at in kept:
        row = protocol.encode_line(row_dict(env, received_at))
        want[env.lot_id] = want.get(env.lot_id, b"") + row
    assert len(want) == 3
    for lot, data in want.items():
        assert (tmp_path / f"{lot}.jsonl").read_bytes() == data


# ---------------------------------------------------------------------------
# weekly report


def test_weekly_report_single_uniform_day(tmp_path):
    store = open_store(tmp_path)
    store.receive(envelope(records=full_day_records(27_000)), received_at=1)
    report = store.weekly_report("LOT-A", EPOCH_MS)
    assert report["perDayFleetAvgHours"][0] == pytest.approx(7.5)
    assert report["perDayFleetAvgHours"][1:] == [None] * 6
    assert report["perBayMinHours"]["1"] == pytest.approx(7.5)
    assert report["perBayMaxHours"]["22"] == pytest.approx(7.5)


def test_weekly_report_min_max_extremes(tmp_path):
    store = open_store(tmp_path)
    store.receive(
        envelope(start=EPOCH_MS, records=[RollupRecord(4, 86_400, 1.0)]), received_at=1
    )
    for day in range(1, 4):
        store.receive(
            envelope(start=EPOCH_MS + day * DAY_MS, records=[RollupRecord(4, 0, 0.0)]),
            received_at=day,
        )
    report = store.weekly_report("LOT-A", EPOCH_MS)
    assert report["perBayMaxHours"]["4"] == 24.0
    assert report["perBayMinHours"]["4"] == 0.0


def test_weekly_report_requires_at_least_one_day(tmp_path):
    store = open_store(tmp_path)
    assert store.weekly_report("LOT-A", EPOCH_MS) is None


def test_weekly_report_consistent_with_daily_queries(tmp_path):
    import random

    rng = random.Random(11)
    store = open_store(tmp_path)
    for day in range(7):
        if day == 3:
            continue  # missing day stays missing
        records = full_day_records(rng.randint(0, 86_400), bays=5)
        store.receive(envelope(start=EPOCH_MS + day * DAY_MS, records=records), received_at=day)
    report = store.weekly_report("LOT-A", EPOCH_MS)
    for day in range(7):
        records = store.query_daily("LOT-A", EPOCH_MS + day * DAY_MS)
        if records is None:
            assert report["perDayFleetAvgHours"][day] is None
        else:
            assert report["perDayFleetAvgHours"][day] == pytest.approx(
                fleet_average_hours(records)
            )


# ---------------------------------------------------------------------------
# wire-level behavior


class HubProbe:
    def __init__(self, tmp_path, drop_acks=0):
        self.sched = VirtualScheduler(EPOCH_MS)
        self.net = VirtualNetwork(self.sched)
        self.store = open_store(tmp_path / "store")
        self.hub = HubCore(self.sched, self.net, self.store, "sim://hub", drop_acks=drop_acks)
        self.hub.start()
        self.received = []
        self.conn = self.net.connect("sim://hub")
        self.conn.on_message = self.received.append
        self.conn.on_close = lambda: None

    def send(self, line):
        self.conn.send(line)
        self.sched.run_until(self.sched.now_ms())


def test_rollup_over_wire_acked_and_stored(tmp_path):
    probe = HubProbe(tmp_path)
    raw = protocol.encode_rollup_envelope(
        "LOT-A", EPOCH_MS, EPOCH_MS + DAY_MS, [RollupRecord(1, 60, 0.0007)]
    )
    probe.send(raw)
    assert probe.received == [{"type": "ack", "key": f"LOT-A:{EPOCH_MS}"}]
    assert len(probe.store) == 1


def test_schema_violation_rejected_with_error_nothing_stored(tmp_path):
    probe = HubProbe(tmp_path)
    probe.send(protocol.encode_line({"type": "rollup", "key": "x", "lotId": "L"}))
    assert probe.received[0]["type"] == "error"
    assert probe.received[0]["key"] == "x"  # the refusal names the upload it refuses
    assert len(probe.store) == 0
    probe.send(protocol.encode_line(
        {
            "type": "rollup",
            "key": "L:0",
            "lotId": "L",
            "windowStart": 0,
            "windowEnd": DAY_MS,
            "records": [
                {"bayId": 2, "occupationTime": 0, "occupationRate": 0.0},
                {"bayId": 1, "occupationTime": 0, "occupationRate": 0.0},
            ],
        }
    ))
    assert probe.received[1]["type"] == "error"
    probe.send(protocol.encode_line({"type": "rollup", "key": 7, "lotId": "L"}))
    assert probe.received[2]["type"] == "error" and "key" not in probe.received[2]
    assert len(probe.store) == 0


def test_query_daily_over_wire(tmp_path):
    probe = HubProbe(tmp_path)
    records = full_day_records(27_000)
    raw = protocol.encode_rollup_envelope("LOT-A", EPOCH_MS, EPOCH_MS + DAY_MS, records)
    probe.send(raw)
    probe.send(protocol.encode_line(
        {"type": "queryDaily", "lotId": "LOT-A", "windowStart": EPOCH_MS}
    ))
    reply = probe.received[-1]
    assert reply["type"] == "daily"
    assert len(reply["records"]) == 22
    next_day = {"type": "queryDaily", "lotId": "LOT-A", "windowStart": EPOCH_MS + DAY_MS}
    probe.send(protocol.encode_line(next_day))
    assert probe.received[-1] == {"type": "notFound"}


def test_query_weekly_over_wire(tmp_path):
    probe = HubProbe(tmp_path)
    raw = protocol.encode_rollup_envelope(
        "LOT-A", EPOCH_MS, EPOCH_MS + DAY_MS, full_day_records(27_000)
    )
    probe.send(raw)
    probe.send(protocol.encode_line(
        {"type": "queryWeekly", "lotId": "LOT-A", "weekStart": EPOCH_MS}
    ))
    reply = probe.received[-1]
    assert reply["type"] == "weekly"
    assert reply["perDayFleetAvgHours"][0] == pytest.approx(7.5)
    assert reply["perBayMinHours"]["1"] == pytest.approx(7.5)
    probe.send(protocol.encode_line(
        {"type": "queryWeekly", "lotId": "OTHER-LOT", "weekStart": EPOCH_MS}
    ))
    assert probe.received[-1] == {"type": "notFound"}


def test_query_replies_over_wire_are_pinned(tmp_path):
    # Two lots; LOT-A has days 0, 1 and 3 of the week, with bay 3 on day 3 only.
    probe = HubProbe(tmp_path)
    stored = {
        ("LOT-A", 0): [RollupRecord(1, 27_000, 0.3125), RollupRecord(2, 9_000, 0.1042)],
        ("LOT-A", 1): [RollupRecord(1, 0, 0.0), RollupRecord(2, 86_400, 1.0)],
        ("LOT-A", 3): [RollupRecord(1, 18_000, 0.2083), RollupRecord(3, 3_600, 0.0417)],
        ("LOT-B", 0): [RollupRecord(1, 43_200, 0.5)],
    }
    for (lot, day), records in stored.items():
        start = EPOCH_MS + day * DAY_MS
        probe.send(protocol.encode_rollup_envelope(lot, start, start + DAY_MS, records))
    assert len(probe.store) == 4
    probe.received.clear()

    def ask(message):
        probe.send(protocol.encode_line(message))
        return probe.received.pop()

    def daily(lot, day):
        return ask({"type": "queryDaily", "lotId": lot, "windowStart": EPOCH_MS + day * DAY_MS})

    def weekly(lot, day):
        return ask({"type": "queryWeekly", "lotId": lot, "weekStart": EPOCH_MS + day * DAY_MS})

    not_found = {"type": "notFound"}
    assert daily("LOT-A", 0) == {"type": "daily", "records": [
        {"bayId": 1, "occupationTime": 27_000, "occupationRate": 0.3125},
        {"bayId": 2, "occupationTime": 9_000, "occupationRate": 0.1042},
    ]}
    assert daily("LOT-A", 3) == {"type": "daily", "records": [
        {"bayId": 1, "occupationTime": 18_000, "occupationRate": 0.2083},
        {"bayId": 3, "occupationTime": 3_600, "occupationRate": 0.0417},
    ]}
    assert daily("LOT-B", 0) == {"type": "daily", "records": [
        {"bayId": 1, "occupationTime": 43_200, "occupationRate": 0.5},
    ]}
    assert daily("LOT-A", 2) == not_found
    assert daily("LOT-B", 1) == not_found
    assert daily("LOT-C", 0) == not_found
    assert weekly("LOT-A", 0) == {
        "type": "weekly", "lotId": "LOT-A", "weekStart": EPOCH_MS,
        "perDayFleetAvgHours": [5.0, 12.0, None, 3.0, None, None, None],
        "perBayMinHours": {"1": 0.0, "2": 2.5, "3": 1.0},
        "perBayMaxHours": {"1": 7.5, "2": 24.0, "3": 1.0},
    }
    assert weekly("LOT-A", 1) == {
        "type": "weekly", "lotId": "LOT-A", "weekStart": EPOCH_MS + DAY_MS,
        "perDayFleetAvgHours": [12.0, None, 3.0, None, None, None, None],
        "perBayMinHours": {"1": 0.0, "2": 24.0, "3": 1.0},
        "perBayMaxHours": {"1": 5.0, "2": 24.0, "3": 1.0},
    }
    assert weekly("LOT-B", 0) == {
        "type": "weekly", "lotId": "LOT-B", "weekStart": EPOCH_MS,
        "perDayFleetAvgHours": [12.0, None, None, None, None, None, None],
        "perBayMinHours": {"1": 12.0},
        "perBayMaxHours": {"1": 12.0},
    }
    assert weekly("LOT-A", 4) == not_found
    assert weekly("LOT-C", 0) == not_found
    assert probe.received == []


@pytest.mark.parametrize(
    "message",
    [
        {"type": "queryDaily", "lotId": "LOT-A", "windowStart": True},
        {"type": "queryWeekly", "lotId": "LOT-A", "weekStart": True},
    ],
    ids=["windowStart", "weekStart"],
)
def test_query_with_boolean_start_gets_error_reply(tmp_path, message):
    probe = HubProbe(tmp_path)
    probe.send(protocol.encode_line(message))
    assert probe.received[0]["type"] == "error"


def test_a_4300_digit_week_start_gets_an_error_and_the_link_lives_on(tmp_path):
    # json decodes it, but weekStart + one day has 4,301 digits, which no
    # envelope key can print: the query must be refused before that sum.
    probe = HubProbe(tmp_path)
    probe.send(b'{"type":"queryWeekly","lotId":"L","weekStart":%s}\n' % (b"9" * 4300))
    assert probe.received == [
        {"type": "error", "reason": "queryWeekly needs lotId and weekStart"}
    ]
    probe.send(protocol.encode_rollup_envelope(
        "LOT-A", EPOCH_MS, EPOCH_MS + DAY_MS, full_day_records(27_000)
    ))
    probe.send(protocol.encode_line(
        {"type": "queryWeekly", "lotId": "LOT-A", "weekStart": EPOCH_MS}
    ))
    assert probe.received[-1]["type"] == "weekly"


@pytest.mark.parametrize(
    "start", [2**63, -(2**63) - 1, int("9" * 4300), -int("9" * 4300)],
    ids=["2**63", "-2**63-1", "4300-nines", "-4300-nines"],
)
@pytest.mark.parametrize("query", ["queryDaily", "queryWeekly"])
def test_query_with_a_start_outside_64_bits_gets_error_reply(tmp_path, query, start):
    probe = HubProbe(tmp_path)
    field = "windowStart" if query == "queryDaily" else "weekStart"
    probe.send(protocol.encode_line({"type": query, "lotId": "LOT-A", field: start}))
    assert probe.received == [
        {"type": "error", "reason": f"{query} needs lotId and {field}"}
    ]


def test_unknown_type_gets_error_reply(tmp_path):
    probe = HubProbe(tmp_path)
    probe.send(protocol.encode_line({"type": "mystery"}))
    assert probe.received[0]["type"] == "error"


def test_unsafe_lot_id_rejected(tmp_path):
    probe = HubProbe(tmp_path)
    raw = protocol.encode_rollup_envelope(
        "bad/lot", EPOCH_MS, EPOCH_MS + DAY_MS, [RollupRecord(1, 0, 0.0)]
    )
    probe.send(raw)
    assert probe.received[0]["type"] == "error"
    assert len(probe.store) == 0


def test_integer_rate_too_large_for_a_float_gets_an_error_and_the_link_lives_on(tmp_path):
    probe = HubProbe(tmp_path)
    huge = (
        b'{"type":"rollup","key":"LOT-A:%d","lotId":"LOT-A","windowStart":%d,"windowEnd":%d,'
        b'"records":[{"bayId":1,"occupationTime":0,"occupationRate":1%s}]}\n'
        % (EPOCH_MS, EPOCH_MS, EPOCH_MS + DAY_MS, b"0" * 400)
    )
    probe.send(huge)
    assert probe.received == [{
        "type": "error", "reason": "occupationRate must be within [0, 1]",
        "key": f"LOT-A:{EPOCH_MS}",
    }]
    assert len(probe.store) == 0
    probe.send(protocol.encode_rollup_envelope(
        "LOT-A", EPOCH_MS, EPOCH_MS + DAY_MS, [RollupRecord(1, 60, 0.0007)]
    ))
    assert probe.received[1] == {"type": "ack", "key": f"LOT-A:{EPOCH_MS}"}
    assert len(probe.store) == 1


def test_lot_id_with_a_trailing_newline_gets_an_error_and_no_file(tmp_path):
    probe = HubProbe(tmp_path)
    lot = "LOT-A\n"
    probe.send(protocol.encode_line({
        "type": "rollup", "key": protocol.envelope_key(lot, EPOCH_MS), "lotId": lot,
        "windowStart": EPOCH_MS, "windowEnd": EPOCH_MS + DAY_MS,
        "records": [{"bayId": 1, "occupationTime": 0, "occupationRate": 0.0}],
    }))
    assert probe.received == [{
        "type": "error", "reason": protocol.LOT_ID_RULE, "key": protocol.envelope_key(lot, EPOCH_MS)
    }]
    assert len(probe.store) == 0
    assert list(probe.store.store_dir.iterdir()) == []


# ---------------------------------------------------------------------------
# store rows on load


GOOD_ROW = {
    "key": f"LOT-A:{EPOCH_MS + DAY_MS}", "lotId": "LOT-A", "windowStart": EPOCH_MS + DAY_MS,
    "windowEnd": EPOCH_MS + 2 * DAY_MS, "receivedAt": 7,
    "records": [{"bayId": 1, "occupationTime": 60, "occupationRate": 0.0007}],
}


@pytest.mark.parametrize(
    "row",
    [
        {"key": "L:0", "lotId": "L", "windowStart": 0, "windowEnd": 1000, "receivedAt": 1},
        {k: v for k, v in GOOD_ROW.items() if k != "receivedAt"},
        dict(GOOD_ROW, receivedAt=True),
        dict(GOOD_ROW, receivedAt="7"),
        dict(GOOD_ROW, lotId="a/b", key=f"a/b:{EPOCH_MS + DAY_MS}"),
        dict(GOOD_ROW, key="LOT-A:0"),
        dict(GOOD_ROW, records=[{"bayId": 1, "occupationTime": 60}]),
        dict(GOOD_ROW, records=[{"bayId": 2, "occupationTime": 0, "occupationRate": 0.0},
                                {"bayId": 1, "occupationTime": 0, "occupationRate": 0.0}]),
    ],
    ids=["no-records", "no-receivedAt", "bool-receivedAt", "str-receivedAt", "bad-lot",
         "bad-key", "record-without-rate", "unsorted-records"],
)
def test_a_bad_stored_row_is_skipped_logged_and_counted(tmp_path, row, caplog):
    store = open_store(tmp_path)
    store.receive(envelope(), received_at=1)
    with open(tmp_path / "LOT-A.jsonl", "ab") as fh:
        fh.write(protocol.encode_line(row) + protocol.encode_line(GOOD_ROW))
    reopened = open_store(tmp_path)
    assert reopened.skipped_rows == 1
    assert "skipping bad stored row" in caplog.text
    assert len(reopened) == 2  # the rows before and after it are kept
    assert reopened.query_daily("LOT-A", EPOCH_MS) == (RollupRecord(1, 100, 0.0012),)
    assert reopened.query_daily("LOT-A", EPOCH_MS + DAY_MS) == (RollupRecord(1, 60, 0.0007),)


def test_each_event_line_in_a_store_file_is_a_bad_row(tmp_path, caplog):
    store = open_store(tmp_path)
    store.receive(envelope(), received_at=1)
    with open(tmp_path / "LOT-A.jsonl", "ab") as fh:  # one head: the later lines read by it
        fh.write(b"".join(eventlog.event_line(EventKind.UPDATE, ts, "LOT-A", 1, BayStatus.FREE)
                          for ts in (1, 2, 3)) + protocol.encode_line(GOOD_ROW))
    reopened = open_store(tmp_path)
    assert reopened.skipped_rows == 3
    assert caplog.text.count("skipping bad stored row") == 3
    assert len(reopened) == 2


def test_load_counts_a_torn_row_as_skipped(tmp_path):
    store = open_store(tmp_path)
    store.receive(envelope(), received_at=1)
    with open(tmp_path / "LOT-A.jsonl", "ab") as fh:
        fh.write(b'{"key":"L:864')
    assert open_store(tmp_path).skipped_rows == 1


def test_a_load_over_a_long_torn_tail_costs_one_scan_block(tmp_path):
    open_store(tmp_path).receive(envelope(), received_at=1)
    append_long_torn_tail(tmp_path / "LOT-A.jsonl")
    loaded = []
    assert traced_peak(lambda: loaded.append(open_store(tmp_path))) < MIB
    assert loaded[0].skipped_rows == 1
    assert loaded[0].query_daily("LOT-A", EPOCH_MS) == (RollupRecord(1, 100, 0.0012),)


def test_a_stored_row_loads_as_the_rollup_it_stored(tmp_path):
    rng = random.Random(5)
    store = open_store(tmp_path)
    for i in range(200):
        store.receive(protocol.parse_rollup_envelope(random_wire_envelope(rng)), received_at=i)
    reopened = open_store(tmp_path)
    assert reopened.skipped_rows == 0
    assert reopened.lots() == store.lots()
    for lot in store.lots():
        assert reopened.windows_for(lot) == store.windows_for(lot)


def test_receive_indexes_a_key_only_after_its_append_returns(tmp_path, monkeypatch):
    from edgepark import eventlog

    store = open_store(tmp_path)
    real_append = eventlog.EventLogWriter.append

    def failing_append(self, line):
        raise OSError("disk full")

    monkeypatch.setattr(eventlog.EventLogWriter, "append", failing_append)
    with pytest.raises(OSError, match="disk full"):
        store.receive(envelope(), received_at=1)
    assert len(store) == 0
    monkeypatch.setattr(eventlog.EventLogWriter, "append", real_append)
    assert store.receive(envelope(), received_at=2) is True
    assert open_store(tmp_path).query_daily("LOT-A", EPOCH_MS) is not None


@pytest.fixture
def lot_writers(monkeypatch):
    """Every EventLogWriter the store constructs, in order."""
    from edgepark import eventlog

    writers = []

    class TrackedWriter(eventlog.EventLogWriter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            writers.append(self)

    monkeypatch.setattr(eventlog, "EventLogWriter", TrackedWriter)
    return writers


def test_receives_into_one_lot_open_its_file_once(tmp_path, lot_writers):
    store = open_store(tmp_path)
    for day in range(30):
        assert store.receive(envelope(start=EPOCH_MS + day * DAY_MS), received_at=day) is True
    assert store.receive(envelope(), received_at=30) is False
    assert store.receive(envelope(lot="LOT-B"), received_at=31) is True
    assert [w.path for w in lot_writers] == [tmp_path / "LOT-A.jsonl", tmp_path / "LOT-B.jsonl"]
    assert len((tmp_path / "LOT-A.jsonl").read_bytes().splitlines()) == 30


def test_a_failed_append_leaves_no_torn_row(tmp_path, monkeypatch, lot_writers):
    from edgepark import eventlog

    store = open_store(tmp_path)
    assert store.receive(envelope(start=EPOCH_MS), received_at=1) is True

    def torn_append(self, line):  # half the row reaches the file, then the disk fills
        self._fh.write(line[: len(line) // 2])
        self._fh.flush()
        raise OSError("disk full")

    with monkeypatch.context() as patched:
        patched.setattr(eventlog.EventLogWriter, "append", torn_append)
        with pytest.raises(OSError, match="disk full"):
            store.receive(envelope(start=EPOCH_MS + DAY_MS), received_at=2)
    assert not (tmp_path / "LOT-A.jsonl").read_bytes().endswith(b"\n")
    assert lot_writers[0]._fh.closed  # the failed writer is closed and dropped
    assert len(store) == 1
    assert store.receive(envelope(start=EPOCH_MS + DAY_MS), received_at=3) is True
    assert len(lot_writers) == 2  # reopened, cutting the torn half row
    reopened = open_store(tmp_path)
    assert reopened.skipped_rows == 0
    assert len(reopened) == 2
    rows = (tmp_path / "LOT-A.jsonl").read_bytes().splitlines(keepends=True)
    assert rows == [store_row_line(envelope(start=EPOCH_MS), 1),
                    store_row_line(envelope(start=EPOCH_MS + DAY_MS), 3)]


def test_hub_stop_closes_every_lot_file_and_a_later_receive_reopens_one(tmp_path, lot_writers):
    probe = HubProbe(tmp_path)
    for lot in ("LOT-A", "LOT-B"):
        probe.send(protocol.encode_rollup_envelope(
            lot, EPOCH_MS, EPOCH_MS + DAY_MS, [RollupRecord(1, 60, 0.0007)]
        ))
    assert [w.path.name for w in lot_writers] == ["LOT-A.jsonl", "LOT-B.jsonl"]
    assert not any(w._fh.closed for w in lot_writers)
    probe.hub.stop()
    assert all(w._fh.closed for w in lot_writers)
    probe.store.close()  # idempotent
    # A receive after close() opens its lot's file again: the row is stored
    # and the key deduped as before, until the next close().
    assert probe.store.receive(envelope(start=EPOCH_MS + DAY_MS), received_at=5) is True
    assert probe.store.receive(envelope(lot="LOT-B"), received_at=6) is False
    assert len(lot_writers) == 3 and not lot_writers[2]._fh.closed
    probe.store.close()
    assert lot_writers[2]._fh.closed
    assert len(open_store(tmp_path / "store")) == 3


def test_a_store_keeps_at_most_max_open_lots_files_open(tmp_path, lot_writers):
    # Lot ids come off the wire, so a store's open files are bounded.
    store = open_store(tmp_path)
    lots = [f"LOT-{n}" for n in range(MAX_OPEN_LOTS + 3)]
    for n, lot in enumerate(lots):
        assert store.receive(envelope(lot=lot), received_at=n) is True
        assert sum(not w._fh.closed for w in lot_writers) == min(n + 1, MAX_OPEN_LOTS)
    # The least recently received lots were closed, in the order they were opened.
    assert [w._fh.closed for w in lot_writers] == [True] * 3 + [False] * MAX_OPEN_LOTS
    # A receive into a kept lot reuses its writer, and makes it the most recent.
    assert store.receive(envelope(lot=lots[3], start=EPOCH_MS + DAY_MS), received_at=20) is True
    assert len(lot_writers) == len(lots)
    # A closed lot opens its file again, closing the least recent other lot (lots[4]).
    assert store.receive(envelope(lot=lots[0], start=EPOCH_MS + DAY_MS), received_at=21) is True
    assert len(lot_writers) == len(lots) + 1
    assert [lot for lot, w in zip(lots, lot_writers) if w._fh.closed] == lots[:3] + [lots[4]]
    assert sum(not w._fh.closed for w in lot_writers) == MAX_OPEN_LOTS
    store.close()
    reopened = open_store(tmp_path)
    assert reopened.skipped_rows == 0
    assert len(reopened) == len(lots) + 2


def test_hub_stop_closes_the_store_when_the_listener_close_raises(tmp_path, lot_writers):
    probe = HubProbe(tmp_path)
    probe.send(protocol.encode_rollup_envelope(
        "LOT-A", EPOCH_MS, EPOCH_MS + DAY_MS, [RollupRecord(1, 60, 0.0007)]
    ))

    class FailingListener:
        def close(self):
            raise OSError("close failed")

    probe.hub.listener = FailingListener()
    with pytest.raises(OSError, match="close failed"):
        probe.hub.stop()
    assert [w._fh.closed for w in lot_writers] == [True]
