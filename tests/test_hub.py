"""Hub store dedupe/durability and report queries."""

import json

import pytest

from edgepark import protocol
from edgepark.clock import VirtualScheduler
from edgepark.hub import HubCore, RollupStore, fleet_average_hours
from edgepark.occupancy import RollupRecord
from edgepark.transport import VirtualNetwork

from conftest import DAY_MS, EPOCH_MS


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
    store = RollupStore(tmp_path, fsync=False)
    assert store.receive(envelope(), received_at=1) is True
    assert len(store) == 1
    assert store.query_daily("LOT-A", EPOCH_MS) == (RollupRecord(1, 100, 0.0012),)


def test_duplicate_key_stored_once(tmp_path):
    store = RollupStore(tmp_path, fsync=False)
    for i in range(5):
        stored = store.receive(envelope(), received_at=i)
        assert stored is (i == 0)
    assert len(store) == 1
    lines = (tmp_path / "LOT-A.jsonl").read_text().strip().splitlines()
    assert len(lines) == 1


def test_two_windows_two_records(tmp_path):
    store = RollupStore(tmp_path, fsync=False)
    store.receive(envelope(start=EPOCH_MS), received_at=1)
    store.receive(envelope(start=EPOCH_MS + DAY_MS), received_at=2)
    assert len(store) == 2


def test_unknown_window_is_not_found(tmp_path):
    store = RollupStore(tmp_path, fsync=False)
    assert store.query_daily("LOT-A", EPOCH_MS) is None


def test_ack_implies_durable_across_restart(tmp_path):
    store = RollupStore(tmp_path, fsync=False)
    store.receive(envelope(), received_at=42)
    reopened = RollupStore(tmp_path, fsync=False)
    assert reopened.query_daily("LOT-A", EPOCH_MS) == (RollupRecord(1, 100, 0.0012),)
    # Duplicate after restart still deduped.
    assert reopened.receive(envelope(), received_at=43) is False


def test_store_survives_torn_append(tmp_path):
    store = RollupStore(tmp_path, fsync=False)
    store.receive(envelope(start=EPOCH_MS), received_at=1)
    with open(tmp_path / "LOT-A.jsonl", "ab") as fh:
        fh.write(b'{"key":"L:864')  # crash mid-append: no newline
    reopened = RollupStore(tmp_path, fsync=False)
    assert len(reopened) == 1
    assert reopened.receive(envelope(start=EPOCH_MS + DAY_MS), received_at=2) is True
    again = RollupStore(tmp_path, fsync=False)
    assert again.query_daily("LOT-A", EPOCH_MS) == (RollupRecord(1, 100, 0.0012),)
    assert again.query_daily("LOT-A", EPOCH_MS + DAY_MS) == (RollupRecord(1, 100, 0.0012),)


# ---------------------------------------------------------------------------
# weekly report


def test_weekly_report_single_uniform_day(tmp_path):
    store = RollupStore(tmp_path, fsync=False)
    store.receive(envelope(records=full_day_records(27_000)), received_at=1)
    report = store.weekly_report("LOT-A", EPOCH_MS)
    assert report.per_day_fleet_avg_hours[0] == pytest.approx(7.5)
    assert report.per_day_fleet_avg_hours[1:] == (None,) * 6
    assert report.per_bay_min_hours[1] == pytest.approx(7.5)
    assert report.per_bay_max_hours[22] == pytest.approx(7.5)


def test_weekly_report_min_max_extremes(tmp_path):
    store = RollupStore(tmp_path, fsync=False)
    store.receive(
        envelope(start=EPOCH_MS, records=[RollupRecord(4, 86_400, 1.0)]), received_at=1
    )
    for day in range(1, 4):
        store.receive(
            envelope(start=EPOCH_MS + day * DAY_MS, records=[RollupRecord(4, 0, 0.0)]),
            received_at=day,
        )
    report = store.weekly_report("LOT-A", EPOCH_MS)
    assert report.per_bay_max_hours[4] == 24.0
    assert report.per_bay_min_hours[4] == 0.0


def test_weekly_report_requires_at_least_one_day(tmp_path):
    store = RollupStore(tmp_path, fsync=False)
    assert store.weekly_report("LOT-A", EPOCH_MS) is None


def test_weekly_report_consistent_with_daily_queries(tmp_path):
    import random

    rng = random.Random(11)
    store = RollupStore(tmp_path, fsync=False)
    for day in range(7):
        if day == 3:
            continue  # missing day stays missing
        records = full_day_records(rng.randint(0, 86_400), bays=5)
        store.receive(envelope(start=EPOCH_MS + day * DAY_MS, records=records), received_at=day)
    report = store.weekly_report("LOT-A", EPOCH_MS)
    for day in range(7):
        records = store.query_daily("LOT-A", EPOCH_MS + day * DAY_MS)
        if records is None:
            assert report.per_day_fleet_avg_hours[day] is None
        else:
            assert report.per_day_fleet_avg_hours[day] == pytest.approx(
                fleet_average_hours(records)
            )


# ---------------------------------------------------------------------------
# wire-level behavior


class HubProbe:
    def __init__(self, tmp_path, drop_acks=0):
        self.sched = VirtualScheduler(EPOCH_MS)
        self.net = VirtualNetwork(self.sched)
        self.store = RollupStore(tmp_path / "store", fsync=False)
        self.hub = HubCore(self.sched, self.net, self.store, "sim://hub", drop_acks=drop_acks)
        self.hub.start()
        self.received = []
        self.conn = self.net.connect("sim://hub")
        self.conn.on_message = self.received.append
        self.conn.on_close = lambda: None

    def send(self, line):
        self.conn.send(line)
        self.sched.run_for(0)


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
    assert len(probe.store) == 0


def test_query_daily_over_wire(tmp_path):
    probe = HubProbe(tmp_path)
    records = full_day_records(27_000)
    raw = protocol.encode_rollup_envelope("LOT-A", EPOCH_MS, EPOCH_MS + DAY_MS, records)
    probe.send(raw)
    probe.send(protocol.encode_line(protocol.query_daily_message("LOT-A", EPOCH_MS)))
    reply = probe.received[-1]
    assert reply["type"] == "daily"
    assert len(reply["records"]) == 22
    next_day = protocol.query_daily_message("LOT-A", EPOCH_MS + DAY_MS)
    probe.send(protocol.encode_line(next_day))
    assert probe.received[-1] == {"type": "notFound"}


def test_query_weekly_over_wire(tmp_path):
    probe = HubProbe(tmp_path)
    raw = protocol.encode_rollup_envelope(
        "LOT-A", EPOCH_MS, EPOCH_MS + DAY_MS, full_day_records(27_000)
    )
    probe.send(raw)
    probe.send(protocol.encode_line(protocol.query_weekly_message("LOT-A", EPOCH_MS)))
    reply = probe.received[-1]
    assert reply["type"] == "weekly"
    assert reply["perDayFleetAvgHours"][0] == pytest.approx(7.5)
    assert reply["perBayMinHours"]["1"] == pytest.approx(7.5)
    probe.send(protocol.encode_line(protocol.query_weekly_message("OTHER-LOT", EPOCH_MS)))
    assert probe.received[-1] == {"type": "notFound"}


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
