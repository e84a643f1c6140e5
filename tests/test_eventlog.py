"""Event-log encoding, torn-tail tolerance, and marker handling."""

from edgepark import eventlog
from edgepark.occupancy import BayStatus, EventKind, OccupancyEvent


def ev(ts, bay, status, kind=EventKind.UPDATE):
    return OccupancyEvent(kind, ts, "L", bay, BayStatus(status))


def test_append_read_roundtrip(tmp_path):
    path = tmp_path / "events.log"
    writer = eventlog.EventLogWriter(path)
    writer.append(eventlog.event_record(ev(1, 1, "occupied", EventKind.SNAPSHOT)))
    writer.append(eventlog.event_record(ev(2, 1, "free")))
    writer.append(eventlog.flush_record(100, 0))
    writer.append(eventlog.disconnect_record(150))
    writer.append(eventlog.event_record(ev(200, 2, "occupied"), rejected=True))
    writer.close()

    records, skipped = eventlog.read_records(path)
    assert skipped == 0
    assert len(records) == 5
    assert records[0]["src"] == "snapshot"
    assert records[1] == {"bayId": 1, "lotId": "L", "src": "update", "status": "free", "ts": 2}
    assert records[2]["marker"] == "flush" and records[2]["windowStart"] == 0
    assert records[3]["marker"] == "disconnect"
    assert records[4]["rejected"] is True


def test_torn_tail_discarded_with_count(tmp_path):
    path = tmp_path / "events.log"
    writer = eventlog.EventLogWriter(path)
    writer.append(eventlog.event_record(ev(1, 1, "occupied")))
    writer.close()
    with open(path, "ab") as fh:
        fh.write(b'{"ts": 2, "lotId": "L", "bayId"')  # no newline: torn write
    records, skipped = eventlog.read_records(path)
    assert len(records) == 1
    assert skipped == 1


def test_writer_cuts_torn_tail_before_appending(tmp_path):
    path = tmp_path / "events.log"
    writer = eventlog.EventLogWriter(path)
    writer.append(eventlog.event_record(ev(1, 1, "occupied")))
    writer.close()
    with open(path, "ab") as fh:
        fh.write(b'{"ts": 2, "lotId": "L", "bayId"')  # no newline: torn write
    writer = eventlog.EventLogWriter(path)
    writer.append(eventlog.event_record(ev(2, 1, "free")))
    writer.append(eventlog.event_record(ev(3, 1, "occupied")))
    writer.close()
    records, skipped = eventlog.read_records(path)
    assert [r["ts"] for r in records] == [1, 2, 3]
    assert skipped == 0


def test_undecodable_interior_line_skipped(tmp_path):
    path = tmp_path / "events.log"
    with open(path, "wb") as fh:
        fh.write(b'{"ts":1,"lotId":"L","bayId":1,"status":"free","src":"update"}\n')
        fh.write(b"garbage line\n")
        fh.write(b'{"ts":2,"lotId":"L","bayId":1,"status":"occupied","src":"update"}\n')
    records, skipped = eventlog.read_records(path)
    assert [r["ts"] for r in records] == [1, 2]
    assert skipped == 1


def test_missing_file_reads_empty(tmp_path):
    records, skipped = eventlog.read_records(tmp_path / "absent.log")
    assert records == [] and skipped == 0


def test_last_flush_index():
    records = [
        eventlog.event_record(ev(1, 1, "free")),
        eventlog.flush_record(10, 0),
        eventlog.event_record(ev(11, 1, "occupied")),
        eventlog.flush_record(20, 10),
        eventlog.event_record(ev(21, 1, "free")),
    ]
    assert eventlog.last_flush_index(records) == 3
    assert eventlog.last_flush_index(records[:1]) is None


def test_record_to_event_roundtrip():
    original = ev(77, 9, "occupied", EventKind.SNAPSHOT)
    assert eventlog.record_to_event(eventlog.event_record(original)) == original
