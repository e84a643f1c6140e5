"""Event-log encoding, torn-tail tolerance, and marker handling."""

import gc
import json
import logging
import random
import tracemalloc
import warnings
from pathlib import Path

import pytest

from edgepark import eventlog
from edgepark.occupancy import (
    BayState,
    BayStatus,
    EventKind,
    InvariantViolationError,
    apply_event,
)
from edgepark.protocol import encode_line

from conftest import MIB, append_long_torn_tail, item_record, random_int, random_text, traced_peak


def ev(ts, bay, status, kind=EventKind.UPDATE):
    """An event's fields in event_line's order: (kind, ts, lot_id, bay_id, status)."""
    return kind, ts, "L", bay, BayStatus(status)


def random_event(rng):
    return (
        rng.choice(list(EventKind)), abs(random_int(rng)), random_text(rng),
        abs(random_int(rng)) + 1, rng.choice(list(BayStatus)),
    )


def event_record(event, *, rejected=False):
    """Reference: the dict an event line encodes."""
    kind, ts, lot_id, bay_id, status = event
    record = {
        "ts": ts,
        "lotId": lot_id,
        "bayId": bay_id,
        "status": status.value,
        "src": kind.value,
    }
    if rejected:
        record["rejected"] = True
    return record


def test_event_line_is_encode_line_of_event_record():
    rng = random.Random(20181119)
    for _ in range(600):
        event = random_event(rng)
        for rejected in (False, True):
            assert eventlog.event_line(*event, rejected) == encode_line(
                event_record(event, rejected=rejected)
            )


def test_event_line_covers_every_status_source_and_flag():
    for kind in EventKind:
        for status in BayStatus:
            event = (kind, 1_542_585_600_000, 'L"\\é😀', 7, status)
            for rejected in (False, True):
                line = eventlog.event_line(*event, rejected=rejected)
                assert line == encode_line(event_record(event, rejected=rejected))
                assert (b'"rejected":true' in line) is rejected


def test_reseed_lines_are_event_lines_of_each_bay_snapshot_in_bay_order():
    rng = random.Random(1_542_589_200)
    for _ in range(200):
        table = {}
        for _ in range(rng.randint(0, 8)):
            bay_id = abs(random_int(rng)) + 1
            table[bay_id] = BayState(bay_id, random_text(rng), rng.choice(list(BayStatus)), 0)
        boundary = abs(random_int(rng))
        assert eventlog.reseed_lines(table, boundary) == b"".join(
            encode_line(event_record((EventKind.SNAPSHOT, boundary, state.lot_id, bay_id,
                                      state.status)))
            for bay_id, state in sorted(table.items())
        )


def read_all(path):
    """Every record of one pass over the log, and the lines that pass skipped."""
    with eventlog.read_records(path) as reader:
        records = [item_record(item) for item in reader]
    return records, reader.skipped


def test_append_read_roundtrip(tmp_path):
    path = tmp_path / "events.log"
    writer = eventlog.EventLogWriter(path)
    writer.append(eventlog.event_line(*ev(1, 1, "occupied", EventKind.SNAPSHOT)))
    writer.append(eventlog.event_line(*ev(2, 1, "free")))
    writer.append(encode_line(eventlog.flush_record(100, 0)))
    writer.append(encode_line(eventlog.disconnect_record(150)))
    writer.append(eventlog.event_line(*ev(200, 2, "occupied"), rejected=True))
    writer.close()

    records, skipped = read_all(path)
    assert skipped == 0
    assert len(records) == 5
    assert records[0]["src"] == "snapshot"
    assert records[1] == {"bayId": 1, "lotId": "L", "src": "update", "status": "free", "ts": 2}
    assert records[2]["marker"] == "flush" and records[2]["windowStart"] == 0
    assert records[3]["marker"] == "disconnect"
    assert records[4]["rejected"] is True


class ShortWrites:
    """A raw file double whose write takes at most ``most`` bytes of what it is given."""

    def __init__(self, raw, most):
        self.raw, self.most, self.calls = raw, most, 0

    def write(self, data):
        self.calls += 1
        return self.raw.write(data[: self.most])

    def __getattr__(self, name):
        return getattr(self.raw, name)


def test_append_writes_the_rest_of_a_short_write(tmp_path):
    path = tmp_path / "events.log"
    writer = eventlog.EventLogWriter(path)
    writer._fh = short = ShortWrites(writer._fh, 7)
    line = eventlog.event_line(*ev(1, 1, "occupied"))
    table = {b: BayState(b, "L", BayStatus.FREE, 0) for b in (1, 2, 3)}
    block = encode_line(eventlog.flush_record(100, 0)) + eventlog.reseed_lines(table, 100)
    after = eventlog.event_line(*ev(200, 2, "occupied"))
    writer.append(line)
    assert short.calls == -(-len(line) // 7)  # every call took 7 bytes, the last the rest
    assert path.read_bytes() == line  # whole, before append returned
    writer.append(block)
    assert path.read_bytes() == line + block
    writer.append(after)
    writer.close()
    assert path.read_bytes() == line + block + after
    records, skipped = read_all(path)
    assert skipped == 0
    assert [r["ts"] for r in records] == [1, 100, 100, 100, 100, 200]


def test_torn_tail_discarded_with_count(tmp_path):
    path = tmp_path / "events.log"
    writer = eventlog.EventLogWriter(path)
    writer.append(eventlog.event_line(*ev(1, 1, "occupied")))
    writer.close()
    with open(path, "ab") as fh:
        fh.write(b'{"ts": 2, "lotId": "L", "bayId"')  # no newline: torn write
    records, skipped = read_all(path)
    assert len(records) == 1
    assert skipped == 1


def test_writer_cuts_torn_tail_before_appending(tmp_path):
    path = tmp_path / "events.log"
    writer = eventlog.EventLogWriter(path)
    writer.append(eventlog.event_line(*ev(1, 1, "occupied")))
    writer.close()
    with open(path, "ab") as fh:
        fh.write(b'{"ts": 2, "lotId": "L", "bayId"')  # no newline: torn write
    writer = eventlog.EventLogWriter(path)
    writer.append(eventlog.event_line(*ev(2, 1, "free")))
    writer.append(eventlog.event_line(*ev(3, 1, "occupied")))
    writer.close()
    records, skipped = read_all(path)
    assert [r["ts"] for r in records] == [1, 2, 3]
    assert skipped == 0


def test_undecodable_interior_line_skipped(tmp_path):
    path = tmp_path / "events.log"
    with open(path, "wb") as fh:
        fh.write(b'{"ts":1,"lotId":"L","bayId":1,"status":"free","src":"update"}\n')
        fh.write(b"garbage line\n")
        fh.write(b"[" * 100_000 + b"\n")  # nested past the recursion limit
        fh.write(b'{"ts":2,"lotId":"L","bayId":1,"status":"occupied","src":"update"}\n')
    records, skipped = read_all(path)
    assert [r["ts"] for r in records] == [1, 2]
    assert skipped == 2


def test_missing_file_reads_empty(tmp_path):
    records, skipped = read_all(tmp_path / "absent.log")
    assert records == [] and skipped == 0


def test_read_records_is_one_pass_counting_skips_as_it_reads(tmp_path, caplog):
    path = tmp_path / "events.log"
    path.write_bytes(
        eventlog.event_line(*ev(1, 1, "occupied")) + b"garbage\n"
        + eventlog.event_line(*ev(2, 1, "free")) + b'{"ts": 3'
    )
    reader = eventlog.read_records(path)
    assert reader.skipped == 0  # nothing read yet
    records = map(item_record, reader)
    assert next(records)["ts"] == 1
    assert reader.skipped == 1  # the torn tail, counted as the pass opens the file
    assert next(records)["ts"] == 2
    assert reader.skipped == 2
    assert list(records) == [] and list(reader) == []  # one pass
    # The warnings of the whole-file reader, in its order: the torn tail first.
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: discarding torn final line (8 bytes)",
        f"{path}:2: skipping undecodable line: Expecting value: line 1 column 1 (char 0)",
    ]


def test_a_pass_stopped_early_closes_its_file(tmp_path):
    path = tmp_path / "events.log"
    path.write_bytes(eventlog.event_line(*ev(1, 1, "occupied")) * 3)
    with eventlog.read_records(path) as reader:
        assert item_record(next(iter(reader)))["ts"] == 1
    assert list(reader) == []  # closed: the pass is over
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reader = eventlog.read_records(path)
        next(iter(reader))
        del reader  # dropped part-way: an unclosed file would warn as it is collected
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_consume_steps_past_exactly_the_given_bytes_between_records(tmp_path, caplog):
    path = tmp_path / "events.log"
    block = eventlog.event_line(*ev(2, 1, "free")) + eventlog.event_line(*ev(2, 2, "free"))
    path.write_bytes(
        eventlog.event_line(*ev(1, 1, "occupied")) + block + b"garbage\n"
        + eventlog.event_line(*ev(3, 2, "occupied"))
    )
    reader = eventlog.read_records(path)
    assert not reader.consume(block)  # the pass has not opened the file
    records = map(item_record, reader)
    assert next(records)["ts"] == 1
    assert not reader.consume(block[:-1] + b"X")  # one byte differs: nothing consumed
    assert not reader.consume(block + block)  # past the end of the file
    assert reader.consume(block)
    assert next(records)["ts"] == 3
    assert reader.skipped == 1
    # The skipped line is named by its line number in the file, consumed lines counted.
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}:4: skipping undecodable line: Expecting value: line 1 column 1 (char 0)",
    ]
    assert list(records) == [] and not reader.consume(b"")  # the pass is over


def test_a_block_that_does_not_match_is_read_line_by_line(tmp_path):
    path = tmp_path / "events.log"
    lines = [eventlog.event_line(*ev(ts, 1, "free")) for ts in range(1, 5)]
    path.write_bytes(b"".join(lines) + b'{"ts": 5')
    with eventlog.read_records(path) as reader:
        records = map(item_record, reader)
        assert next(records)["ts"] == 1
        assert not reader.consume(lines[1] + lines[2].replace(b"free", b"busy"))
        assert [r["ts"] for r in records] == [2, 3, 4]
    assert reader.skipped == 1  # the torn tail


def test_writer_cuts_a_torn_tail_longer_than_a_scan_block_in_bounded_memory(tmp_path):
    path = tmp_path / "events.log"
    head = eventlog.event_line(*ev(1, 1, "occupied"))
    path.write_bytes(head + b"x" * (16 * eventlog._SCAN_BLOCK + 17))
    assert read_all(path) == ([json.loads(head)], 1)
    tracemalloc.start()
    try:
        eventlog.EventLogWriter(path).close()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == head
    assert peak < 2 * eventlog._SCAN_BLOCK  # one block, not the 1 MiB tail


def test_a_pass_over_a_long_torn_tail_costs_one_scan_block(tmp_path):
    path = tmp_path / "events.log"
    path.write_bytes(b"".join(eventlog.event_line(*ev(ts, 1, "free")) for ts in (1, 2)))
    append_long_torn_tail(path)
    got = []

    def one_pass():
        with eventlog.read_records(path) as reader:
            got.extend(record["ts"] for record in map(item_record, reader))
        got.append(reader.skipped)

    assert traced_peak(one_pass) < MIB  # the pass stops at the last newline
    assert got == [1, 2, 1]


def test_a_pass_stops_at_the_last_whole_line_of_a_cut_reseed_block(tmp_path):
    path = tmp_path / "events.log"
    statuses = {1: BayStatus.OCCUPIED, 2: BayStatus.FREE, 3: BayStatus.OCCUPIED}
    table = {b: BayState(b, "L", status, 0) for b, status in statuses.items()}
    head = eventlog.event_line(*ev(1, 1, "occupied")) + encode_line(eventlog.flush_record(100, 0))
    block = eventlog.reseed_lines(table, 100)
    for cut in range(len(block)):  # the fragment is a prefix of the block consume compares
        path.write_bytes(head + block[:cut])
        with eventlog.read_records(path) as reader:
            records = map(item_record, reader)
            assert [next(records)["ts"], next(records)["marker"]] == [1, "flush"]
            assert not reader.consume(block)
            rest = [record["bayId"] for record in records]
        assert rest == [1, 2, 3][: block[:cut].count(b"\n")], cut
        assert reader.skipped == (not block[:cut].endswith(b"\n") and cut > 0), cut
    path.write_bytes(head + block + b'{"ts": 5')  # the whole block, then a torn line
    with eventlog.read_records(path) as reader:
        records = map(item_record, reader)
        assert [next(records)["ts"], next(records)["marker"]] == [1, "flush"]
        assert reader.consume(block)
        assert list(records) == []
    assert reader.skipped == 1


def test_a_pass_over_a_file_that_shrinks_ends(tmp_path):
    path = tmp_path / "events.log"
    lines = [eventlog.event_line(*ev(ts, 1, "free")) for ts in range(1, 2001)]
    path.write_bytes(b"".join(lines))
    with eventlog.read_records(path) as reader:
        records = map(item_record, reader)
        assert next(records)["ts"] == 1
        with open(path, "r+b") as fh:
            fh.truncate(0)
        rest = [record["ts"] for record in records]  # what the pass had buffered, then the end
    assert rest == list(range(2, 2 + len(rest))) and len(rest) < 1999


def test_each_skipped_line_is_named_by_its_own_line_number(tmp_path, caplog):
    path = tmp_path / "events.log"
    block = eventlog.event_line(*ev(2, 1, "free"))
    path.write_bytes(
        eventlog.event_line(*ev(1, 1, "occupied")) + block + b"bad\n"
        + eventlog.event_line(*ev(3, 1, "occupied")) + b"worse\n"
    )
    with eventlog.read_records(path) as reader:
        records = map(item_record, reader)
        assert next(records)["ts"] == 1
        assert reader.consume(block)
        assert [record["ts"] for record in records] == [3]
    assert [r.getMessage().split(": ")[0] for r in caplog.records] == [f"{path}:3", f"{path}:5"]


@pytest.mark.parametrize("size", [5, 3 * eventlog._SCAN_BLOCK + 5])
def test_writer_cuts_a_log_without_a_newline_to_nothing(tmp_path, size):
    path = tmp_path / "events.log"
    path.write_bytes(b"y" * size)
    assert read_all(path) == ([], 1)
    eventlog.EventLogWriter(path).close()
    assert path.read_bytes() == b""


def test_apply_record_folds_an_event_line_as_apply_event_its_fields():
    rng = random.Random(77)
    for _ in range(200):
        event = random_event(rng)
        folded, direct = {}, {}
        record = json.loads(eventlog.event_line(*event))
        assert eventlog.apply_record(folded, record) == (event[0], event[2])
        apply_event(direct, *event)
        assert folded == direct


def test_apply_record_skips_markers_and_rejected_events():
    table = {1: BayState(1, "L", BayStatus.OCCUPIED, 0)}
    rejected = json.loads(eventlog.event_line(*ev(5, 1, "free"), rejected=True))
    for record in (rejected, eventlog.flush_record(10, 0)):
        assert eventlog.apply_record(table, record) is None
    assert table == {1: BayState(1, "L", BayStatus.OCCUPIED, 0)}
    assert eventlog.apply_record(table, eventlog.disconnect_record(20)) is None
    assert table == {1: BayState(1, "L", BayStatus.UNKNOWN, 20, 20)}


def test_apply_record_accepts_only_json_integers_and_a_string_lot():
    good = {"ts": 7, "lotId": "L", "bayId": 1, "status": "occupied", "src": "update"}
    bad_values = [
        ("bayId", 0), ("bayId", True), ("bayId", "1"), ("bayId", 1.0), ("bayId", None),
        ("ts", -1), ("ts", True), ("ts", "7"), ("ts", 7.0),
        ("lotId", 5), ("lotId", None), ("lotId", ["L"]),
    ]
    for key, value in bad_values:
        table = {}
        with pytest.raises(InvariantViolationError):
            eventlog.apply_record(table, {**good, key: value})
        assert table == {}, (key, value)
    for missing in good:
        with pytest.raises(InvariantViolationError):
            eventlog.apply_record({}, {k: v for k, v in good.items() if k != missing})
    for ts in (True, "20", -1):
        with pytest.raises(InvariantViolationError):
            eventlog.apply_record({}, {"ts": ts, "marker": "disconnect"})
    with pytest.raises(InvariantViolationError):
        eventlog.record_ts({"marker": "flush", "windowStart": 0})
    assert eventlog.apply_record({}, good) == (EventKind.UPDATE, "L")


def reference_read_records(path):
    """Reference: the log reader as it was with json.loads, line by line."""
    path = Path(path)
    records, skipped = [], 0
    if not path.exists():
        return records, skipped
    raw = path.read_bytes()
    if not raw:
        return records, skipped
    lines = raw.split(b"\n")
    if lines.pop():
        skipped += 1
    for line in lines:
        if not line:
            continue
        try:
            record = json.loads(line.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError("log line is not an object")
            records.append(record)
        except ValueError:
            skipped += 1
    return records, skipped


def random_log_line(rng):
    """One log line, or one of the ways a line can be damaged."""
    line = eventlog.event_line(*random_event(rng), rejected=rng.random() < 0.1)
    shape = rng.randrange(12)
    if shape == 0:
        return b""  # blank line
    if shape == 1:
        return b"\xff" + line  # invalid UTF-8
    if shape == 2:
        return line[:-1] + b"\r\n"  # CR ending
    if shape == 3:
        return line[: rng.randrange(len(line))] + b"\n"  # torn, then continued
    if shape == 4:
        return rng.choice((b"[1]", b"1,2", b"NaN", b"\x0c{}", b" {} ", b'"x"', b"9" * 4400)) + b"\n"
    if shape == 5:
        return encode_line(eventlog.disconnect_record(abs(random_int(rng))))
    return line


def test_read_records_matches_line_by_line_json_loads(tmp_path, caplog):
    caplog.set_level(logging.ERROR, logger="edgepark.eventlog")
    rng = random.Random(1_542_672_000)
    for n in range(120):
        body = b"".join(random_log_line(rng) for _ in range(rng.randint(0, 30)))
        if rng.random() < 0.4:
            body += random_log_line(rng).rstrip(b"\n")  # torn tail
        path = tmp_path / f"log{n}.log"
        path.write_bytes(body)
        assert read_all(path) == reference_read_records(path)


def decoded_lines(monkeypatch):
    """The text of each line the log reader decodes, appended as it decodes it."""
    decoded = []
    decode = eventlog.decode_json
    monkeypatch.setattr(eventlog, "decode_json", lambda text: decoded.append(text) or decode(text))
    return decoded


def test_a_pass_keeps_at_most_max_templates_heads(tmp_path, monkeypatch):
    monkeypatch.setattr(eventlog, "MAX_TEMPLATES", 3)
    decoded = decoded_lines(monkeypatch)
    path = tmp_path / "events.log"
    lines = [eventlog.event_line(*ev(ts, ts % 10 + 1, "free")) for ts in range(50)]  # ten heads
    path.write_bytes(b"".join(lines))
    for _ in range(2):
        decoded.clear()
        assert read_all(path) == ([json.loads(line) for line in lines], 0)
        # Each pass keeps the first three heads, decoded once; the other seven every time.
        assert len(decoded) == 3 + 7 * 5


def test_a_line_longer_than_max_template_line_is_decoded_every_time(tmp_path, monkeypatch):
    short = [eventlog.event_line(*ev(ts, 1, "free")) for ts in (1, 2, 3)]
    long = [eventlog.event_line(EventKind.UPDATE, ts, "LOT-B", 1, BayStatus.FREE)
            for ts in (1, 2, 3)]
    monkeypatch.setattr(eventlog, "MAX_TEMPLATE_LINE", len(short[0]))
    decoded = decoded_lines(monkeypatch)
    path = tmp_path / "events.log"
    path.write_bytes(b"".join(long + short))
    assert read_all(path) == ([json.loads(line) for line in long + short], 0)
    assert decoded == [line[:-1].decode() for line in long + short[:1]]


def test_each_record_of_a_pass_is_a_dict_of_its_own(tmp_path):
    path = tmp_path / "events.log"
    # No template keeps a rejected event's head: each of its lines is decoded to a record.
    lines = [eventlog.event_line(*ev(ts, 1, "free"), rejected=True) for ts in (1, 2, 3)]
    lines += [eventlog.event_line(*ev(ts, 1, "free")) for ts in (4, 5)]
    path.write_bytes(b"".join(lines))
    with eventlog.read_records(path) as reader:
        items = iter(reader)
        first = next(items)[2]
        first.update(lotId="X", extra=True)
        del first["ts"]
        second = next(items)[2]
        second["status"] = "occupied"
        third = next(items)[2]
        next(items)[2]["lotId"] = "X"  # a checked head's first line, whose template it is
        fifth = next(items)  # a later line of that head: its ts and the kept fields
    assert second == {**json.loads(lines[1]), "status": "occupied"}
    assert third == json.loads(lines[2])
    assert fifth == (5, (EventKind.UPDATE, "L", 1, BayStatus.FREE), None)
