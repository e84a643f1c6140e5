"""Wire codec and message schema tests."""

import json
import random
import re

import pytest

from edgepark import protocol
from edgepark.agent import CSV_HEADER, read_csv_records
from edgepark.gateway import read_trace
from edgepark.occupancy import RollupRecord

from conftest import random_int, random_text


def bays_update_message(lot_id, bay_id, status):
    """Reference: the dict a 'baysUpdate' line encodes."""
    return {"type": "baysUpdate", "lotId": lot_id, "bay": {"id": bay_id, "status": status}}


def ping_message(seq):
    """Reference: the dict a 'ping' line encodes."""
    return {"type": "ping", "seq": seq}


def pong_message(seq):
    """Reference: the dict a 'pong' line encodes."""
    return {"type": "pong", "seq": seq}


def test_encode_decode_roundtrip():
    message = ping_message(7)
    assert protocol.decode_line(protocol.encode_line(message)) == message


def test_decode_rejects_garbage():
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_line(b"not json\n")
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_line(b"[1,2,3]\n")
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_line(b'{"no_type": 1}\n')
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_line(b"\xff\xfe\n")
    # Past the interpreter's int digit limit the decode raises a plain
    # ValueError; a socket reader would take that for a dead stream.
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_line(b'{"type":"ping","seq":' + b"9" * 5000 + b"}\n")
    # Nested past the recursion limit, the decode raises RecursionError.
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_line(b"[" * 100_000 + b"\n")


def decode_outcome(decode, text):
    """What a decoder makes of text: its value's repr, or its exception type."""
    try:
        return "value", repr(decode(text))
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return "raises", type(exc)


# Whitespace json.loads skips around a value, and characters it does not.
JSON_PADDING = (" ", "\t", "\n", "\r", "\r\n")
OTHER_PADDING = ("\f", "\v", "\xa0", "\u2028", "\ufeff")


def random_json_text(rng):
    """A string that is, or is close to, one JSON text."""
    value = rng.choice((
        random_int(rng), random_text(rng), rng.random(), None, True, False,
        [random_int(rng), random_text(rng)],
        {random_text(rng): random_int(rng), "type": random_text(rng)},
        {"ts": random_int(rng), "status": rng.choice(("free", "occupied"))},
    ))
    text = json.dumps(value, ensure_ascii=rng.random() < 0.5)
    shape = rng.randrange(9)
    if shape == 0:
        text = text[: rng.randint(0, len(text))]  # torn
    elif shape == 1:
        text += rng.choice((",2", " 1", "{}", "x", "\n{}", '"'))  # extra data
    elif shape == 2:
        text = rng.choice(("NaN", "Infinity", "-Infinity", "1e999", "-0.0", "", "null"))
    elif shape == 3:
        text = "9" * rng.choice((4300, 4301, 5000)) if rng.random() < 0.5 else "1" * 20
    elif shape == 4:
        text = "".join(rng.choice('{}[]",:0123456789.-+eE tnrufalsNI\\') for _ in range(8))

    def pad():
        padding = OTHER_PADDING if rng.random() < 0.1 else JSON_PADDING
        return "".join(rng.choice(padding) for _ in range(rng.randint(0, 3)))

    return pad() + text + pad()


def test_decode_json_is_json_loads():
    rng = random.Random(4_300)
    texts = [random_json_text(rng) for _ in range(1_500)]
    texts += ["", " ", "1,2", "[1,2]", "\r\n{}\r\n", "\f{}", "{}\v", "\ufeff{}", "NaN"]
    for text in texts:
        assert decode_outcome(protocol.decode_json, text) == decode_outcome(json.loads, text), text


def test_encode_line_matches_json_dumps():
    rng = random.Random(7)
    for _ in range(500):
        message = {
            random_text(rng): rng.choice((
                random_int(rng), random_text(rng), rng.random(), None, True, False,
                [random_int(rng), random_text(rng)], {random_text(rng): random_int(rng)},
            ))
            for _ in range(rng.randint(0, 6))
        }
        want = json.dumps(message, separators=(",", ":"), sort_keys=True)
        assert protocol.encode_line(message) == want.encode("utf-8") + b"\n"


def test_bays_update_line_is_encode_line_of_its_dict():
    rng = random.Random(1542585600)
    statuses = protocol.WIRE_STATUSES + ("unknown",)
    for _ in range(600):
        lot_id = random_text(rng)
        bay_id = random_int(rng)
        status = rng.choice(statuses) if rng.random() < 0.8 else random_text(rng)
        assert protocol.bays_update_line(lot_id, bay_id, status) == protocol.encode_line(
            bays_update_message(lot_id, bay_id, status)
        )


def test_ping_and_pong_lines_are_encode_line_of_their_dicts():
    rng = random.Random(60_000)
    seqs = [0, 1, 2**63, 10**200] + [random_int(rng) for _ in range(600)]
    for seq in seqs:
        assert protocol.ping_line(seq) == protocol.encode_line(ping_message(seq))
        assert protocol.pong_line(seq) == protocol.encode_line(pong_message(seq))
    assert protocol.ping_line(1).endswith(b"\n")


def test_bays_message_shape():
    message = protocol.bays_message("LOT", [(1, "free"), (2, "occupied")])
    assert message["type"] == "bays"
    assert message["data"][0]["lotId"] == "LOT"
    assert message["data"][0]["bays"][1] == {"id": 2, "status": "occupied"}
    triples = protocol.parse_bays_snapshot(message)
    assert triples == [("LOT", 1, "free"), ("LOT", 2, "occupied")]


def test_parse_bays_update():
    message = protocol.decode_line(protocol.bays_update_line("LOT", 5, "occupied"))
    assert protocol.parse_bays_update(message) == ("LOT", 5, "occupied")
    bad = dict(message)
    bad["bay"] = {"id": 5, "status": "full"}
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_bays_update(bad)


# JSON booleans decode to Python bools, which are ints: every integer field
# must refuse them.


@pytest.mark.parametrize("value", [True, False])
def test_parse_bays_update_rejects_boolean_bay_id(value):
    message = bays_update_message("L", value, "free")
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_bays_update(message)


def test_parse_bays_snapshot_rejects_boolean_bay_id():
    message = {"type": "bays", "data": [{"lotId": "L", "bays": [{"id": True, "status": "free"}]}]}
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_bays_snapshot(message)


@pytest.mark.parametrize(
    "fields",
    [
        {"windowStart": False, "windowEnd": 86_400_000, "key": "L:False"},
        {"windowStart": 0, "windowEnd": True, "key": "L:0"},
        {"windowStart": False, "windowEnd": True, "key": "L:False"},
    ],
    ids=["windowStart", "windowEnd", "both"],
)
def test_parse_rollup_envelope_rejects_boolean_window_bounds(fields):
    message = dict({"type": "rollup", "lotId": "L", "records": []}, **fields)
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_rollup_envelope(message)


@pytest.mark.parametrize("field", ["bayId", "occupationTime", "occupationRate"])
def test_parse_wire_records_rejects_boolean_fields(field):
    record = {"bayId": 1, "occupationTime": 1, "occupationRate": 0.5}
    record[field] = True
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_wire_records([record], 86_400)


# Every wire integer fits a signed 64-bit word: json decodes integers of up
# to 4,300 digits, and a sum of one can outgrow the digit limit of str().
OUT_OF_RANGE = [2**63, -(2**63) - 1, int("9" * 4300), -int("9" * 4300)]
OUT_OF_RANGE_IDS = ["2**63", "-2**63-1", "4300-nines", "-4300-nines"]


@pytest.mark.parametrize("value", [0, 1, -1, 2**63 - 1, -(2**63)])
def test_is_wire_int_takes_a_64_bit_integer(value):
    assert protocol.is_wire_int(value)


@pytest.mark.parametrize(
    "value", OUT_OF_RANGE + [True, False, 1.0, "1", None],
    ids=OUT_OF_RANGE_IDS + ["true", "false", "1.0", "str", "none"],
)
def test_is_wire_int_refuses_what_is_not_a_64_bit_integer(value):
    assert not protocol.is_wire_int(value)


@pytest.mark.parametrize("value", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
def test_every_parser_refuses_an_integer_outside_64_bits(value):
    snapshot = {"type": "bays", "data": [{"lotId": "L", "bays": [{"id": value, "status": "free"}]}]}
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_bays_snapshot(snapshot)
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_bays_update(bays_update_message("L", value, "free"))
    for start, end in ((value, value + 1000), (0, value)):
        envelope = {"type": "rollup", "key": f"L:{start}", "lotId": "L", "windowStart": start,
                    "windowEnd": end, "records": []}
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_rollup_envelope(envelope)
    record = {"bayId": value, "occupationTime": 0, "occupationRate": 0.0}
    with pytest.raises(protocol.ProtocolError, match="bayId must be a positive integer"):
        protocol.parse_wire_records([record], 3600)


# One bay rule for every reader of a bay the gateway serves or the hub
# stores: each value is written as JSON text and read back as the reader reads it.
BAD_BAY_IDS = ["0", "true", "1.0", '"1"', str(2**63)]
BAD_STATUSES = ['"unknown"', '"parked"', "null"]
GOOD_BAY_IDS = ["1", str(2**63 - 1)]


def written(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text + "\n")
    return path


BAY_READERS = {
    "snapshot": lambda tmp_path, bay, status: protocol.parse_bays_snapshot(protocol.decode_line(
        f'{{"type":"bays","data":[{{"lotId":"L","bays":[{{"id":{bay},"status":{status}}}]}}]}}'
        .encode())),
    "update": lambda tmp_path, bay, status: protocol.parse_bays_update(protocol.decode_line(
        f'{{"type":"baysUpdate","lotId":"L","bay":{{"id":{bay},"status":{status}}}}}'.encode())),
    "roll-up records": lambda tmp_path, bay, status: protocol.parse_wire_records(
        protocol.decode_json(f'[{{"bayId":{bay},"occupationTime":0,"occupationRate":0.0}}]'), 60),
    "trace item": lambda tmp_path, bay, status: list(read_trace(written(
        tmp_path, "trace.jsonl", f'{{"simTs":0,"bayId":{bay},"status":{status}}}')).items),
    "trace initial row": lambda tmp_path, bay, status: read_trace(written(
        tmp_path, "trace.jsonl", f'{{"kind":"initial","statuses":{{{json.dumps(bay)}:{status}}}}}')),
    "CSV row": lambda tmp_path, bay, status: read_csv_records(written(
        tmp_path, "rollup_L_20181119T000000Z.csv", f"{CSV_HEADER}\n{bay},0,0.0000")),
}
STATUS_READERS = ("snapshot", "update", "trace item", "trace initial row")


def test_every_bay_reader_refuses_what_the_bay_rule_refuses_and_takes_the_rest(tmp_path):
    wrong = []
    for name, read in BAY_READERS.items():
        cases = [(bay, '"free"', False) for bay in BAD_BAY_IDS]
        cases += [(bay, '"occupied"', True) for bay in GOOD_BAY_IDS]
        if name in STATUS_READERS:
            cases += [("1", status, False) for status in BAD_STATUSES]
        for bay, status, takes in cases:
            try:
                read(tmp_path, bay, status)
                took = True
            except ValueError:
                took = False
            if took != takes:
                wrong.append(f"{name} {'refused' if takes else 'took'} bay {bay} {status}")
    assert not wrong


# A bay id read from text, a trace initial row's key or a CSV bay column, is
# only the text str() writes for it: int() alone would take each of these.
NON_CANONICAL_BAY_TEXT = ["01", "+1_0", " 2", "2 ", "\uff12", "1_0", "+1", "00"]


@pytest.mark.parametrize("text", NON_CANONICAL_BAY_TEXT)
def test_both_text_readers_refuse_a_bay_id_in_a_form_no_writer_writes(tmp_path, text):
    assert protocol.bay_id_from_text(text) is None
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"kind": "initial", "statuses": {text: "free"}}) + "\n")
    with pytest.raises(ValueError, match=re.escape(protocol.BAY_ID_RULE)):
        read_trace(trace)
    csv = tmp_path / "rollup_L_20181119T000000Z.csv"
    csv.write_text(f"{CSV_HEADER}\n{text},0,0.0000\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bay id, seconds or rate out of range"):
        read_csv_records(csv)


@pytest.mark.parametrize("bay_id", [1, 10, 2**63 - 1])
def test_both_text_readers_take_a_bay_id_as_written(tmp_path, bay_id):
    assert protocol.bay_id_from_text(str(bay_id)) == bay_id
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"kind": "initial", "statuses": {str(bay_id): "free"}}) + "\n")
    assert read_trace(trace).initial == {bay_id: "free"}
    csv = tmp_path / "rollup_L_20181119T000000Z.csv"
    csv.write_text(f"{CSV_HEADER}\n{bay_id},0,0.0000\n", encoding="utf-8")
    assert read_csv_records(csv)[2] == [(bay_id, 0, 0.0)]


# One lot-id rule for every parser: a lot id names hub files and CSVs and
# is written into envelopes unescaped.
BAD_LOT_IDS = ['LOT"A', "a/b", "LOT A", "LOT-A\n", "\nLOT-A", "", "LOT\u00e9", "a:b", None, 7]


@pytest.mark.parametrize("lot_id", ["LOT-A", "lot_7.b", "L", "0"])
def test_is_lot_id_takes_letters_digits_underscore_dot_and_dash(lot_id):
    assert protocol.is_lot_id(lot_id)


@pytest.mark.parametrize("lot_id", BAD_LOT_IDS)
def test_every_parser_refuses_a_bad_lot_id(lot_id):
    assert not protocol.is_lot_id(lot_id)
    snapshot = {"type": "bays", "data": [{"lotId": lot_id, "bays": [{"id": 1, "status": "free"}]}]}
    update = bays_update_message(lot_id, 1, "free")
    envelope = {"type": "rollup", "key": f"{lot_id}:0", "lotId": lot_id, "windowStart": 0,
                "windowEnd": 86_400_000, "records": []}
    for parse, message in ((protocol.parse_bays_snapshot, snapshot),
                           (protocol.parse_bays_update, update),
                           (protocol.parse_rollup_envelope, envelope)):
        with pytest.raises(protocol.ProtocolError, match=protocol.LOT_ID_RULE):
            parse(message)


def _records(values):
    return [RollupRecord(b, s, r) for b, s, r in values]


def test_envelope_roundtrip():
    records = _records([(1, 27_000, 0.3125), (2, 0, 0.0)])
    raw = protocol.encode_rollup_envelope("LOT", 0, 86_400_000, records)
    message = json.loads(raw)
    parsed = protocol.parse_rollup_envelope(message)
    assert parsed == protocol.RollupEnvelope("LOT:0", "LOT", 0, 86_400_000, tuple(records))


def test_envelope_byte_length_independent_of_values():
    low = _records([(b, 0, 0.0) for b in range(1, 23)])
    high = _records([(b, 86_400, 1.0) for b in range(1, 23)])
    mixed = _records([(b, 7 * b, 0.0081 * b) for b in range(1, 23)])
    sizes = {
        len(protocol.encode_rollup_envelope("LOT", 0, 86_400_000, recs))
        for recs in (low, high, mixed)
    }
    assert len(sizes) == 1


def test_envelope_validation_rejects_bad_payloads():
    records = _records([(1, 10, 0.1)])
    raw = protocol.encode_rollup_envelope("LOT", 0, 86_400_000, records)
    good = json.loads(raw)

    wrong_key = dict(good, key="LOT:999")
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_rollup_envelope(wrong_key)

    unsorted = dict(good)
    unsorted["records"] = [
        {"bayId": 2, "occupationTime": 1, "occupationRate": 0.0},
        {"bayId": 1, "occupationTime": 1, "occupationRate": 0.0},
    ]
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_rollup_envelope(unsorted)

    too_long = dict(good)
    too_long["records"] = [
        {"bayId": 1, "occupationTime": 86_401, "occupationRate": 1.0}
    ]
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_rollup_envelope(too_long)

    bad_window = dict(good, windowEnd=good["windowStart"])
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_rollup_envelope(bad_window)


def test_envelope_key_format():
    assert protocol.envelope_key("LOT-A", 1_542_585_600_000) == "LOT-A:1542585600000"


def format_rollup_envelope(lot_id, window_start, window_end, records):
    """Reference: the envelope encoder as it was, one str.format per record."""
    bay_width = max((len(str(r.bay_id)) for r in records), default=1)
    time_width = len(str(max(1, (window_end - window_start) // 1000)))
    parts = [
        '{{"bayId":{bay:>{bw}d},"occupationTime":{sec:>{tw}d},"occupationRate":{rate:.4f}}}'.format(
            bay=r.bay_id, bw=bay_width, sec=r.occupation_time_sec, tw=time_width,
            rate=r.occupation_rate,
        )
        for r in records
    ]
    line = (
        '{{"type":"rollup","key":"{key}","lotId":"{lot}",'
        '"windowStart":{ws},"windowEnd":{we},"records":[{recs}]}}'
    ).format(
        key=protocol.envelope_key(lot_id, window_start),
        lot=lot_id,
        ws=window_start,
        we=window_end,
        recs=",".join(parts),
    )
    return line.encode("utf-8") + b"\n"


def test_encode_rollup_envelope_is_the_str_format_form():
    rng = random.Random(10)
    for _ in range(500):
        window_sec = rng.choice((1, 9, 10, 3600, 86_400, 604_800, rng.randint(1, 10**6)))
        start = rng.choice((0, 1_542_585_600_000, rng.randint(0, 2**45)))
        bays = sorted(rng.sample(range(1, rng.choice((10, 100, 12_000)) + 1), rng.randint(0, 9)))
        records = [
            RollupRecord(
                b,
                sec := rng.randint(0, window_sec),
                rng.choice((0.0, 1.0, 0.0001, sec / window_sec, rng.random())),
            )
            for b in bays
        ]
        lot = rng.choice(("LOT-A", "L", "lot_7.b"))
        args = (lot, start, start + window_sec * 1000, records)
        assert protocol.encode_rollup_envelope(*args) == format_rollup_envelope(*args)


@pytest.mark.parametrize(
    "record, reason",
    [
        ("x", "record must be an object"),
        ({"occupationTime": 1, "occupationRate": 0.5}, "bayId must be a positive integer"),
        ({"bayId": 0, "occupationTime": 1, "occupationRate": 0.5},
         "bayId must be a positive integer"),
        ({"bayId": 1.0, "occupationTime": 1, "occupationRate": 0.5},
         "bayId must be a positive integer"),
        ({"bayId": 1, "occupationTime": -1, "occupationRate": 0.5},
         "occupationTime must be a non-negative integer"),
        ({"bayId": 1, "occupationTime": "1", "occupationRate": 0.5},
         "occupationTime must be a non-negative integer"),
        ({"bayId": 1, "occupationTime": 3601, "occupationRate": 0.5},
         "occupationTime 3601 exceeds window 3600 s"),
        ({"bayId": 1, "occupationTime": 1}, "occupationRate must be within [0, 1]"),
        ({"bayId": 1, "occupationTime": 1, "occupationRate": "0.5"},
         "occupationRate must be within [0, 1]"),
        ({"bayId": 1, "occupationTime": 1, "occupationRate": -0.0001},
         "occupationRate must be within [0, 1]"),
        ({"bayId": 1, "occupationTime": 1, "occupationRate": 2},
         "occupationRate must be within [0, 1]"),
        ({"bayId": 1, "occupationTime": 1, "occupationRate": float("nan")},
         "occupationRate must be within [0, 1]"),
        ({"bayId": 1, "occupationTime": 1, "occupationRate": 10**400},
         "occupationRate must be within [0, 1]"),
        ({"bayId": 1, "occupationTime": 1, "occupationRate": -(10**400)},
         "occupationRate must be within [0, 1]"),
    ],
)
def test_parse_wire_records_names_the_rule_a_record_breaks(record, reason):
    with pytest.raises(protocol.ProtocolError) as caught:
        protocol.parse_wire_records([record], 3600)
    assert str(caught.value) == reason


def test_parse_wire_records_refuses_a_list_and_unsorted_bays():
    for raw_records in (None, {"bayId": 1}, "[]"):
        with pytest.raises(protocol.ProtocolError, match="^records must be a list$"):
            protocol.parse_wire_records(raw_records, 3600)
    good = {"bayId": 2, "occupationTime": 0, "occupationRate": 0.0}
    with pytest.raises(protocol.ProtocolError, match="^records must be sorted by ascending bayId$"):
        protocol.parse_wire_records([good, good], 3600)


def test_parse_rollup_envelope_refuses_an_integer_rate_too_large_for_a_float():
    line = (
        b'{"type":"rollup","key":"L:0","lotId":"L","windowStart":0,"windowEnd":3600000,'
        b'"records":[{"bayId":1,"occupationTime":0,"occupationRate":1' + b"0" * 400 + b"}]}\n"
    )
    with pytest.raises(protocol.ProtocolError, match=r"occupationRate must be within \[0, 1\]"):
        protocol.parse_rollup_envelope(protocol.decode_line(line))


def test_parse_wire_records_takes_integer_rates_0_and_1_as_floats():
    raw = [
        {"bayId": 1, "occupationTime": 0, "occupationRate": 0},
        {"bayId": 22, "occupationTime": 3600, "occupationRate": 1},
    ]
    records = protocol.parse_wire_records(raw, 3600)
    assert records == [RollupRecord(1, 0, 0.0), RollupRecord(22, 3600, 1.0)]
    assert all(type(r.occupation_rate) is float for r in records)
