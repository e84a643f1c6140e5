"""A log pass reads a line of a head it has seen as a copy of that head's record;
it yields exactly the records and the skipped count a decode of every line yields."""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from edgepark import eventlog  # noqa: E402
from edgepark.occupancy import BayStatus, EventKind  # noqa: E402

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
