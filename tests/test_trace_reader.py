"""read_trace reads a trace file a block at a time and gives what text mode,
one line at a time, would give: the same header and items, or the same
error at the same line, whatever the block size and whichever rows take the
fixed-field path."""

import io
import re
import tempfile
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from edgepark import gateway  # noqa: E402
from edgepark.gateway import read_trace  # noqa: E402
from edgepark.occupancy import InvariantViolationError  # noqa: E402

# (?!) fails the fixed-row alternative only, so every line takes the decode path.
DECODE_ONLY = re.compile(b"(?!)" + gateway._ROWS.pattern)

ITEM = b'{"bayId":%d,"kind":"item","simTs":%d,"status":"%s"}'
META = b'{"bayCount":3,"durationMs":100,"kind":"meta","lotId":"L"}'


def initial_row(bays):
    statuses = b",".join(b'"%d":"%s"' % (b, b"free" if b % 3 else b"occupied")
                         for b in range(1, bays + 1))
    return b'{"kind":"initial","statuses":{' + statuses + b"}}"


def outcome(path):
    """read_trace's header and items, in repr, or its exception's type and text."""
    try:
        trace = read_trace(path)
        items = tuple(trace.items)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((trace.lot_id, trace.bay_count, trace.duration_ms, trace.initial, items))


def per_line_outcome(path):
    """outcome on the per-line path: text mode splits the file into lines (any
    of "\\n", "\\r\\n" and "\\r" ends one), each line is strict UTF-8 on its
    own, and every row is decoded. A line that is not UTF-8 is refused at its
    line unless a line before it is refused first."""
    split = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="latin-1", newline=None)
    lines, refusal = [], None
    for lineno, line in enumerate(split, start=1):
        raw = line.removesuffix("\n").encode("latin-1")
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            refusal = f"InvariantViolationError: {path}:{lineno}: {exc}"
            break
        lines.append(raw + b"\n")
    with tempfile.TemporaryDirectory() as tmp:
        # The same name in another directory, so the error texts name the one path.
        lf = Path(tmp) / path.name
        lf.write_bytes(b"".join(lines))
        with mock.patch.object(gateway, "_ROWS", DECODE_ONLY):
            got = outcome(lf).replace(str(lf), str(path))
    return got if refusal is None or not got.startswith("(") else refusal


# Each way of reading a trace that must give the per-line outcome.
READERS = {
    "block 1": {"TRACE_BLOCK": 1},
    "block 7": {"TRACE_BLOCK": 7},
    "block 64": {"TRACE_BLOCK": 64},
    "block 4096": {"TRACE_BLOCK": 4096},
    "block 7, every row decoded": {"TRACE_BLOCK": 7, "_ROWS": DECODE_ONLY},
    "every row decoded": {"_ROWS": DECODE_ONLY},
    "2 pairs kept": {"MAX_TRACE_BAYS": 2},
}


def outcomes(path):
    """outcome of every reader in READERS, by name."""
    got = {}
    for name, patches in READERS.items():
        with ExitStack() as stack:
            for attr, value in patches.items():
                stack.enter_context(mock.patch.object(gateway, attr, value))
            got[name] = outcome(path)
    return got


def assert_read_as_per_line(path):
    assert outcomes(path) == dict.fromkeys(READERS, per_line_outcome(path))


def lines(*rows, end=b"\n"):
    return b"".join(row + end for row in rows)


HEAD = lines(META, initial_row(3))
ITEMS = [ITEM % (1, 5, b"free"), ITEM % (2, 6, b"occupied"), ITEM % (1, 7, b"free"),
         ITEM % (2, 8, b"occupied")]

NAMED = {
    "LF": HEAD + lines(*ITEMS),
    "CRLF": lines(META, initial_row(3), *ITEMS, end=b"\r\n"),
    "lone CR": lines(META, initial_row(3), *ITEMS, end=b"\r"),
    "mixed ends": META + b"\r\n" + initial_row(3) + b"\r" + ITEMS[0] + b"\n" + ITEMS[1]
                  + b"\r\r\n" + ITEMS[2] + b"\n\r" + ITEMS[3],
    # At 4,096 bytes a block ends between the "\r" and the "\n" of one line end.
    "CRLF across a block": HEAD + b" " * (4095 - len(HEAD) - len(ITEMS[0])) + ITEMS[0]
                           + b"\r\n" + lines(*ITEMS[1:]),
    # A bad row's line number counts each "\r\n" once, wherever blocks end.
    "CRLF then a bad row": lines(META, initial_row(3), *ITEMS, b"not json", end=b"\r\n"),
    "no last line end": HEAD + lines(*ITEMS)[:-1],
    "last line end a lone CR": HEAD + lines(*ITEMS)[:-1] + b"\r",
    "spaced and padded rows": HEAD + lines(
        ITEMS[0], b'{"bayId": 1, "kind": "item", "simTs": 6, "status": "free"}',
        b"  " + ITEMS[0].replace(b"5", b"7") + b" \t", ITEMS[0].replace(b"5", b"8") + b"\r "),
    "a trailing form feed": HEAD + lines(ITEMS[0], ITEMS[2] + b"\f"),
    "comments and blank lines": lines(b"# a trace", b"", META, b"  # padded", b"   ",
                                      initial_row(3), b"#", *ITEMS, b"# last"),
    "an initial row of 4,096 bays": lines(META, initial_row(4096), *ITEMS),
    "a meta row after the first item": HEAD + lines(ITEMS[0], ITEMS[2], META),
    "an initial row after the first item": HEAD + lines(ITEMS[0], ITEMS[2], initial_row(2)),
    "simTs 2**63 - 1": HEAD + lines(ITEMS[0], ITEM % (1, 2**63 - 1, b"free")),
    "simTs 2**63": HEAD + lines(ITEMS[0], ITEM % (1, 2**63, b"free")),
    "simTs 10**19": HEAD + lines(ITEMS[0], ITEM % (1, 10**19, b"free")),
    "bay 01": HEAD + lines(ITEMS[0], ITEMS[0].replace(b":1,", b":01,")),
    "non-ASCII": HEAD + lines(ITEMS[0], b"# caf\xc3\xa9",
                              ITEMS[0].replace(b"free", b"fr\xc3\xa9e")),
    "non-UTF-8 item row": HEAD + lines(ITEMS[0], ITEMS[2] + b"\xff", ITEMS[1]),
    "non-UTF-8 comment": HEAD + lines(ITEMS[0], b"# \xff", ITEMS[1]),
    "a truncated UTF-8 sequence": HEAD + lines(ITEMS[0], b"# \xe2\x82", ITEMS[1]),
    "non-UTF-8 before a bad row": HEAD + lines(b"\xff", b"not json"),
    "a bad row before non-UTF-8": HEAD + lines(b"not json", b"\xff"),
    "more pairs than kept": HEAD + lines(*(ITEM % (b, t, s) for t in range(20)
                                          for b in (1, 2, 3) for s in (b"free", b"occupied"))),
}


@pytest.mark.parametrize("data", NAMED.values(), ids=NAMED)
def test_read_trace_reads_a_named_file_as_text_mode_reads_it_line_by_line(tmp_path, data):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(data)
    assert_read_as_per_line(path)


@pytest.mark.parametrize("name", ["CRLF", "lone CR", "mixed ends", "CRLF across a block"])
def test_every_line_end_reads_as_the_lf_trace(tmp_path, name):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(NAMED[name])
    want = outcome(path)
    path.write_bytes(NAMED["LF"])
    assert want == outcome(path) and want.startswith("(")


@pytest.mark.parametrize("name, line", [("non-UTF-8 item row", 4), ("non-UTF-8 comment", 4),
                                        ("a truncated UTF-8 sequence", 4)])
def test_a_line_that_is_not_utf_8_is_refused_at_its_line(tmp_path, name, line):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(NAMED[name])
    with pytest.raises(InvariantViolationError, match=f"^{re.escape(str(path))}:{line}: 'utf-8'"):
        tuple(read_trace(path).items)


def test_an_initial_row_many_blocks_long_is_read_whole(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(NAMED["an initial row of 4,096 bays"])
    assert len(initial_row(4096)) > 15 * gateway.TRACE_BLOCK
    trace = read_trace(path)
    assert len(trace.initial) == 4096 and len(tuple(trace.items)) == len(ITEMS)


# Lines of a trace, without their ends.
ROWS = [
    META, initial_row(3), initial_row(300),  # the last longer than a 4,096-byte block
    *(ITEM % (b, t, s) for b in (1, 2) for t in (0, 5, 10**18 - 1, 10**18, 2**63 - 1)
      for s in (b"free", b"occupied")),
    ITEM % (1, 2**63, b"free"), ITEM % (2, 10**19, b"occupied"), ITEM % (1, 5, b"unknown"),
    ITEM % (9, 5, b"free"), b'{"bayId":01,"kind":"item","simTs":5,"status":"free"}',
    b'{"simTs":5,"bayId":2,"status":"free"}', b'{"bayId": 1, "simTs": 6, "status": "free"}',
    b" " + ITEM % (1, 6, b"free") + b"\t", ITEM % (2, 6, b"free") + b"\f",
    b"", b"  ", b"# c", b" #c", b"# caf\xc3\xa9", b"# \xff", b"\xe2\x82",
    ITEM % (1, 7, b"fr\xc3\xa9e"), ITEM % (1, 7, b"free") + b"\xff", b"not json",
    b'{"kind":"other"}',
]
ENDS = [b"\n", b"\r\n", b"\r"]


@st.composite
def trace_files(draw):
    """Mostly well-formed item rows after a header, with any line end, and any
    other line now and then."""
    items = st.sampled_from(ROWS[3:23])
    rows = draw(st.lists(items | items | items | st.sampled_from(ROWS), max_size=30))
    head = draw(st.sampled_from([[META, initial_row(3)], [META], []]))
    ends = st.sampled_from(ENDS)
    data = b"".join(row + draw(ends) for row in head + rows)
    return data[:-1] if data and draw(st.booleans()) else data  # maybe no last line end


@settings(max_examples=150, deadline=None)
@given(data=trace_files())
def test_read_trace_reads_any_file_as_text_mode_reads_it_line_by_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        path.write_bytes(data)
        assert_read_as_per_line(path)
