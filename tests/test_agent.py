"""Edge agent behavior: handshake, ingest, ping loop, roll-ups, uploads, recovery."""

import dataclasses
import heapq
import json
import logging
import random
import re
from collections import Counter

import pytest

from edgepark import agent, eventlog, harness, protocol
from edgepark.agent import (
    WARNING_KINDS,
    AgentConfig,
    BackoffPolicy,
    EdgeAgentCore,
    csv_filename,
    read_csv_records,
    write_csv,
)
from edgepark.clock import VirtualScheduler
from edgepark.gateway import FaultPlan
from edgepark.harness import GATEWAY_ADDRESS, HUB_ADDRESS
from edgepark.occupancy import (
    BayStatus,
    EventKind,
    RollupRecord,
    RollupWindow,
)
from edgepark.transport import VirtualNetwork

from conftest import (
    DAY_MS, EPOCH_MS, MIB, append_long_torn_tail, idle_trace, items_trace, log_records,
    record_pings, track_agent, traced_peak, update_lines,
)

HOUR_MS = 3_600_000


def disconnect_times(rig):
    records = log_records(rig.agent_config.log_path)
    return [r["ts"] for r in records if r.get("marker") == "disconnect"]


def csv_rows(rig, window_start):
    """bayId -> "occupationTime,occupationRate" of one roll-up CSV."""
    path = rig.agent_config.csv_dir / csv_filename("LOT-A", window_start)
    return dict(line.split(",", 1) for line in path.read_text().splitlines()[1:])


# ---------------------------------------------------------------------------
# handshake and ingest


def test_handshake_initializes_all_bays_free(rig_factory):
    rig = rig_factory()
    rig.run_for(0)
    assert rig.agent._gap_open is None  # the snapshot arrived
    assert len(rig.agent.table) == 22
    assert all(s.status is BayStatus.FREE for s in rig.agent.table.values())
    assert all(s.accumulated_occupation_ms == 0 for s in rig.agent.table.values())
    assert all(s.last_transition_ts == EPOCH_MS for s in rig.agent.table.values())


def test_empty_snapshot_leaves_empty_table_but_connected(rig_factory):
    rig = rig_factory(idle_trace(bays=0))
    rig.run_for(0)
    assert rig.agent._gap_open is None  # the snapshot arrived
    assert rig.agent.table == {}


def test_ingest_pair_credits_600_seconds(rig_factory):
    rig = rig_factory(items_trace([(100_000, 5, "occupied"), (700_000, 5, "free")]))
    rig.run_for(800_000)
    assert rig.agent.table[5].accumulated_occupation_ms == 600_000
    records = log_records(rig.agent_config.log_path)
    updates = [r for r in records if r.get("src") == "update"]
    assert [(r["ts"] - EPOCH_MS, r["status"]) for r in updates] == [
        (100_000, "occupied"),
        (700_000, "free"),
    ]


def test_each_update_is_in_agent_log_before_it_is_applied(rig_factory, monkeypatch):
    """Write-ahead: when apply_event runs for an update, the update's line is
    already the last line of agent.log, as a second open of the file reads it."""
    rig = rig_factory(items_trace([(1000, 3, "occupied"), (5000, 3, "free"), (5000, 7, "occupied")]))
    real_apply = agent.apply_event
    logged = []

    def apply_after_reading_the_log(table, kind, ts, lot_id, bay_id, status, warnings=None):
        if kind is EventKind.UPDATE:
            with open(rig.agent_config.log_path, "rb") as fh:
                log_bytes = fh.read()
            logged.append(log_bytes.endswith(eventlog.event_line(kind, ts, lot_id, bay_id, status)))
        return real_apply(table, kind, ts, lot_id, bay_id, status, warnings)

    monkeypatch.setattr(agent, "apply_event", apply_after_reading_the_log)
    rig.run_for(10_000)
    assert logged == [True, True, True]


def agent_warnings(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "edgepark.agent" and r.levelno == logging.WARNING]


def test_duplicate_update_counted_logged_at_debug_then_summarised_state_unchanged(
    rig_factory, caplog
):
    caplog.set_level(logging.DEBUG, logger="edgepark")
    rig = rig_factory(
        items_trace([(1000, 3, "occupied")]), faults=FaultPlan(duplicate_updates=True)
    )
    rig.run_for(5000)
    assert rig.agent.table[3].status is BayStatus.OCCUPIED
    assert rig.agent.warnings["duplicate_update"] == 1
    records = log_records(rig.agent_config.log_path)
    assert len([r for r in records if r.get("src") == "update"]) == 2
    # The detail is DEBUG only; the window's roll-up logs the one WARNING.
    assert [(r.levelno, r.getMessage()) for r in caplog.records if "bay 3" in r.getMessage()] == [
        (logging.DEBUG, "duplicate occupied update for bay 3 ignored")
    ]
    assert agent_warnings(caplog) == []
    rig.run_for(DAY_MS)
    assert agent_warnings(caplog) == [f"window {EPOCH_MS}: 1 duplicate_update"]


def test_per_event_warnings_get_one_summary_per_window_others_are_logged_as_raised(
    rig_factory, caplog
):
    caplog.set_level(logging.INFO, logger="edgepark")
    rig = rig_factory(rollup_period_sec=3600)
    rig.run_for(1000)  # snapshot: every bay free
    session = rig.gateway.sessions[0]
    for line in [
        protocol.bays_update_line("LOT-A", 3, "free"),
        protocol.encode_line({"type": "baysUpdate", "lotId": "LOT-A", "bayId": 0}),
        protocol.bays_update_line("LOT-A", 3, "free"),
        protocol.bays_update_line("LOT-A", 99, "occupied"),
        protocol.encode_line({"type": "error", "reason": "lot closed"}),
    ]:
        session.send(line)
    rig.run_for(1000)
    assert agent_warnings(caplog) == ["gateway error: lot closed"]
    rig.run_for(3 * HOUR_MS)  # three roll-ups; only the first window had warnings
    assert agent_warnings(caplog)[1:] == [
        f"window {EPOCH_MS}: 1 malformed_update, 2 duplicate_update, 1 unknown_bay"
    ]
    session.send(protocol.bays_update_line("LOT-A", 3, "free"))
    rig.run_for(HOUR_MS)
    assert agent_warnings(caplog)[2:] == [f"window {EPOCH_MS + 3 * HOUR_MS}: 1 duplicate_update"]
    assert rig.agent.warnings["duplicate_update"] == 3


def test_warnings_are_counted_by_kind_in_bounded_memory(rig_factory):
    rig = rig_factory()
    rig.run_for(1000)  # snapshot: every bay free
    duplicate = protocol.bays_update_line("LOT-A", 3, "free")
    totals = []
    for n in (10, 100, 1000):
        for _ in range(n):
            rig.gateway.sessions[0].send(duplicate)
        rig.run_for(60_000)
        totals.append(sum(rig.agent.warnings.values()))
        assert len(rig.agent.warnings) == len(WARNING_KINDS)
    assert totals == [10, 110, 1110]
    assert rig.agent.warnings["duplicate_update"] == 1110


def test_final_table_equals_log_replay(rig_factory):
    items = []
    status = {}
    ts = 10_000
    rng = random.Random(4)
    for _ in range(300):
        bay = rng.randint(1, 22)
        status[bay] = "occupied" if status.get(bay) != "occupied" else "free"
        items.append((ts, bay, status[bay]))
        ts += rng.randint(1, 40_000)
    rig = rig_factory(items_trace(items, duration_ms=DAY_MS))
    rig.run_for(ts + 1000)

    records = log_records(rig.agent_config.log_path)
    replayed = {}
    for record in records:
        assert "marker" not in record  # no boundary crossed in this run
        eventlog.apply_record(replayed, record)
    assert replayed == rig.agent.table


# ---------------------------------------------------------------------------
# ping loop


def test_ping_cadence_exact_count(rig_factory):
    rig = rig_factory(start_agent=False)
    pings = record_pings(rig.gateway)
    rig.agent.start()
    rig.sched.run_until(EPOCH_MS + 300_000)  # 5 minutes
    assert pings == [1, 2, 3, 4, 5]
    assert rig.agent.pings_sent == 5


def test_silent_gateway_triggers_reconnect_after_three_missed_pongs(rig_factory):
    rig = rig_factory(faults=FaultPlan(mute_pongs_after=10), start_agent=False)
    pings = record_pings(rig.gateway)
    rig.agent.start()
    rig.sched.run_until(EPOCH_MS + 840_000)  # tick 14: third miss detected
    assert pings == list(range(1, 14))
    # Session was torn down and re-established at the same instant.
    assert disconnect_times(rig) == [EPOCH_MS + 840_000]
    assert rig.agent.total_gap_ms == 0
    assert rig.agent._gap_open is None
    rig.sched.run_until(EPOCH_MS + 960_000)
    # A fresh session restarts seq: two more pings, seqs 1 and 2.
    assert pings == [*range(1, 14), 1, 2]


def test_kill_ends_an_open_gap(rig_factory):
    rig = rig_factory(faults=FaultPlan(disconnects=((HOUR_MS, 600_000),)))
    rig.sched.run_until(EPOCH_MS + HOUR_MS + 60_000)
    assert rig.agent.total_gap_ms == 60_000
    rig.agent.kill()
    rig.sched.run_until(EPOCH_MS + 2 * HOUR_MS)
    assert rig.agent.total_gap_ms == 60_000


def test_a_gateway_outage_at_the_start_is_a_gap_from_the_agent_start(rig_factory):
    rig = rig_factory(faults=FaultPlan(disconnects=((0, 600_000),)))
    rig.sched.run_until(EPOCH_MS + HOUR_MS)
    assert rig.agent._gap_open is None
    first_snapshot = next(r["ts"] for r in log_records(rig.agent_config.log_path)
                          if r.get("src") == "snapshot")
    assert first_snapshot >= EPOCH_MS + 600_000
    assert rig.agent.total_gap_ms == first_snapshot - EPOCH_MS


def test_ping_count_is_floor_of_elapsed(rig_factory):
    rig = rig_factory()
    rig.sched.run_until(EPOCH_MS + 750_000)  # 12.5 poll intervals
    assert rig.agent.pings_sent == 12


def test_pre_drop_accumulation_survives_reconnect(rig_factory):
    # Bay 6 parks twice; the 100 s observation gap at noon contains no
    # occupancy, so the day total must be exactly both stays.
    items = [
        (10 * HOUR_MS, 6, "occupied"),
        (11 * HOUR_MS, 6, "free"),
        (13 * HOUR_MS, 6, "occupied"),
        (14 * HOUR_MS, 6, "free"),
    ]
    rig = rig_factory(
        items_trace(items), faults=FaultPlan(disconnects=((12 * HOUR_MS, 100_000),))
    )
    rig.sched.run_until(EPOCH_MS + DAY_MS)
    assert disconnect_times(rig) == [EPOCH_MS + 12 * HOUR_MS]
    assert rig.agent.total_gap_ms == 100_000
    assert csv_rows(rig, EPOCH_MS)["6"] == "7200,0.0833"


def test_mismatched_pong_counts_as_missing(tmp_path):
    sched = VirtualScheduler(EPOCH_MS)
    net = VirtualNetwork(sched)
    sessions = []

    def accept(conn):
        sessions.append(conn)
        conn.on_message = lambda msg: _gw_handle(conn, msg)
        conn.on_close = lambda: None

    def _gw_handle(conn, msg):
        if msg["type"] == "hello":
            conn.send(protocol.encode_line(protocol.bays_message("LOT", [(1, "free")])))
        elif msg["type"] == "ping":
            conn.send(protocol.pong_line(msg["seq"] + 1000))  # always wrong

    net.listen("sim://gw", accept)
    agent, _ = make_agent(
        tmp_path, sched, net, gateway_address="sim://gw", cloud_address="sim://hub"
    )
    agent.start()
    sched.run_until(EPOCH_MS + 239_000)
    assert (agent.ping_seq, agent.last_pong_seq) == (3, 0)  # wrong seqs never matched
    sched.run_until(EPOCH_MS + 240_000)  # third strike: session replaced
    assert len(sessions) == 2


def test_pong_with_boolean_seq_counts_as_missing(tmp_path):
    sched = VirtualScheduler(EPOCH_MS)
    net = VirtualNetwork(sched)

    def accept(conn):
        def handle(msg):
            if msg["type"] == "hello":
                conn.send(protocol.encode_line(protocol.bays_message("LOT", [(1, "free")])))
            elif msg["type"] == "ping":
                conn.send(protocol.encode_line({"type": "pong", "seq": True}))  # true == 1 in Python

        conn.on_message = handle
        conn.on_close = lambda: None

    net.listen("sim://gw", accept)
    agent, _ = make_agent(
        tmp_path, sched, net, gateway_address="sim://gw", cloud_address="sim://hub"
    )
    agent.start()
    sched.run_until(EPOCH_MS + 61_000)  # first ping (seq 1) sent and answered
    assert agent.ping_seq == 1
    assert agent.last_pong_seq == 0


def test_seeded_pong_patterns_end_each_session_where_a_missed_pong_counter_does(tmp_path):
    """Each ping is answered at once, answered 30 s late, dropped, answered with a
    wrong seq, or answered with its own seq after the next ping has gone out.
    A session ends at the tick where a counter of consecutive ticks that found
    the last ping unanswered, reset by an answered one, reaches 3."""
    rng = random.Random(30)
    sched = VirtualScheduler(EPOCH_MS)
    net = VirtualNetwork(sched)
    patterns = Counter()
    expected_ends = []

    def accept(conn):
        missed = 0
        answered = True  # the first tick finds no ping sent

        def pong(seq):
            try:
                conn.send(protocol.pong_line(seq))
            except ConnectionError:  # the session has ended
                pass

        def handle(msg):
            nonlocal missed, answered
            if msg["type"] == "hello":
                conn.send(protocol.encode_line(protocol.bays_message("LOT", [(1, "free")])))
                return
            seq, now = msg["seq"], sched.now_ms()
            missed = 0 if answered else missed + 1  # what the tick that sent this ping found
            pattern = rng.choices(("now", "late_in_time", "dropped", "wrong", "after_next"),
                                  weights=(5, 2, 1, 1, 1))[0]
            patterns[pattern] += 1
            answered = pattern in ("now", "late_in_time")
            if pattern == "now":
                pong(seq)
            elif pattern == "late_in_time":
                sched.call_at(now + 30_000, pong, seq)
            elif pattern == "wrong":
                pong(seq + rng.choice((-1, 1, 1000)))
            elif pattern == "after_next":
                sched.call_at(now + 60_001, pong, seq)
            if not answered and missed == 2:
                expected_ends.append(now + 60_000)  # the next tick finds a third miss

        conn.on_message = handle
        conn.on_close = lambda: None

    net.listen("sim://gw", accept)
    agent, _ = make_agent(
        tmp_path, sched, net, gateway_address="sim://gw", cloud_address="sim://hub"
    )
    agent.start()
    sched.run_until(EPOCH_MS + 6 * HOUR_MS)
    assert sum(patterns.values()) >= 200 and len(patterns) == 5
    assert len(expected_ends) >= 5
    ends = [r["ts"] for r in log_records(tmp_path / "agent.log")
            if r.get("marker") == "disconnect"]
    assert ends == expected_ends


def test_malformed_snapshot_triggers_reconnect(tmp_path):
    sched = VirtualScheduler(EPOCH_MS)
    net = VirtualNetwork(sched)
    hellos = []

    def accept(conn):
        def handle(msg):
            if msg["type"] == "hello":
                hellos.append(msg)
                if len(hellos) == 1:
                    conn.send(protocol.encode_line({"type": "bays", "data": "not-a-list"}))
                else:
                    conn.send(protocol.encode_line(protocol.bays_message("LOT", [(1, "free")])))

        conn.on_message = handle
        conn.on_close = lambda: None

    net.listen("sim://gw", accept)
    agent, _ = make_agent(
        tmp_path, sched, net, gateway_address="sim://gw", cloud_address="sim://hub"
    )
    agent.start()
    sched.run_until(EPOCH_MS + 5000)
    assert agent.warnings["malformed_snapshot"] >= 1
    assert len(hellos) >= 2  # reconnected after the protocol error
    assert agent._gap_open is None


def test_an_update_naming_another_lot_is_malformed_and_neither_logged_nor_applied(
    rig_factory, tmp_path
):
    rig = rig_factory(idle_trace(bays=3), rollup_period_sec=3600)
    foreign = protocol.bays_update_line("LOT-B", 1, "occupied")
    rig.sched.call_at(EPOCH_MS + 60_000, lambda: rig.gateway.sessions[0].send(foreign))
    rig.sched.run_until(EPOCH_MS + HOUR_MS + 1000)
    assert rig.agent.warnings["malformed_update"] == 1
    assert rig.agent.events_ingested == 0
    assert b"LOT-B" not in rig.agent_config.log_path.read_bytes()
    assert csv_rows(rig, EPOCH_MS)["1"] == "0,0.0000"
    replay = harness.replay_log(
        rig.agent_config.log_path, 3600, tmp_path / "replay", epoch_ms=EPOCH_MS
    )
    assert [p.name for p in replay.csv_paths] == [csv_filename("LOT-A", EPOCH_MS)]


def test_a_snapshot_naming_two_lots_is_malformed_and_ends_the_session(tmp_path):
    sched = VirtualScheduler(EPOCH_MS)
    net = VirtualNetwork(sched)
    hellos = []
    two_lots = {"type": "bays", "data": [
        {"lotId": "LOT", "bays": [{"id": 1, "status": "free"}]},
        {"lotId": "OTHER", "bays": [{"id": 2, "status": "occupied"}]},
    ]}

    def accept(conn):
        def handle(msg):
            if msg["type"] == "hello":
                hellos.append(msg)
                one_lot = protocol.bays_message("LOT", [(1, "free")])
                conn.send(protocol.encode_line(two_lots if len(hellos) == 1 else one_lot))

        conn.on_message = handle
        conn.on_close = lambda: None

    net.listen("sim://gw", accept)
    agent, _ = make_agent(
        tmp_path, sched, net, gateway_address="sim://gw", cloud_address="sim://hub"
    )
    agent.start()
    sched.run_until(EPOCH_MS + 5000)
    assert agent.warnings["malformed_snapshot"] == 1
    assert len(hellos) == 2 and agent._gap_open is None
    assert sorted(agent.table) == [1]
    assert b"OTHER" not in (tmp_path / "agent.log").read_bytes()


def test_clock_regression_event_logged_as_rejected(rig_factory):
    rig = rig_factory(items_trace([(1000, 3, "occupied")]))
    rig.run_for(2000)
    # Force a future transition stamp, then deliver another update for bay 3.
    rig.agent.table[3].last_transition_ts = EPOCH_MS + 10_000_000
    rig.agent._on_update(
        {"type": "baysUpdate", "lotId": "LOT-A", "bay": {"id": 3, "status": "free"}}
    )
    assert rig.agent.warnings["rejected_event"] == 1
    assert rig.agent.table[3].status is BayStatus.OCCUPIED  # untouched
    records = log_records(rig.agent_config.log_path)
    assert records[-1].get("rejected") is True


def test_a_second_session_on_another_lot_logs_its_updates_under_that_lot(tmp_path):
    """Each session's snapshot names a different lot, and both update bay 1 to
    occupied: the second session's lines carry the second lot. A rejected update
    is logged in full, with its flag."""
    sched = VirtualScheduler(EPOCH_MS)
    net = VirtualNetwork(sched)
    lots = ["LOT-A", "LOT-B"]

    def accept(conn):
        lot_id = lots.pop(0)

        def handle(msg):
            if msg["type"] == "hello":
                conn.send(protocol.encode_line(protocol.bays_message(lot_id, [(1, "free")])))
                for at in (1000, 2000):
                    sched.call_later(at, conn.send, protocol.bays_update_line(lot_id, 1, "occupied"))
                if lots:
                    sched.call_later(3000, conn.close)

        conn.on_message = handle
        conn.on_close = lambda: None

    net.listen("sim://gw", accept)
    agent, _ = make_agent(
        tmp_path, sched, net, gateway_address="sim://gw", cloud_address="sim://hub"
    )
    agent.start()
    sched.run_until(EPOCH_MS + 10_000)
    assert not lots and agent.lot_id == "LOT-B"
    updates = [line for line in (tmp_path / "agent.log").read_bytes().splitlines(keepends=True)
               if b'"src":"update"' in line]
    assert updates == [
        eventlog.event_line(EventKind.UPDATE, ts, lot_id, 1, BayStatus.OCCUPIED)
        for lot_id, ts in (("LOT-A", EPOCH_MS + 1000), ("LOT-A", EPOCH_MS + 2000),
                           ("LOT-B", EPOCH_MS + 4000), ("LOT-B", EPOCH_MS + 5000))
    ]

    agent.table[1].last_transition_ts = EPOCH_MS + 10_000_000
    agent._on_update(protocol.decode_line(protocol.bays_update_line("LOT-B", 1, "occupied")))
    assert (tmp_path / "agent.log").read_bytes().endswith(eventlog.event_line(
        EventKind.UPDATE, EPOCH_MS + 10_000, "LOT-B", 1, BayStatus.OCCUPIED, rejected=True
    ))


def test_unresponsive_gateway_handshake_times_out(tmp_path):
    sched = VirtualScheduler(EPOCH_MS)
    net = VirtualNetwork(sched)
    accepted = []
    net.listen("sim://gw", lambda conn: accepted.append(conn))  # never replies
    agent, _ = make_agent(
        tmp_path, sched, net, gateway_address="sim://gw", cloud_address="sim://hub"
    )
    agent.start()
    sched.run_until(EPOCH_MS + 200_000)
    assert agent.total_gap_ms == 200_000  # no snapshot ever closed the gap
    assert len(accepted) >= 3  # timed out and retried with backoff


# ---------------------------------------------------------------------------
# session and link ends


def break_first_send(rig, address):
    """The first conn the agent dials to address raises on send yet stays open.

    Returns the list that conn is put in once it is dialled.
    """
    broken = []
    connect = rig.net.connect

    def dial(addr):
        conn = connect(addr)
        if addr == address and not broken:
            def fail(line):
                raise ConnectionError("send failed")

            conn.send = fail
            broken.append(conn)
        return conn

    rig.net.connect = dial
    return broken


def test_malformed_snapshot_mid_session_ends_it_like_any_session_loss(rig_factory):
    # Bay 3 parks 01:00-05:00; a malformed snapshot arrives at 02:00.
    rig = rig_factory(items_trace([(HOUR_MS, 3, "occupied"), (5 * HOUR_MS, 3, "free")]))
    bad = protocol.encode_line({"type": "bays", "data": "not-a-list"})
    rig.sched.call_at(EPOCH_MS + 2 * HOUR_MS, lambda: rig.gateway.sessions[0].send(bad))
    rig.sched.run_until(EPOCH_MS + 2 * HOUR_MS)
    assert disconnect_times(rig) == [EPOCH_MS + 2 * HOUR_MS]
    assert rig.agent.table[3].accumulated_occupation_ms == HOUR_MS  # the observed hour
    assert rig.agent._gap_open is None  # redialled at once
    rig.sched.run_until(EPOCH_MS + DAY_MS)
    assert rig.agent.total_gap_ms == 0
    assert csv_rows(rig, EPOCH_MS)["3"] == "14400,0.1667"


def test_gateway_conn_dropped_on_failed_hello_cannot_end_the_live_session(rig_factory):
    rig = rig_factory(start_agent=False)
    dialled = break_first_send(rig, GATEWAY_ADDRESS)
    rig.agent.start()
    rig.run_for(5000)  # backed off, redialled and handshaken
    (broken,) = dialled
    live = rig.agent.session
    assert rig.agent._gap_open is None and live is not broken
    broken._deliver_close()  # what its reader delivers when the socket dies
    rig.run_for(1000)
    assert rig.agent.session is live and rig.agent._gap_open is None
    assert disconnect_times(rig) == []


def test_hub_conn_dropped_on_failed_send_cannot_end_the_live_link(rig_factory):
    rig = rig_factory(rollup_period_sec=3600, start_agent=False)
    dialled = break_first_send(rig, HUB_ADDRESS)
    rig.agent.start()
    rig.sched.run_until(EPOCH_MS + HOUR_MS + 1000)  # retried after one backoff
    (broken,) = dialled
    live = rig.agent.hub_conn
    assert live is not None and live is not broken
    broken._deliver_close()
    rig.run_for(1000)
    assert rig.agent.hub_conn is live
    assert rig.agent.upload_sends == 1
    assert len(rig.store) == 1


def test_hub_hanging_up_mid_upload_still_stores_the_window_once(rig_factory):
    rig = rig_factory(rollup_period_sec=3600)
    handle = rig.hub._on_message
    hung_up = []

    def store_then_hang_up(conn, message):
        if hung_up:
            return handle(conn, message)
        rig.hub._handle_rollup(message)  # stored, but no ack is sent
        hung_up.append(conn)
        conn.close()

    rig.hub._on_message = store_then_hang_up
    # Resent after one backoff, well before the 5 s ack timeout.
    rig.sched.run_until(EPOCH_MS + HOUR_MS + 1000)
    assert rig.agent.upload_sends == 2
    assert not rig.agent.upload_queue and rig.agent._ack_timer is None
    store_file = rig.store.store_dir / "LOT-A.jsonl"
    assert len(store_file.read_text().splitlines()) == 1


@pytest.mark.xfail(strict=True, reason="recovery credits the agent's downtime to occupied bays")
def test_recovery_does_not_credit_downtime_to_occupied_bays(rig_factory):
    # Bay 3 parks 01:00-06:00. The agent dies at 02:00 and restarts at 05:00,
    # so recovery closes the three hourly windows it missed.
    rig = rig_factory(
        items_trace([(HOUR_MS, 3, "occupied"), (6 * HOUR_MS, 3, "free")]),
        rollup_period_sec=3600,
    )
    rig.sched.run_until(EPOCH_MS + 2 * HOUR_MS)
    rig.agent.kill()
    rig.sched.run_until(EPOCH_MS + 5 * HOUR_MS)
    restarted = track_agent(EdgeAgentCore(rig.sched, rig.net, rig.agent_config))
    restarted.start()
    rig.sched.run_until(EPOCH_MS + 7 * HOUR_MS)
    assert csv_rows(rig, EPOCH_MS + HOUR_MS)["3"] == "3600,1.0000"
    missed = [csv_rows(rig, EPOCH_MS + h * HOUR_MS)["3"] for h in (2, 3, 4)]
    assert missed == ["0,0.0000"] * 3  # each reads 3600,1.0000 today
    assert restarted.total_gap_ms >= 3 * HOUR_MS


# ---------------------------------------------------------------------------
# roll-up schedule and CSV


def test_idle_day_produces_all_zero_csv(rig_factory):
    rig = rig_factory()
    rig.sched.run_until(EPOCH_MS + DAY_MS)
    path = rig.agent_config.csv_dir / "rollup_LOT-A_20181119T000000Z.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "bayId,occupationTime,occupationRate"
    assert len(lines) == 23
    assert all(line.endswith(",0,0.0000") for line in lines[1:])


def test_flush_marker_and_reseed_written_at_boundary(rig_factory):
    rig = rig_factory(items_trace([(1000, 4, "occupied")]))
    rig.sched.run_until(EPOCH_MS + DAY_MS)
    records = log_records(rig.agent_config.log_path)
    markers = [r for r in records if r.get("marker") == "flush"]
    assert markers == [{"ts": EPOCH_MS + DAY_MS, "marker": "flush", "windowStart": EPOCH_MS}]
    reseed = [r for r in records if r.get("src") == "snapshot" and r["ts"] == EPOCH_MS + DAY_MS]
    assert len(reseed) == 22
    assert {r["status"] for r in reseed} == {"free", "occupied"}


def test_rollup_block_is_one_append_per_window(rig_factory):
    rig = rig_factory(items_trace([(1000, 4, "occupied")], duration_ms=4 * HOUR_MS),
                      rollup_period_sec=3600)
    rig.run_for(HOUR_MS - 1)
    appended = []
    append = rig.agent.log_writer.append
    rig.agent.log_writer.append = lambda line: (appended.append(line), append(line))
    rig.run_for(3 * HOUR_MS)  # three boundaries, nothing else to log
    assert len(appended) == 3
    for n, block in enumerate(appended, start=1):
        lines = block.splitlines(keepends=True)
        boundary = EPOCH_MS + n * HOUR_MS
        assert lines[0] == protocol.encode_line(eventlog.flush_record(boundary, boundary - HOUR_MS))
        assert len(lines) == 1 + 22
        assert all(json.loads(line)["ts"] == boundary for line in lines[1:])


def test_crash_at_any_byte_of_a_rollup_block_restarts_and_keeps_every_csv(rig_factory, tmp_path):
    period = 6 * HOUR_MS
    items = [(HOUR_MS, 1, "occupied"), (2 * HOUR_MS, 2, "occupied"), (3 * HOUR_MS, 1, "free"),
             (7 * HOUR_MS, 3, "occupied"), (8 * HOUR_MS, 2, "free"), (9 * HOUR_MS, 4, "occupied")]
    rig = rig_factory(items_trace(items, bays=4, duration_ms=DAY_MS), rollup_period_sec=6 * 3600)
    rig.run_for(2 * period + 60_000)
    rig.agent.kill()
    log = rig.agent_config.log_path.read_bytes()
    csvs = {p.name: p.read_bytes() for p in rig.agent_config.csv_dir.glob("rollup_*.csv")}
    assert len(csvs) == 2
    # The second window's block: its flush marker and the four re-seed lines after it.
    marker = protocol.encode_line(eventlog.flush_record(EPOCH_MS + 2 * period, EPOCH_MS + period))
    begin = log.index(marker)
    end = begin
    for _ in range(1 + 4):
        end = log.index(b"\n", end) + 1
    restart_dir = tmp_path / "restart"
    csv_dir = restart_dir / "csv"
    csv_dir.mkdir(parents=True)
    for cut in range(begin, end + 1):
        (restart_dir / "agent.log").write_bytes(log[:cut])
        for path in csv_dir.iterdir():
            path.unlink()
        for name, data in csvs.items():
            (csv_dir / name).write_bytes(data)
        agent, _ = make_agent(restart_dir, VirtualScheduler(EPOCH_MS + 2 * period + HOUR_MS),
                              rollup_period_sec=6 * 3600)
        agent.start()
        assert agent.window_start == EPOCH_MS + 2 * period, cut
        assert {p.name: p.read_bytes() for p in csv_dir.glob("rollup_*.csv")} == csvs, cut
        agent.kill()
    assert end - begin > 300


def test_write_csv_empty_records_is_header_only(tmp_path):
    path = write_csv([], RollupWindow(EPOCH_MS, EPOCH_MS + DAY_MS), "LOT", tmp_path)
    assert path.read_bytes() == b"bayId,occupationTime,occupationRate\n"


def test_write_csv_golden_line(tmp_path):
    records = [RollupRecord(1, 27_000, 0.3125)]
    path = write_csv(records, RollupWindow(EPOCH_MS, EPOCH_MS + DAY_MS), "LOT", tmp_path)
    assert path.name == "rollup_LOT_20181119T000000Z.csv"
    assert path.read_bytes() == b"bayId,occupationTime,occupationRate\n1,27000,0.3125\n"


def test_write_csv_is_deterministic(tmp_path):
    records = [RollupRecord(1, 5, 0.0001), RollupRecord(2, 86_400, 1.0)]
    window = RollupWindow(EPOCH_MS, EPOCH_MS + DAY_MS)
    first = write_csv(records, window, "LOT", tmp_path).read_bytes()
    second = write_csv(records, window, "LOT", tmp_path).read_bytes()
    assert first == second


def test_write_csv_failed_rename_keeps_previous_file(tmp_path, monkeypatch):
    window = RollupWindow(EPOCH_MS, EPOCH_MS + DAY_MS)
    first = write_csv([RollupRecord(1, 5, 0.0001)], window, "LOT", tmp_path)
    before = first.read_bytes()

    def boom(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr("edgepark.agent.os.replace", boom)
    with pytest.raises(OSError, match="rename failed"):
        write_csv([RollupRecord(1, 86_400, 1.0)], window, "LOT", tmp_path)
    assert first.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [first.name]

    other = RollupWindow(EPOCH_MS + DAY_MS, EPOCH_MS + 2 * DAY_MS)
    with pytest.raises(OSError, match="rename failed"):
        write_csv([RollupRecord(1, 0, 0.0)], other, "LOT", tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [first.name]


def test_read_csv_records_roundtrip(tmp_path):
    records = [RollupRecord(1, 27_000, 0.3125), RollupRecord(21, 0, 0.0)]
    window = RollupWindow(EPOCH_MS, EPOCH_MS + DAY_MS)
    path = write_csv(records, window, "LOT-A", tmp_path)
    lot, start, parsed = read_csv_records(path)
    assert (lot, start) == ("LOT-A", EPOCH_MS)
    assert parsed == records


@pytest.mark.parametrize("cells", ["-1,0.0000", "10,1.5000", "10,nan", "10,inf"])
def test_read_csv_records_refuses_seconds_or_rate_out_of_range(tmp_path, cells):
    window = RollupWindow(EPOCH_MS, EPOCH_MS + DAY_MS)
    path = write_csv([RollupRecord(1, 10, 0.0001)], window, "LOT-A", tmp_path)
    path.write_text(f"bayId,occupationTime,occupationRate\n1,{cells}\n")
    with pytest.raises(ValueError):
        read_csv_records(path)


@pytest.mark.parametrize("bay", ["0", "-1", "9223372036854775808"])
def test_read_csv_records_refuses_a_bay_id_out_of_range(tmp_path, bay):
    path = tmp_path / "rollup_LOT-A_20181119T000000Z.csv"
    path.write_text(f"bayId,occupationTime,occupationRate\n{bay},10,0.0001\n")
    with pytest.raises(ValueError, match="bay id, seconds or rate out of range"):
        read_csv_records(path)


# Rows and names that int(), float() and strptime() take, but that csv_bytes and
# csv_filename never write.
NOT_AS_WRITTEN_ROWS = ["1,+1_0,5e-1", "2, 7,0.5 ", "1,10,.5", "1,10,0.50000", "1,0,-0.0000",
                       "", "1,10", "1,10,0.0001,5", "1,ten,0.0001", "1,10,x"]


@pytest.mark.parametrize("row", NOT_AS_WRITTEN_ROWS)
def test_read_csv_records_refuses_a_row_not_as_written(tmp_path, row):
    path = tmp_path / "rollup_LOT-A_20181119T000000Z.csv"
    path.write_text(f"bayId,occupationTime,occupationRate\n{row}\n")
    with pytest.raises(ValueError, match=re.escape(repr(row))):
        read_csv_records(path)


HEADER = "bayId,occupationTime,occupationRate"


@pytest.mark.parametrize("separator", ["\f", "\u2028", "\r", "\x1c", "\x85"])
def test_read_csv_records_splits_rows_only_at_a_newline(tmp_path, separator):
    path = tmp_path / "rollup_LOT-A_20181119T000000Z.csv"
    path.write_bytes(f"{HEADER}\n1,0,0.0000{separator}2,0,0.0000\n".encode())
    with pytest.raises(ValueError, match="not a roll-up row"):
        read_csv_records(path)


def test_read_csv_records_takes_crlf_rows_as_the_records_written(tmp_path):
    records = [RollupRecord(1, 27_000, 0.3125), RollupRecord(21, 0, 0.0)]
    path = write_csv(records, RollupWindow(EPOCH_MS, EPOCH_MS + DAY_MS), "LOT-A", tmp_path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert read_csv_records(path)[2] == records


@pytest.mark.parametrize(
    "rows",
    [["2,0,0.0000", "1,0,0.0000", "1,5,0.0001"], ["1,0,0.0000", "1,5,0.0001"],
     ["3,0,0.0000", "2,0,0.0000"]],
    ids=["out of order and repeated", "repeated", "descending"],
)
def test_read_csv_records_refuses_rows_not_in_ascending_bay_order(tmp_path, rows):
    path = tmp_path / "rollup_LOT-A_20181119T000000Z.csv"
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    with pytest.raises(ValueError, match="is not after bay"):
        read_csv_records(path)


def test_a_restart_counts_a_csv_with_rows_out_of_bay_order_and_requeues_the_rest(tmp_path):
    csv_dir = tmp_path / "csv"
    csv_dir.mkdir()
    good = write_csv([RollupRecord(1, 100, 0.0012)], RollupWindow(EPOCH_MS - DAY_MS, EPOCH_MS),
                     "LOT-A", csv_dir)
    bad = csv_dir / csv_filename("LOT-A", EPOCH_MS - 2 * DAY_MS)
    bad.write_text(f"{HEADER}\n2,0,0.0000\n1,0,0.0000\n1,5,0.0001\n")
    log = eventlog.EventLogWriter(tmp_path / "agent.log")
    log.append(protocol.encode_line(eventlog.flush_record(EPOCH_MS, EPOCH_MS - DAY_MS)))
    log.close()
    agent, _ = make_agent(tmp_path)
    agent.start()
    assert agent.warnings["csv_requeue_failed"] == 1
    assert [p.key for p in agent.upload_queue] == [f"LOT-A:{EPOCH_MS - DAY_MS}"]
    assert good.exists() and bad.exists()


@pytest.mark.parametrize("stamp", ["2018111T000000Z", "20181119T0000Z"])
def test_read_csv_records_refuses_a_name_not_as_written(tmp_path, stamp):
    path = tmp_path / f"rollup_LOT-A_{stamp}.csv"
    path.write_text("bayId,occupationTime,occupationRate\n1,10,0.0001\n")
    with pytest.raises(ValueError, match=re.escape(path.name)):
        read_csv_records(path)


@pytest.mark.parametrize("lot_id", ["a b", "LOT\u00e9", ""])
def test_read_csv_records_refuses_a_name_without_a_valid_lot_id(tmp_path, lot_id):
    path = tmp_path / f"rollup_{lot_id}_20181119T000000Z.csv"
    path.write_text("bayId,occupationTime,occupationRate\n")
    with pytest.raises(ValueError, match="no valid lot id"):
        read_csv_records(path)


def test_csv_filename_uses_utc_basic_format():
    assert csv_filename("LOT-A", EPOCH_MS) == "rollup_LOT-A_20181119T000000Z.csv"


def test_csv_write_failure_parks_envelope_in_dead_letter(rig_factory, monkeypatch):
    rig = rig_factory(items_trace([(1000, 2, "occupied")]))

    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr("edgepark.agent.write_csv", boom)
    rig.sched.run_until(EPOCH_MS + DAY_MS)
    dead = list((rig.agent_config.csv_dir / "deadletter").glob("*.envelope.json"))
    assert len(dead) == 1
    envelope = json.loads(dead[0].read_text())
    assert envelope["key"] == f"LOT-A:{EPOCH_MS}"
    # The reset still happened: the next window starts from zero accumulation.
    assert all(s.accumulated_occupation_ms == 0 for s in rig.agent.table.values())
    assert rig.agent.window_start == EPOCH_MS + DAY_MS


class LateScheduler(VirtualScheduler):
    """Runs callbacks in due order, as the live loop does, but runs a delivery
    due at late_due lag_ms after it; now never moves back."""

    def __init__(self, start_ms, late_due, lag_ms):
        super().__init__(start_ms)
        self.late_due, self.lag_ms = late_due, lag_ms

    def run_until(self, end_ms):
        while self._heap and self._heap[0][0] <= end_ms:
            due, _prio, _seq, handle, fn, args = heapq.heappop(self._heap)
            late = due == self.late_due and getattr(fn, "__name__", "") == "_deliver"
            self._now = max(self._now, due + self.lag_ms * late)
            if not handle.cancelled:
                fn(*args)
        self._now = max(self._now, end_ms)


def test_an_update_run_after_its_boundary_is_logged_and_applied_in_the_next_window(tmp_path):
    # An update due 10 ms before 01:00 runs 10 ms after it, before the boundary does.
    boundary = EPOCH_MS + HOUR_MS
    sched = LateScheduler(EPOCH_MS, late_due=boundary - 10, lag_ms=20)
    net = VirtualNetwork(sched)
    sessions = []

    def accept(conn):
        def handle(msg):
            if msg["type"] == "hello":
                conn.send(protocol.encode_line(protocol.bays_message("LOT", [(1, "free")])))
            elif msg["type"] == "ping":
                conn.send(protocol.pong_line(msg["seq"]))

        conn.on_message = handle
        conn.on_close = lambda: None
        sessions.append(conn)

    net.listen("sim://gw", accept)
    agent, _ = make_agent(tmp_path, sched, net, gateway_address="sim://gw",
                          rollup_period_sec=3600)
    agent.start()
    update = protocol.bays_update_line("LOT", 1, "occupied")
    sched.call_at(boundary - 10, lambda: sessions[0].send(update))
    sched.run_until(boundary + HOUR_MS // 2)
    assert agent.table[1].status is BayStatus.OCCUPIED
    records = log_records(tmp_path / "agent.log")
    # [00:00, 01:00) closed once, at 01:00; the update is logged after its flush block.
    assert [r for r in records if "marker" in r] == [eventlog.flush_record(boundary, EPOCH_MS)]
    assert [r.get("src") for r in records] == ["snapshot", None, "snapshot", "update"]
    assert records[-1]["ts"] == boundary + 10
    csv = tmp_path / "csv" / csv_filename("LOT", EPOCH_MS)
    assert read_csv_records(csv) == ("LOT", EPOCH_MS, [RollupRecord(1, 0, 0.0)])
    agent.kill()
    restarted, _ = make_agent(tmp_path, VirtualScheduler(boundary + 90 * 60_000),
                              rollup_period_sec=3600)
    restarted.start()  # closes [01:00, 02:00) from the log
    assert restarted.window_start == boundary + HOUR_MS
    assert (tmp_path / "csv" / csv_filename("LOT", boundary)).exists()


# ---------------------------------------------------------------------------
# uploads


def test_upload_single_send_single_ack(rig_factory):
    rig = rig_factory(rollup_period_sec=3600)
    rig.sched.run_until(EPOCH_MS + HOUR_MS)
    assert rig.agent.upload_sends == 1
    assert len(rig.store) == 1
    assert rig.store.query_daily("LOT-A", EPOCH_MS) is not None


def test_upload_retries_until_hub_comes_up(tmp_path):
    from conftest import SimRig

    rig = SimRig(tmp_path, idle_trace(), rollup_period_sec=3600)
    rig.hub.stop()  # closes its listener: the hub's address refuses connects
    rig.sched.run_until(EPOCH_MS + HOUR_MS + 2500)  # two refused connects
    assert rig.agent.upload_sends == 0
    assert rig.agent.upload_queue
    rig.net.listen("sim://hub", rig.hub._accept)
    rig.sched.run_until(EPOCH_MS + HOUR_MS + 10_000)
    assert rig.agent.upload_sends == 1
    assert len(rig.store) == 1


def test_a_reply_for_no_upload_in_flight_changes_nothing(tmp_path):
    """The hub leaves the first send of window 0 unanswered, so its ack times out
    after window 1 is queued; it acks the resend twice, and the duplicate arrives
    while window 1 is in flight. Stray replies come with window 1's send, and
    replies after the queue has drained, with nothing in flight."""
    sched = VirtualScheduler(EPOCH_MS)
    net = VirtualNetwork(sched)
    key0, key1 = (protocol.envelope_key(agent.UNKNOWN_LOT, EPOCH_MS + n * 60_000)
                  for n in (0, 1))
    stray = [
        {"type": "ack", "key": key0}, {"type": "error", "key": key0, "reason": "x"},
        {"type": "ack", "key": "LOT:1"}, {"type": "ack"}, {"type": "ack", "key": None},
        {"type": "ack", "key": 7}, {"type": "stored", "key": key1},
    ]
    replies = [[], [{"type": "ack", "key": key0}] * 2, [*stray, {"type": "ack", "key": key1}]]
    links = []

    def accept(conn):
        links.append(conn)

        def handle(envelope):
            for reply in replies.pop(0):
                conn.send(protocol.encode_line(reply))

        conn.on_message = handle
        conn.on_close = lambda: None

    net.listen("sim://hub", accept)
    edge, _ = make_agent(tmp_path, sched, net, cloud_address="sim://hub",
                         rollup_period_sec=60, ack_timeout_ms=100_000)
    seen = []
    handle = edge._on_hub_message

    def state():
        return [u.key for u in edge.upload_queue], edge._ack_timer, edge.upload_attempt

    def recorded(message):
        before = state()
        handle(message)
        seen.append((message, before, state()))

    edge._on_hub_message = recorded
    edge.start()
    sched.run_until(EPOCH_MS + 160_000 - 1)  # window 0 in flight since 01:00, window 1 queued
    assert [u.key for u in edge.upload_queue] == [key0, key1] and edge._ack_timer is not None
    sched.run_until(EPOCH_MS + 170_000)  # timed out at 02:40, resent after 1 s backoff
    assert edge.upload_sends == 3 and not replies
    first_ack, duplicate, *strays, last_ack = seen
    assert first_ack[:2] == ({"type": "ack", "key": key0}, ([key0, key1], first_ack[1][1], 1))
    in_flight = first_ack[2]  # window 1, sent as window 0 was acked
    assert in_flight[0] == [key1] and in_flight[1] is not None and in_flight[2] == 0
    assert duplicate == ({"type": "ack", "key": key0}, in_flight, in_flight)
    assert [m for m, _, _ in strays] == stray
    assert all(before == after == in_flight for _, before, after in strays)
    assert last_ack == ({"type": "ack", "key": key1}, in_flight, ([], None, 0))
    # Nothing in flight: a late ack or error changes nothing and reads no queue head.
    late = [{"type": "ack", "key": key1}, {"type": "error", "key": key1, "reason": "x"}]
    for reply in late:
        links[-1].send(protocol.encode_line(reply))
    sched.run_until(EPOCH_MS + 175_000)
    assert seen[-2:] == [(reply, ([], None, 0), ([], None, 0)) for reply in late]
    assert edge.warnings["upload_refused"] == 0


def test_dropped_acks_cause_retries_but_single_store(rig_factory):
    rig = rig_factory(rollup_period_sec=3600, drop_acks=2)
    rig.sched.run_until(EPOCH_MS + HOUR_MS + 60_000)
    assert rig.agent.upload_sends == 3  # initial send plus two retries
    assert len(rig.store) == 1
    store_file = rig.store.store_dir / "LOT-A.jsonl"
    assert len(store_file.read_text().strip().splitlines()) == 1


def test_hub_refusal_is_final_and_later_windows_still_upload(rig_factory):
    # A CSV with no flush marker is re-queued as one current (hourly) window,
    # and the hub refuses its 10,800 s in an hour.
    rig = rig_factory(rollup_period_sec=3600)
    rig.sched.run_until(EPOCH_MS + 1000)
    rig.agent.kill()
    orphan = RollupWindow(EPOCH_MS - DAY_MS, EPOCH_MS)
    write_csv([RollupRecord(1, 10_800, 0.125)], orphan, "LOT-A", rig.agent_config.csv_dir)
    restarted = track_agent(EdgeAgentCore(rig.sched, rig.net, rig.agent_config))
    restarted.start()
    rig.sched.run_until(EPOCH_MS + 2 * HOUR_MS + 1000)
    assert restarted.upload_sends == 3  # the refused window once, then both hourly windows
    assert restarted.warnings["upload_refused"] == 1
    assert not restarted.upload_queue and restarted._ack_timer is None
    assert rig.store.query_daily("LOT-A", EPOCH_MS) is not None
    assert rig.store.query_daily("LOT-A", EPOCH_MS + HOUR_MS) is not None
    (parked,) = (rig.agent_config.csv_dir / "deadletter").glob("*.envelope.json")
    assert parked.name == f"LOT-A_{orphan.start}.envelope.json"
    assert json.loads(parked.read_text())["windowEnd"] == orphan.start + HOUR_MS


def test_requeued_csv_keeps_the_window_end_of_its_flush_marker(rig_factory):
    # Bay 1 parks 01:00-02:00. The hub is down over the daily roll-up, and
    # the agent restarts with hourly windows before the day is uploaded.
    rig = rig_factory(
        items_trace([(HOUR_MS, 1, "occupied"), (2 * HOUR_MS, 1, "free")], bays=3,
                    duration_ms=2 * DAY_MS)
    )
    rig.hub.stop()  # closes its listener: the hub's address refuses connects
    rig.sched.run_until(EPOCH_MS + DAY_MS + 1000)
    rig.agent.kill()
    hourly = dataclasses.replace(rig.agent_config, rollup_period_sec=3600)
    track_agent(EdgeAgentCore(rig.sched, rig.net, hourly)).start()
    rig.net.listen(HUB_ADDRESS, rig.hub._accept)
    rig.sched.run_until(EPOCH_MS + DAY_MS + HOUR_MS + 1000)
    (day, _hour) = rig.store.windows_for("LOT-A")
    assert (day.window_start, day.window_end) == (EPOCH_MS, EPOCH_MS + DAY_MS)
    assert day.records[0] == RollupRecord(1, 3600, 0.0417)


# ---------------------------------------------------------------------------
# recovery


def make_agent(tmp_path, sched=None, net=None, **overrides):
    sched = sched or VirtualScheduler(EPOCH_MS)
    net = net or VirtualNetwork(sched)
    fields = dict(
        gateway_address="sim://nowhere",
        cloud_address="sim://nohub",
        log_path=tmp_path / "agent.log",
        csv_dir=tmp_path / "csv",
        rollup_epoch_ms=EPOCH_MS,
    )
    fields.update(overrides)
    return track_agent(EdgeAgentCore(sched, net, AgentConfig(**fields))), sched


def test_recover_empty_log_starts_empty(tmp_path):
    (tmp_path / "agent.log").write_bytes(b"")
    agent, _ = make_agent(tmp_path)
    agent.start()
    assert agent.table == {}
    assert (tmp_path / "agent.log").read_bytes() == b""  # no restart's disconnect marker


def test_a_restart_over_a_long_torn_tail_costs_one_scan_block(tmp_path):
    log = tmp_path / "agent.log"
    snapshot = eventlog.event_line(EventKind.SNAPSHOT, EPOCH_MS, "L", 1, BayStatus.OCCUPIED)
    log.write_bytes(snapshot)
    append_long_torn_tail(log)
    agent, _ = make_agent(tmp_path)
    assert traced_peak(agent.start) < MIB  # neither the pass nor the writer reads the tail
    assert agent.warnings["skipped_log_line"] == 1
    marker = protocol.encode_line(eventlog.disconnect_record(EPOCH_MS))
    assert log.read_bytes() == snapshot + marker  # the tail cut, then the restart's marker


def test_recover_replays_only_after_last_flush_marker(tmp_path):
    log = eventlog.EventLogWriter(tmp_path / "agent.log")
    early = EPOCH_MS - HOUR_MS
    log.append(eventlog.event_line(EventKind.UPDATE, early, "L", 1, BayStatus.OCCUPIED))
    log.append(protocol.encode_line(eventlog.flush_record(EPOCH_MS - 1800_000, EPOCH_MS - DAY_MS)))
    for offset, status in ((60_000, "occupied"), (120_000, "free"), (180_000, "occupied")):
        log.append(protocol.encode_line(
            {"ts": EPOCH_MS - 1800_000 + offset, "lotId": "L", "bayId": 2,
             "status": status, "src": "update"}
        ))
    log.close()

    agent, _ = make_agent(tmp_path, rollup_epoch_ms=None)
    agent.start()
    records = log_records(tmp_path / "agent.log")
    assert records[-1] == eventlog.disconnect_record(EPOCH_MS)  # the restart's, at its start
    assert 1 not in agent.table  # pre-marker history excluded
    assert agent.window_start == EPOCH_MS - 1800_000
    # 60 s completed inside the window, plus the still-occupied interval
    # flushed when recovery closed the observation stream at start time.
    assert agent.table[2].accumulated_occupation_ms == 60_000 + 1_620_000
    assert agent.table[2].status is BayStatus.UNKNOWN


def test_recover_before_first_flush_uses_window_of_first_record(tmp_path):
    # Crashed in the 10:00-11:00 window of an hourly grid, before any flush.
    first = EPOCH_MS + 10 * HOUR_MS + HOUR_MS // 2
    log = eventlog.EventLogWriter(tmp_path / "agent.log")
    log.append(protocol.encode_line(
        {"ts": first, "lotId": "L", "bayId": 1, "status": "occupied", "src": "snapshot"}
    ))
    log.close()
    agent, _ = make_agent(
        tmp_path, VirtualScheduler(first + HOUR_MS // 4), rollup_period_sec=3600
    )
    agent.start()
    assert agent.window_start == EPOCH_MS + 10 * HOUR_MS
    assert agent.table[1].accumulated_occupation_ms == HOUR_MS // 4


def test_recover_tolerates_torn_tail(tmp_path):
    log = eventlog.EventLogWriter(tmp_path / "agent.log")
    log.append(protocol.encode_line(
        {"ts": EPOCH_MS - 5000, "lotId": "L", "bayId": 1, "status": "occupied", "src": "update"}
    ))
    log.close()
    with open(tmp_path / "agent.log", "ab") as fh:
        fh.write(b'{"ts": 99, "lotId"')
    agent, _ = make_agent(tmp_path)
    agent.start()
    assert agent.table[1].accumulated_occupation_ms == 5000  # flushed at recovery
    assert agent.warnings["skipped_log_line"] == 1


@pytest.mark.parametrize("key, value", [("bayId", 0), ("ts", True), ("status", "parked")])
def test_recover_skips_and_counts_a_refused_log_record(tmp_path, key, value):
    good = {"ts": EPOCH_MS - 5000, "lotId": "L", "bayId": 1, "status": "occupied", "src": "update"}
    log_path = tmp_path / "agent.log"
    log_path.write_bytes(protocol.encode_line(good) + protocol.encode_line({**good, key: value}))
    with pytest.raises(ValueError):  # replay still refuses the record
        harness.replay_log(log_path, 86_400, None)
    agent, _ = make_agent(tmp_path)
    agent.start()
    assert agent.table[1].accumulated_occupation_ms == 5000  # flushed at recovery
    assert agent.warnings["skipped_log_line"] == 1
    records = log_records(log_path)
    assert records[-1] == eventlog.disconnect_record(EPOCH_MS)


def test_a_head_that_fails_its_check_is_refused_at_each_of_its_lines(tmp_path, monkeypatch):
    valid = [
        eventlog.event_line(EventKind.SNAPSHOT, EPOCH_MS - 9000, "L", 1, BayStatus.FREE),
        eventlog.event_line(EventKind.UPDATE, EPOCH_MS - 5000, "L", 1, BayStatus.OCCUPIED),
    ]
    bogus = [protocol.encode_line({"bayId": 2, "lotId": "L", "src": "bogus", "status": "free",
                                   "ts": EPOCH_MS - 4000 + i}) for i in range(5)]
    assert len({line.rpartition(b'"ts":')[0] for line in bogus}) == 1  # one canonical head
    log_path = tmp_path / "agent.log"
    log_path.write_bytes(b"".join(valid + bogus))
    seen = []  # the ts of each record replay checks
    record_ts = eventlog.record_ts

    def checked_ts(record):
        seen.append(record_ts(record))
        return seen[-1]

    with monkeypatch.context() as patch:
        patch.setattr(eventlog, "record_ts", checked_ts)
        with pytest.raises(ValueError, match=r"^'bogus' is not a valid EventKind$"):
            harness.replay_log(log_path, 86_400, None)
    assert seen[-1] == EPOCH_MS - 4000  # the first of them
    agent, _ = make_agent(tmp_path)
    agent.start()
    assert agent.warnings["skipped_log_line"] == 5
    assert agent.table[1].accumulated_occupation_ms == 5000  # the valid lines folded
    assert 2 not in agent.table


def test_failed_start_closes_the_log_it_opened(tmp_path):
    (tmp_path / "csv").write_bytes(b"a regular file where the CSV directory belongs")
    agent, _ = make_agent(tmp_path)
    with pytest.raises(FileExistsError):
        agent.start()
    assert agent.log_writer._fh.closed


BAD_TS_FLUSH = {"ts": True, "marker": "flush", "windowStart": EPOCH_MS}
BAD_TS_UPDATE = {"ts": True, "lotId": "L", "bayId": 1, "status": "occupied", "src": "update"}


@pytest.mark.parametrize("record", [BAD_TS_FLUSH, BAD_TS_UPDATE], ids=["flush", "update"])
def test_recover_from_a_log_with_no_valid_ts_starts_at_now(tmp_path, record):
    (tmp_path / "agent.log").write_bytes(protocol.encode_line(record))
    agent, _ = make_agent(tmp_path, VirtualScheduler(EPOCH_MS + 5 * HOUR_MS),
                          rollup_period_sec=3600)
    agent.start()
    assert agent.window_start == EPOCH_MS + 5 * HOUR_MS  # as an empty log starts
    assert agent.table == {}
    assert agent.warnings["skipped_log_line"] == 1


def test_recover_passes_over_a_flush_marker_with_a_bad_ts(tmp_path):
    good_flush = eventlog.flush_record(EPOCH_MS + HOUR_MS, EPOCH_MS)
    after = {"ts": EPOCH_MS + HOUR_MS + 60_000, "lotId": "L", "bayId": 2,
             "status": "occupied", "src": "update"}
    (tmp_path / "agent.log").write_bytes(b"".join(
        protocol.encode_line(r) for r in (good_flush, after, BAD_TS_FLUSH, BAD_TS_UPDATE)
    ))
    agent, _ = make_agent(tmp_path, VirtualScheduler(EPOCH_MS + HOUR_MS + 120_000),
                          rollup_period_sec=3600)
    agent.start()
    assert agent.window_start == EPOCH_MS + HOUR_MS  # from the last marker with a valid ts
    assert agent.table[2].accumulated_occupation_ms == 60_000
    assert agent.warnings["skipped_log_line"] == 2  # the bad marker and the bad update


def test_recover_without_a_valid_flush_uses_the_first_valid_ts(tmp_path):
    first = {"ts": EPOCH_MS + 10 * HOUR_MS + 60_000, "lotId": "L", "bayId": 1,
             "status": "occupied", "src": "snapshot"}
    (tmp_path / "agent.log").write_bytes(b"".join(
        protocol.encode_line(r) for r in (BAD_TS_UPDATE, BAD_TS_FLUSH, first)
    ))
    agent, _ = make_agent(tmp_path, VirtualScheduler(first["ts"] + 60_000),
                          rollup_period_sec=3600)
    agent.start()
    assert agent.window_start == EPOCH_MS + 10 * HOUR_MS
    assert agent.table[1].accumulated_occupation_ms == 60_000
    assert agent.warnings["skipped_log_line"] == 2


@pytest.mark.parametrize("ahead_ts", [EPOCH_MS + HOUR_MS, 10**24], ids=["an-hour", "1e24"])
def test_restart_skips_and_counts_records_ahead_of_the_clock(tmp_path, ahead_ts):
    # A clock that stepped back restarts on a log holding records after its now.
    flush = eventlog.flush_record(EPOCH_MS - HOUR_MS, EPOCH_MS - 2 * HOUR_MS)
    now = EPOCH_MS - HOUR_MS // 2
    before = {"ts": now - 60_000, "lotId": "L", "bayId": 1, "status": "occupied", "src": "update"}
    ahead = {"ts": ahead_ts, "lotId": "L", "bayId": 2, "status": "occupied", "src": "snapshot"}
    ahead_flush = eventlog.flush_record(ahead_ts, EPOCH_MS)
    log_path = tmp_path / "agent.log"
    log_path.write_bytes(b"".join(
        protocol.encode_line(r) for r in (flush, before, ahead_flush, ahead)
    ))
    agent, _ = make_agent(tmp_path, VirtualScheduler(now), rollup_period_sec=3600)
    agent.start()
    assert agent.window_start == EPOCH_MS - HOUR_MS  # not the flush marker ahead
    assert agent.table[1].accumulated_occupation_ms == 60_000
    assert 2 not in agent.table
    assert agent.warnings["skipped_log_line"] == 2
    assert log_records(log_path)[-1] == eventlog.disconnect_record(now)


def test_restart_memory_does_not_grow_with_history_before_the_last_flush(tmp_path):
    peaks = []
    for n, windows in enumerate((20, 20, 80)):  # the first start warms caches up
        run = tmp_path / str(n)
        run.mkdir()
        history = range(EPOCH_MS - windows * HOUR_MS, EPOCH_MS, HOUR_MS)
        (run / "agent.log").write_bytes(b"".join(
            update_lines(start, 100)
            + protocol.encode_line(eventlog.flush_record(start + HOUR_MS, start))
            for start in history
        ) + update_lines(EPOCH_MS, 8))
        agent, _ = make_agent(run, VirtualScheduler(EPOCH_MS + HOUR_MS // 2),
                              rollup_period_sec=3600)
        peaks.append(traced_peak(agent.start))
        assert agent.window_start == EPOCH_MS and len(agent.table) == 4
        assert not agent.upload_queue  # no CSV on disk to re-queue
    _, small, large = peaks
    assert large - small < 64 * 1024, peaks  # a list of the whole log would grow by megabytes


def test_recovery_requeues_existing_csvs(tmp_path):
    csv_dir = tmp_path / "csv"
    csv_dir.mkdir()
    write_csv(
        [RollupRecord(1, 100, 0.0012)],
        RollupWindow(EPOCH_MS - DAY_MS, EPOCH_MS),
        "LOT-A",
        csv_dir,
    )
    log = eventlog.EventLogWriter(tmp_path / "agent.log")
    log.append(protocol.encode_line(eventlog.flush_record(EPOCH_MS, EPOCH_MS - DAY_MS)))
    log.close()
    agent, _ = make_agent(tmp_path)
    agent.start()
    assert [p.key for p in agent.upload_queue] == [f"LOT-A:{EPOCH_MS - DAY_MS}"]


# ---------------------------------------------------------------------------
# backoff


@pytest.mark.parametrize(
    "policy", [BackoffPolicy(), BackoffPolicy(1000, 1.0, 1000)], ids=["default", "flat"]
)
def test_backoff_is_the_capped_float_formula_wherever_that_does_not_overflow(policy):
    for attempt in range(1024):
        reference = int(min(policy.initial_ms * policy.multiplier ** attempt, policy.cap_ms))
        assert policy.delay_ms(attempt) == reference


@pytest.mark.parametrize("attempt", [1024, 1025, 10**6])
def test_backoff_stays_at_the_cap_past_a_float_overflow(attempt):
    with pytest.raises(OverflowError):
        2.0 ** attempt
    assert BackoffPolicy().delay_ms(attempt) == 30_000
    assert BackoffPolicy(1000, 1.0, 1000).delay_ms(attempt) == 1000


def test_agent_redials_a_gateway_back_after_a_ten_hour_outage(rig_factory):
    rig = rig_factory(backoff=BackoffPolicy(), start_agent=False)
    rig.gateway.listener.close()
    rig.agent.start()
    rig.run_for(10 * HOUR_MS)  # 30 s apart at the cap: past attempt 1,024
    assert rig.agent.connect_attempt > 1024
    assert rig.agent._gap_open == EPOCH_MS  # no snapshot yet
    rig.net.listen(GATEWAY_ADDRESS, rig.gateway._accept)
    rig.run_for(30_000)
    assert rig.agent._gap_open is None


def test_agent_uploads_to_a_hub_back_after_a_ten_hour_outage(rig_factory):
    rig = rig_factory(rollup_period_sec=3600, backoff=BackoffPolicy())
    rig.hub.stop()  # closes its listener: the hub's address refuses connects
    rig.run_for(10 * HOUR_MS)
    assert rig.agent.upload_attempt > 1024
    assert len(rig.agent.upload_queue) == 10
    rig.net.listen(HUB_ADDRESS, rig.hub._accept)
    rig.run_for(HOUR_MS)
    assert len(rig.store) == 11
    assert not rig.agent.upload_queue
