#!/usr/bin/env python3
"""Generate seeded sensor traces and inspect their statistics.

The simulated fleet alternates occupied/free dwell times drawn from
exponential distributions. Dwell means of 450/990 minutes give a long-run
occupied fraction of 7.5/24, matching an average workday lot. Identical
seeds reproduce identical traces, which is what makes whole-system runs
replayable.
"""

from dataclasses import replace

from edgepark import protocol
from edgepark.clock import VirtualScheduler
from edgepark.gateway import GatewayConfig, GatewayCore, SensorModel, generate_trace
from edgepark.occupancy import BayStatus
from edgepark.transport import VirtualNetwork

DAY = 86_400_000
WEEK = 7 * DAY


def occupied_fraction(trace):
    total = 0
    per_bay = {b: [] for b in trace.initial}
    for item in trace.items:
        per_bay[item.bay_id].append(item)
    for bay, items in per_bay.items():
        status, t = trace.initial[bay], 0
        for item in items:
            if status is BayStatus.OCCUPIED:
                total += item.sim_ts - t
            status, t = item.new_status, item.sim_ts
        if status is BayStatus.OCCUPIED:
            total += trace.duration_ms - t
    return total / (trace.duration_ms * trace.bay_count)


def hello_reply_at(config, trace, sim_ts):
    """The snapshot a client joining at sim_ts gets from a gateway serving trace."""
    sched = VirtualScheduler(0)
    net = VirtualNetwork(sched)
    GatewayCore(sched, net, config, trace).start()
    sched.run_until(sim_ts)  # every change due by sim_ts is dispatched
    client = net.connect(config.listen_address)
    replies = []
    client.on_message = replies.append
    client.send(protocol.encode_line(protocol.hello_message("demo")))
    sched.run_until(sched.now_ms())
    return replies[0]


def main():
    model = SensorModel(mean_occupied_min=450, mean_free_min=990, seed=0)
    config = GatewayConfig("127.0.0.1:0", "DEMO-LOT", bay_count=22, model=model)

    print(f"model long-run occupied fraction: {model.occupied_fraction:.4f} (7.5/24 = 0.3125)")

    trace = generate_trace(config, WEEK)
    trace = replace(trace, items=tuple(trace.items))  # generated items can be taken only once
    print(f"one simulated week: {len(trace.items)} status changes across 22 bays")
    frac = occupied_fraction(trace)
    print(f"realized occupied fraction: {frac:.4f} -> {frac * 24:.2f} h per bay-day")

    again = generate_trace(config, WEEK)
    print(f"same seed regenerates the identical trace: {trace.items == tuple(again.items)}")

    print("\nfirst five changes:")
    for item in trace.items[:5]:
        print(f"  t={item.sim_ts / 60000:8.1f} min  bay {item.bay_id:2d} -> {item.new_status.value}")

    noon = hello_reply_at(config, trace, 12 * 3_600_000)
    occupied = sum(1 for b in noon["data"][0]["bays"] if b["status"] == "occupied")
    print(f"\nsnapshot at noon on day 1: {occupied} of 22 bays occupied")
    print("this is exactly the 'bays' message a client receives when it joins then")


if __name__ == "__main__":
    main()
