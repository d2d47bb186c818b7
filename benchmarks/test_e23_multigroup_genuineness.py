"""E23 (extension) — genuineness of multi-group atomic multicast.

A multicast protocol is *genuine* when only the groups a multicast is
addressed to exchange messages on its behalf.  The dividend is sharding:
independent group-sets order their traffic concurrently, so aggregate
goodput grows linearly with the number of shards instead of every
message funnelling through one global order.

The sweep runs ``k`` independent shards inside one simulation.  Each
shard is three members bridged into two overlapping groups (A: m1+m2,
B: m2+m3); the bridge bursts multi-group multicasts addressed to
``{A, B}``.  On top, every member — bridges included — also belongs to
one *uninvolved* group that no multicast ever addresses.

Hard genuineness gates, checked every leg:

* the uninvolved group performs **zero** ordering steps at every member
  (``romp.ordered_deliveries`` and every ``multigroup.*`` counter stay
  0) even though its members originate and order the mg burst in their
  addressed groups;
* each shard's addressed groups deliver the full burst, exactly once
  per group, and the union of per-group delivery orders passes the
  cross-group acyclicity oracle.

Scaling metric: multicasts/s of simulated time from burst start to the
last addressed member's last delivery.  Genuineness predicts near-flat
completion time as shards are added (shards share no groups, so they
share no ordering work) — aggregate goodput then grows ~linearly in
``k``.
"""

from repro.analysis import Table, make_multigroup_cluster
from repro.core import FTMPConfig
from repro.core.multigroup import mg_request_num
from repro.replication.oracles import check_multigroup_acyclicity

from _report import emit, emit_json

SHARDS = (1, 2, 4)
MESSAGES = 40            #: mg multicasts per shard bridge
UNINVOLVED_GID = 90      #: the group no multicast is ever addressed to
PAYLOAD = b"G" * 64


def _layout(k: int):
    """``k`` disjoint shards + one spanning uninvolved group.

    Shard ``s``: members ``(3s+1, 3s+2, 3s+3)``, groups ``2s+1`` (first
    two members) and ``2s+2`` (last two) bridged by the middle member.
    """
    groups = {}
    bridges = []
    for s in range(k):
        m1, m2, m3 = 3 * s + 1, 3 * s + 2, 3 * s + 3
        groups[2 * s + 1] = (m1, m2)
        groups[2 * s + 2] = (m2, m3)
        bridges.append(m2)
    pids = tuple(range(1, 3 * k + 1))
    groups[UNINVOLVED_GID] = pids
    return pids, groups, bridges


def run_leg(k: int):
    pids, groups, bridges = _layout(k)
    cfg = FTMPConfig(ordering="skeen",
                     heartbeat_interval=0.020,
                     suspect_timeout=1.0)
    c = make_multigroup_cluster(pids, groups, config=cfg, seed=k)
    c.run_for(0.5)  # settle timers in every group
    t0 = c.net.scheduler.now
    for s, bridge in enumerate(bridges):
        for _ in range(MESSAGES):
            c.stacks[bridge].multicast_groups(
                (2 * s + 1, 2 * s + 2), PAYLOAD)

    def delivered() -> bool:
        for gid, members in groups.items():
            if gid == UNINVOLVED_GID:
                continue
            for p in members:
                got = sum(1 for d in c.listeners[p].deliveries
                          if d.group == gid and d.payload == PAYLOAD)
                if got < MESSAGES:
                    return False
        return True

    t_done = None
    for _ in range(600):  # up to 30 simulated seconds
        c.run_for(0.05)
        if delivered():
            t_done = c.net.scheduler.now
            break
    assert t_done is not None, f"mg burst never fully delivered (k={k})"

    # ---- genuineness gate 1: the uninvolved group took zero ordering
    # steps at every member, bridges (the mg origins) included
    uninvolved_steps = 0
    for p in pids:
        snap = c.snapshot(p)
        for key, val in snap.items():
            if key.startswith(f"group.{UNINVOLVED_GID}.romp.") \
                    and key.endswith("ordered_deliveries"):
                uninvolved_steps += int(val)
                assert val == 0, f"member {p} ordered in uninvolved group"
            if key.startswith(f"group.{UNINVOLVED_GID}.multigroup."):
                assert val == 0, (
                    f"member {p} uninvolved-group mg counter {key}={val}")

    # ---- genuineness gate 2: exactly-once per addressed group, and the
    # union of per-group orders is acyclic
    for s, bridge in enumerate(bridges):
        expect = {mg_request_num(bridge, i + 1) for i in range(MESSAGES)}
        for gid in (2 * s + 1, 2 * s + 2):
            for p in groups[gid]:
                got = [d.request_num for d in c.listeners[p].deliveries
                       if d.group == gid and d.payload == PAYLOAD]
                assert len(got) == MESSAGES and set(got) == expect
    assert check_multigroup_acyclicity(c.listeners, {
        g: m for g, m in groups.items() if g != UNINVOLVED_GID}) == []

    elapsed = t_done - t0
    result = {
        "elapsed_s": elapsed,
        "goodput_mcast_s": (k * MESSAGES) / elapsed,
        "uninvolved_ordering_steps": uninvolved_steps,
    }
    c.stop()
    return result


def test_e23_multigroup_genuineness():
    legs = {k: run_leg(k) for k in SHARDS}

    table = Table(
        ["shards", "members", "burst done (ms)", "goodput (mcast/s)",
         "uninvolved ordering steps"],
        title="E23 — genuine multi-group multicast: sharded goodput, "
              "zero uninvolved-group work",
    )
    for k in SHARDS:
        r = legs[k]
        table.add_row(k, 3 * k, round(r["elapsed_s"] * 1e3, 1),
                      round(r["goodput_mcast_s"], 1),
                      r["uninvolved_ordering_steps"])
    emit("E23_multigroup_genuineness", table.render())
    emit_json("e23_multigroup_genuineness", {
        "series": [
            {
                "shards": k,
                "members": 3 * k,
                "elapsed_ms": round(legs[k]["elapsed_s"] * 1e3, 2),
                "goodput_mcast_s": round(legs[k]["goodput_mcast_s"], 2),
                "uninvolved_ordering_steps":
                    legs[k]["uninvolved_ordering_steps"],
            }
            for k in SHARDS
        ],
    })

    # genuineness: adding shards must not slow any shard down — the
    # 4-shard burst completes in (about) the single-shard time, so
    # aggregate goodput grows near-linearly with shard count
    assert legs[4]["elapsed_s"] <= 1.5 * legs[1]["elapsed_s"]
    assert (legs[4]["goodput_mcast_s"]
            >= 2.5 * legs[1]["goodput_mcast_s"])
