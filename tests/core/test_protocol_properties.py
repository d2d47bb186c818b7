"""Property-based *protocol* tests: randomized schedules through the full
stack must preserve the paper's guarantees (agreement, validity, FIFO)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import make_cluster
from repro.core import FTMPConfig
from repro.simnet import lan

LENIENT = FTMPConfig(suspect_timeout=30.0)


@st.composite
def schedules(draw):
    """A randomized multi-sender send schedule."""
    n_nodes = draw(st.integers(2, 5))
    sends = draw(
        st.lists(
            st.tuples(
                st.integers(1, n_nodes),  # sender
                st.floats(0.0, 0.05, allow_nan=False),  # send time
            ),
            min_size=1,
            max_size=40,
        )
    )
    loss = draw(st.sampled_from([0.0, 0.0, 0.05, 0.15]))
    seed = draw(st.integers(0, 2**16))
    return n_nodes, sends, loss, seed


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schedules())
def test_agreement_validity_integrity(schedule):
    n_nodes, sends, loss, seed = schedule
    pids = tuple(range(1, n_nodes + 1))
    c = make_cluster(pids, topology=lan(loss=loss), config=LENIENT, seed=seed)
    expected = {pid: [] for pid in pids}
    # FIFO expectation follows actual send order: time, then insertion
    for i, (sender, t) in sorted(enumerate(sends), key=lambda e: (e[1][1], e[0])):
        expected[sender].append(f"{sender}:{i}".encode())
    for i, (sender, t) in enumerate(sends):
        payload = f"{sender}:{i}".encode()
        c.net.scheduler.at(t, c.stacks[sender].multicast, 1, payload)
    c.run_for(3.0 if loss else 0.8)

    orders = c.orders(1)
    payloads = c.payload_sets(1)
    reference = orders[pids[0]]
    for pid in pids:
        # agreement: identical total order everywhere
        assert orders[pid] == reference
        # validity + integrity: exactly the multiset of sent messages
        assert sorted(payloads[pid]) == sorted(
            p for sender in pids for p in expected[sender]
        )
        # per-source FIFO
        for sender in pids:
            own = [p for p in payloads[pid] if p.startswith(f"{sender}:".encode())]
            assert own == expected[sender]


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    n_nodes=st.integers(3, 5),
    crash_time=st.floats(0.005, 0.04),
    seed=st.integers(0, 2**16),
)
def test_survivor_agreement_under_crash(n_nodes, crash_time, seed):
    pids = tuple(range(1, n_nodes + 1))
    c = make_cluster(pids, seed=seed)
    victim = pids[-1]
    for i in range(20):
        for pid in pids:
            c.net.scheduler.at(0.0017 * i, c.stacks[pid].multicast, 1,
                               f"{pid}:{i}".encode())
    c.net.scheduler.at(crash_time, c.net.crash, victim)
    c.run_for(3.0)
    survivors = [p for p in pids if p != victim]
    orders = c.orders(1)
    reference = orders[survivors[0]]
    for pid in survivors[1:]:
        assert orders[pid] == reference
    # survivors agree on the final membership
    for pid in survivors:
        assert c.listeners[pid].current_membership(1) == tuple(survivors)
