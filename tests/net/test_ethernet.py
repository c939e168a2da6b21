"""Unit tests for the CSMA/CD Ethernet model."""

import dataclasses
import hashlib
import json

import pytest

from repro.config import PAGE_SIZE, EthernetSpec, MachineSpec
from repro.sim import RngRegistry, Simulator
from repro.net import EthernetCsmaCd


def make_net(sim, hosts=("a", "b"), spec=None):
    net = EthernetCsmaCd(sim, spec=spec, rngs=RngRegistry(seed=11))
    for host in hosts:
        net.attach(host)
    return net


def run_transfer(sim, net, src, dst, nbytes):
    def driver(sim, net):
        yield net.transfer(src, dst, nbytes)
        return sim.now

    return sim.run_until_complete(sim.process(driver(sim, net)))


def test_single_frame_latency():
    sim = Simulator()
    net = make_net(sim)
    spec = net.spec
    elapsed = run_transfer(sim, net, "a", "b", 1000)
    # gap + contention slot + frame wire time
    expected = spec.interframe_gap + spec.slot_time + spec.frame_time(1000)
    assert elapsed == pytest.approx(expected, rel=1e-9)


def test_page_fragments_into_mtu_frames():
    sim = Simulator()
    net = make_net(sim)
    run_transfer(sim, net, "a", "b", PAGE_SIZE)
    # 8192 = 5 * 1500 + 692 -> 6 frames
    assert net.stats.counters["frames"] == 6
    assert net.stats.counters["messages"] == 1
    assert net.stats.counters["bytes"] == PAGE_SIZE


def test_page_wire_time_matches_paper_scale():
    """An 8 KB page should take 7-10 ms on an idle 10 Mbit/s Ethernet."""
    sim = Simulator()
    net = make_net(sim)
    elapsed = run_transfer(sim, net, "a", "b", PAGE_SIZE)
    assert 0.006 < elapsed < 0.010


def test_transfer_to_unknown_host_rejected():
    sim = Simulator()
    net = make_net(sim, hosts=("a",))
    with pytest.raises(KeyError):
        net.transfer("a", "ghost", 100)


def test_transfer_from_unknown_host_rejected():
    sim = Simulator()
    net = make_net(sim, hosts=("a",))
    with pytest.raises(KeyError):
        net.transfer("ghost", "a", 100)


def test_message_to_self_rejected():
    sim = Simulator()
    net = make_net(sim)
    with pytest.raises(ValueError):
        net.transfer("a", "a", 100)


def test_zero_byte_message_rejected():
    sim = Simulator()
    net = make_net(sim)
    with pytest.raises(ValueError):
        net.transfer("a", "b", 0)


def test_concurrent_senders_serialize():
    """Two simultaneous senders: the wire carries one frame at a time."""
    sim = Simulator()
    net = make_net(sim, hosts=("a", "b", "c", "d"))
    done_times = {}

    def sender(sim, net, src, dst, tag):
        yield net.transfer(src, dst, 1400)
        done_times[tag] = sim.now

    sim.process(sender(sim, net, "a", "b", "first"))
    sim.process(sender(sim, net, "c", "d", "second"))
    sim.run()
    # Simultaneous start -> they collide at least once, then backoff
    # separates them; both complete, at different times.
    assert net.stats.counters["collisions"] >= 1
    assert len(done_times) == 2
    assert done_times["first"] != done_times["second"]
    single = net.spec.frame_time(1400)
    assert min(done_times.values()) > single  # paid contention overhead


def test_collision_counting_under_contention():
    sim = Simulator()
    hosts = [f"h{i}" for i in range(8)]
    net = make_net(sim, hosts=hosts)

    def sender(sim, net, src, dst):
        for _ in range(5):
            yield net.transfer(src, dst, 1400)

    for i in range(0, 8, 2):
        sim.process(sender(sim, net, hosts[i], hosts[i + 1]))
    sim.run()
    assert net.stats.counters["messages"] == 20
    assert net.collisions > 0


def test_sequential_transfers_no_collisions():
    sim = Simulator()
    net = make_net(sim)

    def sender(sim, net):
        for _ in range(10):
            yield net.transfer("a", "b", 1400)

    sim.run_until_complete(sim.process(sender(sim, net)))
    assert net.collisions == 0
    assert net.stats.counters["frames"] == 10


def test_effective_bandwidth_near_nominal_when_uncontended():
    """A single bulk sender should reach close to the raw 10 Mbit/s."""
    sim = Simulator()
    net = make_net(sim)
    total = 100 * PAGE_SIZE

    def sender(sim, net):
        for _ in range(100):
            yield net.transfer("a", "b", PAGE_SIZE)

    sim.run_until_complete(sim.process(sender(sim, net)))
    goodput = total / sim.now
    nominal = net.spec.bandwidth
    assert goodput > 0.75 * nominal


def test_heavy_contention_collapses_goodput():
    """§4.6: many contending stations crush effective bandwidth."""
    sim = Simulator()
    pairs = 10
    hosts = [f"h{i}" for i in range(2 * pairs)]
    net = make_net(sim, hosts=hosts)
    messages_per_sender = 20

    def sender(sim, net, src, dst):
        for _ in range(messages_per_sender):
            yield net.transfer(src, dst, 1400)

    procs = [
        sim.process(sender(sim, net, hosts[2 * i], hosts[2 * i + 1]))
        for i in range(pairs)
    ]
    for p in procs:
        sim.run_until_complete(p)
    goodput = (pairs * messages_per_sender * 1400) / sim.now
    # Effective bandwidth is well below nominal under heavy contention.
    assert goodput < 0.8 * net.spec.bandwidth
    assert net.collisions > pairs


def test_utilization_tracked():
    sim = Simulator()
    net = make_net(sim)
    run_transfer(sim, net, "a", "b", 1400)
    assert 0.0 < net.stats.utilization() <= 1.0


def test_detach_host():
    sim = Simulator()
    net = make_net(sim)
    assert net.is_attached("b")
    net.detach("b")
    assert not net.is_attached("b")
    with pytest.raises(KeyError):
        net.transfer("a", "b", 100)


def test_message_latency_stats():
    sim = Simulator()
    net = make_net(sim)
    run_transfer(sim, net, "a", "b", 1400)
    assert net.stats.message_latency.count == 1
    assert net.stats.message_latency.mean > 0


# ------------------------------------------------------------ golden walk
# Each scenario below pins the CSMA/CD walk bit for bit: every delivery
# instant as ``float.hex``, the frame/collision/drop counters and the
# wire's busy seconds.  The values were captured from the walk before
# it became a callback chain (the analytic fast hold and the frame-level
# walk agreed on every one of them); a change to the order or the float
# arithmetic of arbitration moves them.

def _drive(senders, spec=None, partition=None):
    """Run a sender schedule; return every delivery and wire observable.

    ``senders`` is a list of dicts: ``src``/``dst`` hosts, an ``offset``
    before the first message, and ``sizes`` sent back-to-back.
    ``partition`` is ``(segment, heal_at)``: ``segment`` is cut off at
    t=0 and the network heals at ``heal_at``.
    """
    sim = Simulator()
    net = EthernetCsmaCd(sim, spec=spec, rngs=RngRegistry(seed=11))
    hosts = sorted({h for s in senders for h in (s["src"], s["dst"])})
    for host in hosts:
        net.attach(host)
    done = []

    def sender(idx, plan):
        if plan["offset"]:
            yield sim.timeout(plan["offset"])
        for size in plan["sizes"]:
            yield net.transfer(plan["src"], plan["dst"], size)
            done.append((idx, sim.now.hex()))

    def healer(heal_at):
        yield sim.timeout(heal_at)
        net.heal()

    for idx, plan in enumerate(senders):
        sim.process(sender(idx, plan), name=f"sender-{idx}")
    if partition is not None:
        segment, heal_at = partition
        net.partition(segment)
        sim.process(healer(heal_at), name="healer")
    sim.run()
    counters = net.stats.counters
    return {
        "done": done,
        "frames": counters["frames"],
        "collisions": counters["collisions"],
        "station_collisions": counters["station_collisions"],
        "drops": net.drops,
        "busy_seconds": net.stats.busy_seconds().hex(),
    }


def _page_boundaries(spec):
    """Gap end, transmit start and transmit end of each frame of one
    uncontended PAGE_SIZE message starting at t=0."""
    t = 0.0
    bounds = []
    for payload in (spec.mtu,) * 5 + (PAGE_SIZE - 5 * spec.mtu,):
        gap_end = t + spec.interframe_gap
        start = gap_end + spec.slot_time
        t = start + spec.frame_time(payload)
        bounds.append((gap_end, start, t))
    return bounds


def _second_sender_offset(where):
    """When a second sender arrives, relative to frame 2 of a page."""
    bounds = _page_boundaries(EthernetSpec())
    previous_end = bounds[1][2]
    gap_end, start, end = bounds[2]
    return {
        "gap": (previous_end + gap_end) / 2,
        "slot-open": gap_end,
        "slot": (gap_end + start) / 2,
        "mid-frame": (start + end) / 2,
        "frame-end": end,
    }[where]


GOLDEN = {
    "idle-page": (
        [{"src": "a", "dst": "b", "offset": 0.0, "sizes": [PAGE_SIZE]}],
        {},
    ),
    "same-instant": (
        [
            {"src": "a", "dst": "b", "offset": 0.0, "sizes": [1400, 1400]},
            {"src": "c", "dst": "d", "offset": 0.0, "sizes": [1400, 1400]},
        ],
        {},
    ),
    **{
        f"second-sender-{where}": (
            [
                {"src": "a", "dst": "b", "offset": 0.0, "sizes": [PAGE_SIZE]},
                {"src": "c", "dst": "d",
                 "offset": _second_sender_offset(where), "sizes": [1400]},
            ],
            {},
        )
        for where in ("gap", "slot-open", "slot", "mid-frame", "frame-end")
    },
    "burst-with-drops": (
        [
            {"src": f"h{2 * i}", "dst": f"h{2 * i + 1}", "offset": 0.0,
             "sizes": [1400, 600, 1400]}
            for i in range(4)
        ],
        {"spec": EthernetSpec(max_attempts=2)},
    ),
    "partition-then-heal": (
        [
            {"src": "a", "dst": "b", "offset": 0.0, "sizes": [PAGE_SIZE]},
            {"src": "c", "dst": "d", "offset": 0.0, "sizes": [PAGE_SIZE]},
        ],
        {"partition": ({"a"}, 0.004)},
    ),
}

EXPECTED = {
    "burst-with-drops": dict(
        done=[
            (2, "0x1.4c9bba0549ebep-10"), (2, "0x1.007b500276d2ap-8"),
            (1, "0x1.00749a05d0241p-6"), (3, "0x1.198aeb80ecfaap-6"),
            (0, "0x1.3b3a68b19a40fp-6"), (2, "0x1.7ce52deca252cp-6"),
            (1, "0x1.884c6a3bddfa1p-6"), (0, "0x1.95cc857f305f0p-6"),
            (1, "0x1.afef467458946p-6"), (3, "0x1.be60f93f1b9b7p-6"),
            (3, "0x1.d4449052c8f74p-6"), (0, "0x1.e7f4707fc4d8dp-6"),
        ],
        frames=12, collisions=272,
        station_collisions=905, drops=448,
        busy_seconds="0x1.b2d82f009e8adp-6",
    ),
    "idle-page": dict(
        done=[
            (0, "0x1.cd9549a8c07e2p-8"),
        ],
        frames=6, collisions=0,
        station_collisions=0, drops=0,
        busy_seconds="0x1.c9ceeb8afdf58p-8",
    ),
    "partition-then-heal": dict(
        done=[
            (1, "0x1.e1818fb798885p-8"), (0, "0x1.d78b6cb02c830p-7"),
        ],
        frames=12, collisions=3,
        station_collisions=6, drops=0,
        busy_seconds="0x1.cf27f0dfd18c3p-7",
    ),
    "same-instant": dict(
        done=[
            (1, "0x1.4c9bba0549ebep-10"), (1, "0x1.4c9bba0549ebep-9"),
            (0, "0x1.ea1abb6d28f84p-9"), (0, "0x1.43ccde6a84025p-8"),
        ],
        frames=4, collisions=2,
        station_collisions=4, drops=0,
        busy_seconds="0x1.3f9b20825686fp-8",
    ),
    "second-sender-frame-end": dict(
        done=[
            (1, "0x1.56e264e486270p-8"), (0, "0x1.143f522566c1ep-7"),
        ],
        frames=7, collisions=2,
        station_collisions=4, drops=0,
        busy_seconds="0x1.0f875c8033971p-7",
    ),
    "second-sender-gap": dict(
        done=[
            (1, "0x1.f644955b4677ap-9"), (0, "0x1.105e1c15097c9p-7"),
        ],
        frames=7, collisions=1,
        station_collisions=2, drops=0,
        busy_seconds="0x1.0dbf0563ed0f7p-7",
    ),
    "second-sender-mid-frame": dict(
        done=[
            (1, "0x1.56e264e486270p-8"), (0, "0x1.143f522566c1ep-7"),
        ],
        frames=7, collisions=2,
        station_collisions=4, drops=0,
        busy_seconds="0x1.0f875c8033971p-7",
    ),
    "second-sender-slot": dict(
        done=[
            (1, "0x1.f644955b4677ap-9"), (0, "0x1.105e1c15097c9p-7"),
        ],
        frames=7, collisions=1,
        station_collisions=2, drops=0,
        busy_seconds="0x1.0dbf0563ed0f7p-7",
    ),
    "second-sender-slot-open": dict(
        done=[
            (1, "0x1.f644955b4677ap-9"), (0, "0x1.105e1c15097c9p-7"),
        ],
        frames=7, collisions=1,
        station_collisions=2, drops=0,
        busy_seconds="0x1.0dbf0563ed0f7p-7",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_walk_matches_golden(name):
    senders, kwargs = GOLDEN[name]
    assert _drive(senders, **kwargs) == EXPECTED[name]


#: A 2 MB machine pages constantly; its runs last long enough for every
#: ``FaultPlan.standard_campaign()`` event to land.
_SMALL = MachineSpec(
    name="golden-small",
    ram_bytes=2 * 1024 * 1024,
    kernel_resident_bytes=1 * 1024 * 1024,
    page_size=8192,
)


def _cluster_digest(name):
    """sha256 of one cluster run's report and metrics snapshot."""
    from repro.core import build_cluster
    from repro.faults import ChaosController, FaultPlan
    from repro.workloads import Gauss, SequentialScan

    if name == "parity-logging-standard-campaign":
        cluster = build_cluster(
            policy="parity-logging", machine_spec=_SMALL, n_servers=4,
            content_mode=True, seed=3, server_capacity_pages=600,
        )
        ChaosController(cluster, FaultPlan.standard_campaign())
        report = cluster.run(SequentialScan(n_pages=400, passes=3, write=True))
    else:  # "mirroring-quiet": no fault injection, no background load
        cluster = build_cluster(
            policy="mirroring", machine_spec=_SMALL, n_servers=2, seed=7
        )
        report = cluster.run(Gauss(n=400, passes=2))
    blob = json.dumps(
        {"report": dataclasses.asdict(report), "metrics": cluster.metrics.snapshot()},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


CLUSTER_EXPECTED = {
    "mirroring-quiet":
        "6c1c8cb0a6693626363d13c1cf631724bc8ea430692a0c1e973e18e585cdb26d",
    "parity-logging-standard-campaign":
        "3e37d3be1e003b8ae5cde6170295811d85d8a128ed33a44d6b69f6df76aa2c10",
}


@pytest.mark.parametrize("name", sorted(CLUSTER_EXPECTED))
def test_cluster_on_ethernet_matches_golden(name):
    assert _cluster_digest(name) == CLUSTER_EXPECTED[name]


def test_uncontended_stream_draws_no_backoff_rng():
    """A lone sender never collides, so its backoff stream is never
    touched: the stream's state equals a freshly-seeded one's."""
    sim = Simulator()
    net = make_net(sim)

    def sender(sim, net):
        for size in (PAGE_SIZE, 1400, 100, PAGE_SIZE):
            yield net.transfer("a", "b", size)

    sim.run_until_complete(sim.process(sender(sim, net)))
    assert net.collisions == 0
    fresh = RngRegistry(seed=11)
    for host in ("a", "b"):
        assert (
            net.rngs.stream(f"ethernet.{host}").getstate()
            == fresh.stream(f"ethernet.{host}").getstate()
        )


def test_frame_walk_starts_no_process_per_frame():
    """Arbitration runs on kernel callbacks: a contended run starts one
    process per attached station and nothing else, however many frames,
    slots and collisions it walks."""
    sim = Simulator()
    hosts = ("a", "b", "c")
    net = make_net(sim, hosts=hosts)
    done = [
        net.transfer(src, dst, PAGE_SIZE)
        for src, dst in (("a", "b"), ("b", "c"), ("c", "a"))
    ]
    sim.run()
    assert all(event.processed for event in done)
    assert net.collisions > 0
    assert net.stats.counters["frames"] == 18
    assert sim.process_count == len(hosts)
