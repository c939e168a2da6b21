"""Network abstractions shared by the Ethernet and switched models.

A network moves *messages* (byte blobs with a source and destination host
name) and exposes one operation to the rest of the system::

    done_event = network.transfer(src, dst, nbytes)

The event fires when the last byte arrives.  Both concrete networks
(:class:`~repro.net.ethernet.EthernetCsmaCd` and
:class:`~repro.net.switched.SwitchedNetwork`) fragment messages into
MTU-sized frames internally and account per-host statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..sim import Counter, Event, Simulator, Tally, UtilizationTracker

__all__ = ["Message", "NetworkStats", "Network"]

_MESSAGE_IDS = iter(range(1, 1 << 62))


@dataclass
class Message:
    """One network message: a block of bytes from ``src`` to ``dst``."""

    src: str
    dst: str
    nbytes: int
    msg_id: int = field(default_factory=lambda: next(_MESSAGE_IDS))
    enqueued_at: float = 0.0

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError(f"message must carry at least one byte: {self.nbytes}")
        if self.src == self.dst:
            raise ValueError(f"message to self: {self.src!r}")


class NetworkStats:
    """Per-network counters: frames, collisions, latency, busy fraction."""

    def __init__(self, sim: Simulator):
        self._sim = sim
        self.counters = Counter()
        self.message_latency = Tally()
        self.wire = UtilizationTracker(now=sim.now)
        #: Optional hook a network installs to settle lazily-deferred
        #: wire accounting before anyone reads utilisation (the switched
        #: fabric's analytic holds defer their busy/idle marks — see
        #: ``repro.net.switched``).
        self._pre_read = None

    def delivered(self, message: Message) -> None:
        """Account one delivered message (counters + latency tally)."""
        self.counters.add("messages")
        self.counters.add("bytes", message.nbytes)
        self.message_latency.observe(self._sim.now - message.enqueued_at)

    def utilization(self) -> float:
        """Fraction of elapsed time the wire carried bits."""
        if self._pre_read is not None:
            self._pre_read()
        return self.wire.utilization(self._sim.now)

    def busy_seconds(self) -> float:
        """Cumulative seconds the wire carried bits (settles lazy
        accounting first) — telemetry differentiates this into windowed
        wire utilisation."""
        if self._pre_read is not None:
            self._pre_read()
        return self.wire.busy_seconds(self._sim.now)


class Network:
    """Base class: host registry plus the transfer interface.

    Partitions (§2.2): "Another cause of failure may be a network problem
    (e.g. network partitioning due to a bridge failure).  In this case,
    the client can not retrieve its pages from the servers.  As a result
    it remains blocked waiting for the network to recover."  A network
    can be :meth:`partition`-ed into segments; transfers that would cross
    the cut stall (without failing) until :meth:`heal` is called.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.stats = NetworkStats(sim)
        self._hosts: Dict[str, object] = {}
        self._partition: Optional[frozenset] = None
        self._heal_waiters: list = []

    @property
    def hosts(self) -> tuple:
        """Names of attached hosts."""
        return tuple(self._hosts)

    def attach(self, host: str) -> None:
        """Register ``host`` on the network.  Idempotent."""
        if host not in self._hosts:
            self._hosts[host] = self._make_station(host)

    def detach(self, host: str) -> None:
        """Remove ``host`` (e.g. a crashed workstation)."""
        self._hosts.pop(host, None)

    def is_attached(self, host: str) -> bool:
        """Whether ``host`` is registered on this network."""
        return host in self._hosts

    def transfer(self, src: str, dst: str, nbytes: int) -> Event:
        """Send ``nbytes`` from ``src`` to ``dst``; event fires on delivery."""
        raise NotImplementedError

    def _make_station(self, host: str) -> object:
        raise NotImplementedError

    def _require(self, host: str) -> object:
        try:
            return self._hosts[host]
        except KeyError:
            raise KeyError(f"host {host!r} is not attached to this network") from None

    # ---------------------------------------------------------- partitions
    @property
    def is_partitioned(self) -> bool:
        return self._partition is not None

    def partition(self, segment) -> None:
        """Split the network: hosts in ``segment`` can only reach each
        other; everyone else can only reach everyone else."""
        self._partition = frozenset(segment)
        self.stats.counters.add("partitions")
        self.sim.tracer.emit("net", "partition", segment=sorted(self._partition))

    def heal(self) -> None:
        """Repair the partition; stalled transfers resume immediately."""
        self._partition = None
        waiters, self._heal_waiters = self._heal_waiters, []
        self.sim.tracer.emit("net", "heal", stalled=len(waiters))
        for waiter in waiters:
            waiter.succeed()

    def _crosses_partition(self, src: str, dst: str) -> bool:
        if self._partition is None:
            return False
        return (src in self._partition) != (dst in self._partition)

    def _await_reachable(self, src: str, dst: str):
        """Generator: block while ``src``/``dst`` are on opposite sides.

        This is the §2.2 behaviour: a partition does not crash anything;
        the client just waits for the network to recover.
        """
        while self._crosses_partition(src, dst):
            waiter = Event(self.sim)
            self._heal_waiters.append(waiter)
            yield waiter
