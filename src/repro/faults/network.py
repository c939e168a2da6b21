"""Unreliable-network decorator: loss, corruption, duplication, delay.

:class:`UnreliableNetwork` wraps any :class:`~repro.net.base.Network` and
injects the failure modes a real shared Ethernet produces (and the paper's
TCP transport masks): silent message drops, frames damaged on the wire,
duplicated deliveries, and extra queueing delay.  Transient link
partitions reuse the base network's §2.2 partition machinery via
:meth:`partition_for`.

Design rules:

* Fault decisions draw from a **dedicated RNG stream** (``faults.network``
  in the cluster's :class:`~repro.sim.rng.RngRegistry`), never from the
  workload's streams — enabling faults cannot perturb workload
  determinism, and the same plan + seed always yields the same schedule.
* Every transfer draws the same number of variates regardless of which
  faults are enabled, so changing one rate mid-run (a loss burst) does not
  shift the schedule of the other fault kinds.
* A *dropped* message still occupies the wire (the frames were sent; the
  receiver just never saw a good ACK) — only the caller's completion
  event is withheld.  That is why this decorator must only be installed
  together with a :class:`~repro.net.protocol.RetrySpec`: without a
  retry timer a drop would block the sender forever.
* A *corrupted* message is delivered but flagged, modelling a frame the
  transport checksum will reject; the protocol stack counts it and
  resends.  Corruption that redundancy must repair (at-rest bit-rot) is
  injected by :class:`~repro.faults.integrity.CorruptionInjector` instead
  — see DESIGN.md "Fault model" for why the two are kept distinct.
"""

from __future__ import annotations

from typing import Optional

from ..net.base import Network
from ..sim import Counter, Event

__all__ = ["UnreliableNetwork", "CorruptedDelivery"]

_RATE_FIELDS = ("drop_rate", "corrupt_rate", "duplicate_rate", "delay_rate")


class CorruptedDelivery:
    """Wraps a delivered message that was damaged on the wire."""

    __slots__ = ("message",)
    corrupted = True

    def __init__(self, message: object):
        self.message = message


class UnreliableNetwork:
    """Fault-injecting decorator over a concrete network.

    Not a :class:`Network` subclass: it owns no stations and delegates
    everything except :meth:`transfer` (attach, partition, stats, spec,
    ...) to the wrapped instance, so installing it is a pure swap of the
    protocol stack's ``network`` reference.
    """

    def __init__(
        self,
        inner: Network,
        rng,
        drop_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        delay_rate: float = 0.0,
        max_extra_delay: float = 2e-3,
    ):
        for name, value in zip(
            _RATE_FIELDS, (drop_rate, corrupt_rate, duplicate_rate, delay_rate)
        ):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1): {value}")
        if max_extra_delay < 0:
            raise ValueError(f"negative max_extra_delay: {max_extra_delay}")
        self.inner = inner
        self.sim = inner.sim
        self.rng = rng
        self.drop_rate = drop_rate
        self.corrupt_rate = corrupt_rate
        self.duplicate_rate = duplicate_rate
        self.delay_rate = delay_rate
        self.max_extra_delay = max_extra_delay
        self.counters = Counter()
        if any((drop_rate, corrupt_rate, duplicate_rate, delay_rate)):
            # Chaos campaigns pin per-event digests; keep a wrapped
            # switched fabric off its analytic fast path so fault timing
            # lands on the exact event sequence those digests were
            # recorded from.  (The shared Ethernet has one walk.)
            if getattr(inner, "analytic", None):
                inner.analytic = False

    def __getattr__(self, name: str):
        # Everything not overridden here (attach, partition, heal, stats,
        # spec, hosts, ...) behaves exactly as on the wrapped network.
        return getattr(self.inner, name)

    # ------------------------------------------------------------- faults
    def transfer(self, src: str, dst: str, nbytes: int) -> Event:
        """Send with faults applied; the returned event may never fire."""
        rng = self.rng
        # One fixed-shape block of draws per transfer (see module docstring).
        u_drop = rng.random()
        u_corrupt = rng.random()
        u_dup = rng.random()
        u_delay = rng.random()
        # The delay magnitude is drawn unconditionally: a conditional
        # draw would shift every later decision whenever delay_rate (or
        # a drop's early return) changed, breaking fault-kind isolation.
        u_magnitude = rng.random()
        inner_done = self.inner.transfer(src, dst, nbytes)
        if u_dup < self.duplicate_rate:
            # The duplicate burns wire time and stats; nobody waits on it.
            self.counters.add("duplicates")
            self.sim.tracer.emit("faults", "duplicate", src=src, dst=dst)
            self.inner.transfer(src, dst, nbytes)
        if u_drop < self.drop_rate:
            # The frames still cross the wire (inner transfer proceeds),
            # but the caller's completion event is withheld forever: only
            # an RPC timer can notice this.
            self.counters.add("drops")
            self.sim.tracer.emit(
                "faults", "drop", src=src, dst=dst, nbytes=nbytes
            )
            return self.sim.event()
        corrupted = u_corrupt < self.corrupt_rate
        extra = u_magnitude * self.max_extra_delay if u_delay < self.delay_rate else 0.0
        if not corrupted and extra == 0.0:
            return inner_done
        if corrupted:
            self.counters.add("wire_corruptions")
            self.sim.tracer.emit("faults", "corrupt", src=src, dst=dst)
        if extra > 0.0:
            self.counters.add("delays")
            self.sim.tracer.emit(
                "faults", "delay", src=src, dst=dst, extra=extra
            )
        outer = self.sim.event()

        def relay(event: Event) -> None:
            value = CorruptedDelivery(event.value) if corrupted else event.value
            if extra > 0.0:
                late = self.sim.timeout(extra)
                late.callbacks.append(lambda _late: outer.succeed(value))
            else:
                outer.succeed(value)

        if inner_done.processed:  # pragma: no cover - networks deliver async
            relay(inner_done)
        else:
            inner_done.callbacks.append(relay)
        return outer

    # --------------------------------------------------------- partitions
    def partition_for(self, segment, duration: float):
        """Generator: cut ``segment`` off for ``duration``, then heal.

        Reuses the base network's §2.2 stall-don't-fail semantics; with a
        retry spec installed, sends that out-wait their budget surface
        :class:`~repro.errors.RequestTimeout` instead of blocking forever.
        """
        if duration <= 0:
            raise ValueError(f"partition duration must be positive: {duration}")
        self.counters.add("link_partitions")
        self.inner.partition(segment)
        yield self.sim.timeout(duration)
        self.inner.heal()
