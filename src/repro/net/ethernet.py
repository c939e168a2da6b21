"""A shared-medium CSMA/CD Ethernet model (frame level).

This is the paper's interconnect: a single 10 Mbit/s coaxial segment shared
by every workstation.  The model captures the three behaviours the
evaluation depends on:

1. **Idle-network page latency** — an 8 KB page fragments into six frames;
   each pays wire time, an interframe gap, and one contention slot, giving
   the ~8–9 ms/page the paper measures (§3.1, §4.4).
2. **Serialisation** — only one station transmits at a time, so concurrent
   transfers (mirroring's two copies, background traffic) queue.
3. **Collision collapse** (§4.6) — when several stations contend, frames
   collide; binary exponential backoff resolves them at the cost of
   dramatically reduced effective bandwidth.

Mechanics: a station that wants to transmit carrier-senses, waits for the
interframe gap, and *begins*.  All stations that begin within one
contention slot of each other collide: the channel carries a jam, everyone
backs off a random number of slots (binary exponential, capped), and
retries.  A sole beginner wins the channel for its frame time.  This is
the standard abstract CSMA/CD model (Tanenbaum §3, which the paper cites
for the collapse behaviour).

**One walk, no helper processes.**  Every frame is walked exactly, on
every medium, contended or not.  Each attached host runs one sender
process (carrier sense, gap, backoff); the channel itself is a chain of
kernel timeout callbacks.  The first beginner schedules the slot end;
the slot end picks the sole contender or declares a collision and
schedules the frame end or the jam end; that releases the channel.  The
medium carries at most one frame or one jam at a time, so the
contenders' outcomes live on the network object and the callbacks are
bound methods made once — arbitration allocates no process and no closure per
frame.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..config import EthernetSpec
from ..sim import Event, RngRegistry, Simulator, Store
from .base import Message, Network

__all__ = ["EthernetCsmaCd"]

#: Channel states.
_IDLE = "idle"
_CONTEND = "contend"
_BUSY = "busy"
_JAM = "jam"


class _Station:
    """Per-host transmit queue and its sender process."""

    def __init__(self, net: "EthernetCsmaCd", host: str):
        self.net = net
        self.queue: Store = Store(net.sim)
        self.rng: random.Random = net.rngs.stream(f"ethernet.{host}")
        self.process = net.sim.process(self._run(), name=f"eth-station:{host}")

    def _run(self):
        net = self.net
        while True:
            message: Message = yield self.queue.get()
            # §2.2: a partition stalls the sender; nothing is dropped.
            yield from net._await_reachable(message.src, message.dst)
            for payload in net._fragments(message.nbytes):
                yield from net._send_frame(self, payload)
            net._deliver(message)


class EthernetCsmaCd(Network):
    """Single shared segment with CSMA/CD arbitration.

    ``transfer`` enqueues a message on the source station; the station
    sends the message's frames back-to-back (re-contending for the channel
    per frame, as real Ethernet does).
    """

    def __init__(
        self,
        sim: Simulator,
        spec: Optional[EthernetSpec] = None,
        rngs: Optional[RngRegistry] = None,
    ):
        super().__init__(sim)
        self.spec = spec or EthernetSpec()
        self.rngs = rngs or RngRegistry(seed=0)
        self._state = _IDLE
        #: (frame_time, outcome) of each station that began in the
        #: current slot; the frame (one) or jam (several) on the wire is
        #: theirs until the channel is released.
        self._contenders: List[Tuple[float, Event]] = []
        self._idle_waiters: List[Event] = []
        self._pending_events: Dict[int, Event] = {}
        self._drops = 0
        self._on_slot_end = self._slot_end
        self._on_frame_end = self._frame_end
        self._on_jam_end = self._jam_end

    # ------------------------------------------------------------- interface
    def transfer(self, src: str, dst: str, nbytes: int) -> Event:
        message = Message(src=src, dst=dst, nbytes=nbytes, enqueued_at=self.sim.now)
        self._require(dst)  # destination must exist (else packets vanish)
        station: _Station = self._require(src)
        done = self.sim.event()
        self._pending_events[message.msg_id] = done
        station.queue.put(message)
        return done

    @property
    def collisions(self) -> int:
        """Total collision events observed since construction."""
        return self.stats.counters["collisions"]

    @property
    def drops(self) -> int:
        """Frames abandoned after the attempt limit (sender retries later)."""
        return self._drops

    # -------------------------------------------------------------- internals
    def _make_station(self, host: str) -> _Station:
        return _Station(self, host)

    def _fragments(self, nbytes: int) -> List[int]:
        """Split a message into MTU-sized frame payloads."""
        mtu = self.spec.mtu
        full, rest = divmod(nbytes, mtu)
        sizes = [mtu] * full
        if rest:
            sizes.append(rest)
        return sizes

    def _deliver(self, message: Message) -> None:
        self.stats.delivered(message)
        event = self._pending_events.pop(message.msg_id, None)
        if event is not None and not event.triggered:
            event.succeed(message)

    # -- CSMA/CD state machine ---------------------------------------------
    def _send_frame(self, station: _Station, payload: int):
        """Generator: contend for the channel and transmit one frame.

        Follows 802.3: carrier sense, interframe gap, transmit; on
        collision, jam and back off ``r`` slots with ``r`` uniform in
        ``[0, 2^min(attempts, 10))``; after ``max_attempts`` the frame is
        counted as dropped and retried from a fresh backoff state (the
        paging layer cannot afford to lose frames; real TCP would
        retransmit with the same net effect).
        """
        spec = self.spec
        frame_time = spec.frame_time(payload)
        attempts = 0
        while True:
            # Carrier sense: wait for an idle channel.
            while self._state not in (_IDLE, _CONTEND):
                waiter = self.sim.event()
                self._idle_waiters.append(waiter)
                yield waiter
            # Interframe gap, then check the channel is still free.
            yield self.sim.timeout(spec.interframe_gap)
            if self._state not in (_IDLE, _CONTEND):
                continue
            outcome = yield self._begin(frame_time)
            if outcome == "won":
                return
            # Collision: binary exponential backoff.
            attempts += 1
            self.stats.counters.add("station_collisions")
            if attempts >= spec.max_attempts:
                self._drops += 1
                attempts = 0  # excessive collisions: restart backoff state
            exponent = min(attempts, spec.max_backoff_exponent)
            slots = station.rng.randrange(0, 2**exponent)
            yield self.sim.timeout(spec.jam_time + slots * spec.slot_time)

    def _begin(self, frame_time: float) -> Event:
        """Register a transmission attempt in the current contention slot;
        the first attempt opens the slot and schedules its end."""
        outcome = self.sim.event()
        if self._state == _IDLE:
            self._state = _CONTEND
            self._contenders = [(frame_time, outcome)]
            self.stats.wire.busy(self.sim.now)
            self.sim.timeout(self.spec.slot_time).callbacks.append(self._on_slot_end)
        elif self._state == _CONTEND:
            self._contenders.append((frame_time, outcome))
        else:  # pragma: no cover - guarded by the caller's carrier sense
            outcome.succeed("collision")
        return outcome

    def _slot_end(self, _event: Event) -> None:
        """One contention slot after the first begin: a sole contender
        wins the channel for its frame time; several collide and jam."""
        contenders = self._contenders
        if len(contenders) == 1:
            self._state = _BUSY
            self.sim.timeout(contenders[0][0]).callbacks.append(self._on_frame_end)
        else:
            self._state = _JAM
            self.stats.counters.add("collisions")
            self.sim.timeout(self.spec.jam_time).callbacks.append(self._on_jam_end)

    def _frame_end(self, _event: Event) -> None:
        self._contenders[0][1].succeed("won")
        self.stats.counters.add("frames")
        self._release()

    def _jam_end(self, _event: Event) -> None:
        for _, outcome in self._contenders:
            outcome.succeed("collision")
        self._release()

    def _release(self) -> None:
        """The wire falls silent: idle the channel and wake every
        carrier-sense waiter."""
        self._state = _IDLE
        self.stats.wire.idle(self.sim.now)
        waiters, self._idle_waiters = self._idle_waiters, []
        for waiter in waiters:
            waiter.succeed()
