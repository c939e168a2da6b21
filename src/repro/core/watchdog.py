"""Crash detection from load-report silence.

The pager normally discovers a crash when a request fails (§2.2), which
leaves lost pages unprotected until the client happens to touch that
server.  Since servers report their load periodically (§3.2), silence is
a signal: a :class:`Watchdog` watches the client's
:class:`~repro.core.load_reports.ClusterView` and, when a server has
been quiet for ``suspect_after`` intervals, declares it crashed and runs
the policy's recovery *proactively* — restoring redundancy before the
next fault would trip over it.
"""

from __future__ import annotations

from ..errors import RecoveryError, RequestTimeout, ServerCrashed
from ..sim import Interrupt, Process, Simulator
from .client import RemoteMemoryPager
from .load_reports import ClusterView

__all__ = ["Watchdog"]

#: Size of the are-you-alive probe sent before declaring a crash.
PROBE_BYTES = 32


class Watchdog:
    """Declare silent servers crashed and trigger proactive recovery."""

    def __init__(
        self,
        pager: RemoteMemoryPager,
        view: ClusterView,
        report_interval: float,
        suspect_after: float = 3.0,
    ):
        if report_interval <= 0 or suspect_after <= 1:
            raise ValueError(
                "report_interval must be positive and suspect_after > 1 "
                "(declaring a crash within one interval would misfire on "
                "ordinary report jitter)"
            )
        self.pager = pager
        self.view = view
        self.report_interval = report_interval
        self.suspect_after = suspect_after
        self.sim: Simulator = pager.sim
        self.detections = []
        #: (time, server) pairs where a declared server resumed reporting
        #: before being retired — i.e. it flapped rather than died.
        self.rearms = []
        #: (time, server) pairs where a silent server answered the probe
        #: — its reports were lost or delayed, not its host.
        self.false_alarms = []
        self._declared: dict = {}
        self.process: Process = self.sim.process(self._run(), name="watchdog")

    @property
    def _deadline(self) -> float:
        return self.report_interval * self.suspect_after

    def _run(self):
        try:
            # Give every reporter one interval before expecting anything.
            yield self.sim.timeout(self.report_interval)
            while True:
                yield self.sim.timeout(self.report_interval)
                # Each silence is acted on exactly once: a successful
                # recovery removes the server from the policy's set, and
                # ``_declared`` latches servers whose recovery failed (no
                # redundancy) so they are not re-declared every interval.
                # The latch re-arms only when the server *reports again*
                # — a flapping server that rejoins is not double-recovered.
                for server in list(self.pager.policy.servers):
                    name = server.name
                    if self.view.report_for(name) is None:
                        continue  # never reported (not monitored)
                    age = self.view.age(name)
                    if name in self._declared:
                        if age <= self._deadline:
                            del self._declared[name]  # rejoined: re-arm
                            self.rearms.append((self.sim.now, name))
                            self.sim.tracer.emit("watchdog", "rearm", server=name)
                        continue
                    if age > self._deadline:
                        self._declared[name] = self.sim.now
                        yield from self._declare_crashed(server)
        except Interrupt:
            return

    def _declare_crashed(self, server):
        """A server went silent: probe it, then run recovery if it's dead.

        Silence is only a *suspicion* — on a lossy wire, lost or delayed
        reports look identical to death from the client's chair, and
        recovering a live server would wrongly retire good memory.  A
        small probe settles it: an answer re-arms the suspicion; no
        answer confirms the crash.
        """
        stack = self.pager.policy.stack
        try:
            yield from stack.send(
                self.pager.policy.client_host, server.host.name, PROBE_BYTES
            )
            alive = server.is_alive
        except RequestTimeout:
            alive = False
        if alive:
            # False alarm: drop the latch so continued silence probes
            # again next interval (the lost report may still be en route).
            self._declared.pop(server.name, None)
            self.false_alarms.append((self.sim.now, server.name))
            self.sim.tracer.emit("watchdog", "false_alarm", server=server.name)
            return
        self.detections.append((self.sim.now, server.name))
        try:
            yield from self.pager._handle_crash(ServerCrashed(server.name))
        except RecoveryError:
            # Unrecoverable policy (no redundancy): nothing a watchdog
            # can do beyond noting the loss; requests will surface it.
            pass
        except RequestTimeout:
            # Recovery traffic aborted on the lossy path; the hole is
            # still open and the next faulting request will retry it.
            pass

    def stop(self) -> None:
        """Stop monitoring."""
        if self.process.is_alive:
            self.process.interrupt("watchdog-stop")
