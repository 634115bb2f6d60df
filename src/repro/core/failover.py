"""Primary/backup fault tolerance for the distributor (§2.3).

"We noticed that the distributor represents a single-point-of-failure in
our system ... We implemented the primary/backup(s) mechanism to achieve
fault tolerance of the distributor.  While the *primary* distributor is
providing service normally, the *backup* distributor remains in a monitor
state, continuing to monitor the primary and replicate the primary's state.
If the primary distributor fails, the backup takes over the job of the
primary and creates its own backup."

Model: the backup probes the primary every heartbeat interval; after
``misses_to_fail`` consecutive missed heartbeats it promotes itself.  On
each successful heartbeat it replicates the primary's URL table (version-
checked, so unchanged tables cost nothing).  Requests submitted while no
distributor is active wait out the takeover window with a bounded
exponential backoff (the default budget covers the worst-case detection
window); only when the budget is exhausted do they fail with
:class:`FrontendDown`.  Constructing the pair with ``retry_attempts=0``
restores the raw fail-fast behaviour the failover benchmark measures.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..net import HttpRequest, Nic
from ..sim import Simulator
from .distributor import ContentAwareDistributor
from .frontend import Frontend
from .overload import RetryBudget

__all__ = ["DistributorLease", "FrontendDown", "HaDistributorPair"]


class FrontendDown(Exception):
    """No distributor is currently able to accept the request."""


class DistributorLease:
    """A time-bound claim on the distributor role.

    The primary holds the lease; the backup renews it on every healthy
    heartbeat and may only promote itself once the lease has *expired*.
    This closes the split-brain window of the raw missed-heartbeat rule:
    a slow-but-alive primary keeps its lease refreshed, so the backup
    waits it out instead of promoting a second authority.  With
    durability enabled, lease expiry is also the signal that the
    recovered WAL state -- not a from-scratch table -- is the one the
    standby must take over.
    """

    def __init__(self, sim: Simulator, term: float = 1.0):
        if term <= 0:
            raise ValueError("lease term must be positive")
        self.sim = sim
        self.term = term
        self.expires_at = sim.now + term
        self.renewals = 0

    def renew(self) -> None:
        """Extend the lease for one more term from now."""
        self.expires_at = self.sim.now + self.term
        self.renewals += 1

    @property
    def expired(self) -> bool:
        return self.sim.now >= self.expires_at

    @property
    def remaining(self) -> float:
        return max(0.0, self.expires_at - self.sim.now)


class HaDistributorPair:
    """A primary distributor with a hot backup."""

    def __init__(self, sim: Simulator,
                 primary: Frontend,
                 backup: Frontend,
                 heartbeat_interval: float = 0.25,
                 misses_to_fail: int = 3,
                 retry_attempts: int = 4,
                 retry_backoff: float = 0.1,
                 retry_budget: Optional[RetryBudget] = None,
                 on_failover: Optional[
                     Callable[["HaDistributorPair"], None]] = None,
                 lease: Optional[DistributorLease] = None,
                 recover_state: Optional[Callable[[], None]] = None):
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if misses_to_fail < 1:
            raise ValueError("misses_to_fail must be >= 1")
        if retry_attempts < 0:
            raise ValueError("retry_attempts must be >= 0")
        if retry_attempts and retry_backoff <= 0:
            raise ValueError("retry_backoff must be positive")
        self.sim = sim
        self.primary = primary
        self.backup = backup
        self.heartbeat_interval = heartbeat_interval
        self.misses_to_fail = misses_to_fail
        self.retry_attempts = retry_attempts
        self.retry_backoff = retry_backoff
        #: optional cap on retry volume (repro.core.overload): when the
        #: budget is exhausted, outage-window waits fail fast instead of
        #: piling a retry storm on top of the takeover
        self.retry_budget = retry_budget
        self.budget_denied = 0
        self.on_failover = on_failover
        #: lease-based promotion (None = classic missed-heartbeat rule,
        #: byte-identical to the original behaviour)
        self.lease = lease
        #: hook run at takeover, *before* the backup starts serving:
        #: restores the backup's tables from recovered (WAL) state so the
        #: standby takes over from durable truth, not from scratch
        self.recover_state = recover_state
        self.lease_waits = 0
        #: the simulator's repro.obs tracer; heartbeat/takeover activity
        #: becomes "ha" points
        self.tracer = sim.tracer
        self.active = primary
        self.failed_over = False
        self.failover_at: Optional[float] = None
        self.heartbeats = 0
        self.state_syncs = 0
        self.retries = 0
        self._monitor = sim.process(self._monitor_loop(), name="ha-monitor")

    def stop(self) -> None:
        """Stop the monitor loop (end of experiment)."""
        if self._monitor.is_alive:
            self._monitor.interrupt("stopped")

    # -- the backup's monitor state ---------------------------------------
    def _monitor_loop(self) -> Generator:
        missed = 0
        while not self.failed_over:
            yield self.sim.timeout(self.heartbeat_interval)
            self.heartbeats += 1
            if self.primary.alive:
                missed = 0
                if self.lease is not None:
                    self.lease.renew()
                if self.tracer is not None:
                    self.tracer.point("ha", "heartbeat",
                                      node=self.primary.name)
                self._replicate_state()
            else:
                missed += 1
                if self.tracer is not None:
                    self.tracer.point("ha", "heartbeat-miss",
                                      node=self.primary.name, missed=missed)
                if missed >= self.misses_to_fail:
                    if self.lease is not None and not self.lease.expired:
                        # the primary's claim on the role is still live:
                        # promoting now would risk two authorities
                        self.lease_waits += 1
                        if self.tracer is not None:
                            self.tracer.point(
                                "ha", "lease-wait",
                                node=self.primary.name,
                                remaining=self.lease.remaining)
                        continue
                    self._take_over()

    def _replicate_state(self) -> None:
        """Copy primary state to the backup (URL table, version-gated)."""
        if (isinstance(self.primary, ContentAwareDistributor) and
                isinstance(self.backup, ContentAwareDistributor)):
            if self.backup.url_table.sync_from(self.primary.url_table):
                self.state_syncs += 1

    def _take_over(self) -> None:
        self.failed_over = True
        self.failover_at = self.sim.now
        if self.recover_state is not None:
            # rebuild the backup's routing state from durable truth
            # before it serves a single request
            self.recover_state()
        self.backup.recover()
        self.active = self.backup
        reason = ("missed-heartbeats" if self.lease is None
                  else "lease-expired")
        if self.tracer is not None:
            self.tracer.point("ha", "takeover", node=self.backup.name,
                              failed=self.primary.name,
                              reason=reason)
        if self.on_failover is not None:
            self.on_failover(self)

    # -- client-facing API ---------------------------------------------------
    def submit(self, request: HttpRequest, client_nic: Nic) -> Generator:
        """Route a request to whichever distributor is active.

        During the outage window (primary dead, backup not yet promoted)
        the request waits with bounded exponential backoff -- up to
        ``retry_attempts`` sleeps starting at ``retry_backoff`` seconds and
        doubling -- which outlasts the detection window at the default
        settings, so clients ride out a failover without seeing an error.
        Raises :class:`FrontendDown` once the budget is exhausted.
        """
        if self.retry_budget is not None:
            self.retry_budget.on_request()
        delay = self.retry_backoff
        attempts = 0
        while not self.active.alive:
            if attempts >= self.retry_attempts:
                raise FrontendDown(
                    f"active distributor {self.active.name} is down")
            if (self.retry_budget is not None and
                    not self.retry_budget.try_spend()):
                self.budget_denied += 1
                if self.tracer is not None:
                    self.tracer.point("ha", "budget-denied",
                                      node=self.active.name,
                                      reason="retry-budget-exhausted")
                raise FrontendDown(
                    f"active distributor {self.active.name} is down "
                    f"(retry budget exhausted)")
            attempts += 1
            self.retries += 1
            if self.tracer is not None:
                self.tracer.point("ha", "outage-retry",
                                  node=self.active.name, attempt=attempts,
                                  backoff=delay)
            yield self.sim.timeout(delay)
            delay *= 2
        return (yield from self.active.submit(request, client_nic))

    @property
    def outage_duration(self) -> Optional[float]:
        """Length of the window with no active distributor, if known.

        Meaningful only after a failover; measured from the crash (the
        primary stops answering) to the backup's promotion.
        """
        if self.failover_at is None:
            return None
        return self.misses_to_fail * self.heartbeat_interval
