"""Runtime invariant checker: conservation laws audited mid-run.

Chaos runs are only trustworthy if the simulation stays *internally
consistent* while being broken on purpose — a fault campaign that
silently leaks packets or teleports the clock proves nothing about
resilience. :class:`InvariantChecker` registers conservation checks
against live components and sweeps them periodically on the simulated
clock (plus once at the end via :meth:`verify`). Inside
:func:`repro.invariants.armed` every new simulator carries one
(``sim.checker``) and each class that has a law registers itself in its
constructor:

* **packet conservation** (:meth:`watch_link`): at any instant
  ``offered == delivered + dropped + in_flight`` in packets and in
  *bytes* on every link, with ``in_flight`` read off the link's queue
  and flight (a packet popped and never counted is a leak); every drop
  is attributed to a cause (``overflow + down + loss + aqm ==
  dropped``); marking instead of dropping must not leak a byte;
  reading the link admits its due deferred offers, so none may remain;
* **router hand-off** (:meth:`watch_router`): ``forwarded`` equals the
  offers its links admitted plus those still pending;
* **NAT accounting** (:meth:`watch_nat`): bindings only exist for
  flows that translated outbound;
* **tunnel conservation** (:meth:`watch_tunnel`): across all watched
  endpoints, no packet is decapsulated that was never encapsulated;
* **event-clock monotonicity** (:meth:`watch_clock`): ``sim.now`` never
  runs backwards and nothing is queued in the past;
* **spectrum-grant sanity and non-overlap** (see
  :func:`repro.invariants.network.watch_federation`);
* **NAS attach-state legality** (:meth:`watch_ue`): a UE can only
  become ATTACHED from ATTACHING — checked on every transition via the
  UE's state observer hook, not by sampling.

Passivity: checks read counters, draw no randomness, and schedule only
their own sweep process, so an instrumented run's tables are
byte-identical to an uninstrumented one; with no checker armed the
simulation pays nothing (the hooks are dormant attribute tests off the
per-event path).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, List

from repro.epc.ue import UeState
from repro.invariants.network import watch_federation
from repro.simcore.simulator import Simulator
from repro.telemetry import flightrec

__all__ = ["InvariantChecker", "InvariantError", "InvariantViolation"]


@dataclass(frozen=True)
class InvariantViolation:
    """One observed breach: which law, on what, and how it failed."""

    time_s: float
    check: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return (f"[{self.time_s:10.3f}] {self.check} on {self.subject}: "
                f"{self.detail}")


class InvariantError(AssertionError):
    """Raised by :meth:`InvariantChecker.verify` when any law broke."""

    def __init__(self, violations: List[InvariantViolation]) -> None:
        self.violations = list(violations)
        lines = [f"{len(violations)} invariant violation(s):"]
        lines.extend(str(violation) for violation in violations[:20])
        if len(violations) > 20:
            lines.append(f"... and {len(violations) - 20} more")
        super().__init__("\n".join(lines))


class InvariantChecker:
    """Registers conservation checks and sweeps them on the sim clock.

    Each check is a callable returning a list of violation detail
    strings (empty = law holds). Violations are recorded (``.violations``),
    counted in the simulator's metrics (``invariants.violations``),
    and traced (``sim.trace("invariant", ...)``); they never mutate
    simulation state, so an armed checker changes no tables.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.violations: List[InvariantViolation] = []
        self.checks_run = 0
        self._checks: List[tuple] = []  # (name, subject, fn)
        self._sweeping = False
        #: every endpoint of the aggregate GTP law (see watch_tunnel)
        self._tunnel_endpoints: List[Any] = []
        # lazily created so a clean checker leaves metrics untouched
        self._m_violations = None

    # -- registration ------------------------------------------------------

    def register(self, name: str, subject: str,
                 fn: Callable[[], List[str]]) -> None:
        """Add a check; ``fn()`` returns violation details (empty = ok)."""
        self._checks.append((name, subject, fn))

    def watch_link(self, link: Any) -> None:
        """Audit a :class:`~repro.net.links.Link`'s conservation law."""

        def check() -> List[str]:
            problems = []
            causes = (link.dropped_overflow + link.dropped_down
                      + link.dropped_loss + link.dropped_aqm)
            if causes != link.dropped:
                problems.append(
                    f"unattributed drops: {link.dropped} total != "
                    f"{causes} by cause (overflow={link.dropped_overflow} "
                    f"down={link.dropped_down} loss={link.dropped_loss} "
                    f"aqm={link.dropped_aqm})")
            accounted = link.delivered + link.dropped + link.in_flight
            if accounted != link.offered:
                problems.append(
                    f"packet leak: offered={link.offered} != "
                    f"delivered={link.delivered} + dropped={link.dropped} "
                    f"+ in_flight={link.in_flight}")
            if link.in_flight < 0:
                problems.append(f"negative in_flight: {link.in_flight}")
            depth = link.queue_depth  # a touch: admits every due offer
            if depth > link.queue_packets:
                problems.append(
                    f"queue over capacity: {depth} > {link.queue_packets}")
            if link._offers and link._offers[0][0] <= self.sim.now:
                problems.append(
                    f"offer due at {link._offers[0][0]} still pending "
                    f"after a touch")
            in_flight_b = link.in_flight_bytes
            accounted_b = (link.delivered_bytes + link.dropped_bytes
                           + in_flight_b)
            if accounted_b != link.offered_bytes:
                problems.append(
                    f"byte leak: offered={link.offered_bytes} != "
                    f"delivered={link.delivered_bytes} + "
                    f"dropped={link.dropped_bytes} + "
                    f"in_flight={in_flight_b}")
            if in_flight_b < 0:
                problems.append(f"negative in_flight_bytes: {in_flight_b}")
            if (link.queue_bytes is not None
                    and link._egress_bytes > link.queue_bytes):
                problems.append(
                    f"queue over byte capacity: {link._egress_bytes} > "
                    f"{link.queue_bytes}")
            if link.marked_ecn < 0 or link.dropped_aqm < 0:
                problems.append("negative AQM counter")
            return problems

        self.register("link-conservation", link.name, check)

    def watch_router(self, router: Any) -> None:
        """Audit a :class:`~repro.net.nodes.Router`'s hand-off to its
        links: every forwarded packet is an offer a link has admitted
        or still holds. Links are remembered once seen, so one popped
        from ``router.links`` keeps counting."""
        seen: dict = {}

        def check() -> List[str]:
            for link in router.links.values():
                seen[id(link)] = link
            admitted = sum(link.offers_admitted for link in seen.values())
            pending = sum(len(link._offers) for link in seen.values())
            if router.forwarded != admitted + pending:
                return [f"offer leak: forwarded={router.forwarded} != "
                        f"admitted={admitted} + pending={pending}"]
            return []

        self.register("router-offers", router.name, check)

    def watch_agent(self, agent: Any) -> None:
        """Audit a :class:`~repro.epc.agents.ControlAgent`'s message
        conservation: every offer is served, shed (with a cause), or
        still in flight — overload protection may drop, never leak."""

        def check() -> List[str]:
            problems = []
            by_cause = sum(agent.shed_by_cause.values())
            if by_cause != agent.shed:
                problems.append(
                    f"unattributed sheds: {agent.shed} total != "
                    f"{by_cause} by cause ({dict(agent.shed_by_cause)})")
            in_flight = agent.in_flight
            accounted = agent.processed + agent.shed + in_flight
            if accounted != agent.enqueued:
                problems.append(
                    f"message leak: enqueued={agent.enqueued} != "
                    f"served={agent.processed} + shed={agent.shed} "
                    f"+ in_queue={in_flight}")
            if in_flight < 0:
                problems.append(f"negative in_flight: {in_flight}")
            return problems

        self.register("agent-conservation", agent.name, check)

    def watch_nat(self, nat: Any) -> None:
        """Audit a :class:`~repro.net.nat.NatRouter`'s binding accounting."""

        def check() -> List[str]:
            problems = []
            if nat.active_bindings > nat.translated_out:
                problems.append(
                    f"bindings without outbound translations: "
                    f"{nat.active_bindings} bindings > "
                    f"{nat.translated_out} translated out")
            if min(nat.translated_in, nat.translated_out,
                   nat.unsolicited_drops) < 0:
                problems.append("negative NAT counter")
            return problems

        self.register("nat-accounting", nat.name, check)

    def watch_tunnel(self, endpoint: Any, name: str = "") -> None:
        """Include a :class:`TunnelEndpoint` in GTP conservation.

        The law is aggregate — every decapsulation pops a layer some
        watched endpoint pushed — so endpoints register into one shared
        check installed on first use.
        """
        if not self._tunnel_endpoints:
            def check() -> List[str]:
                encapsulated = sum(e.encapsulated
                                   for e in self._tunnel_endpoints)
                decapsulated = sum(e.decapsulated
                                   for e in self._tunnel_endpoints)
                if decapsulated > encapsulated:
                    return [f"decapsulated {decapsulated} packets but only "
                            f"{encapsulated} were ever encapsulated"]
                return []

            self.register("gtp-conservation", "all-endpoints", check)
        self._tunnel_endpoints.append(endpoint)

    def watch_clock(self) -> None:
        """Audit event-clock monotonicity and run-queue discipline."""
        last = {"now": self.sim.now}

        def check() -> List[str]:
            problems = []
            now = self.sim.now
            if now < last["now"]:
                problems.append(
                    f"clock ran backwards: {now} < {last['now']}")
            last["now"] = now
            heap = self.sim._heap
            if heap and heap[0][0] < now:
                problems.append(
                    f"event queued in the past: head at {heap[0][0]} "
                    f"< now {now}")
            return problems

        self.register("clock-monotonicity", "simulator", check)

    def watch_ue(self, ue: Any) -> None:
        """Audit a UE's NAS transitions as they happen (not sampled);
        an observer already in the UE's one slot is called first."""
        earlier = ue._state_observer

        def on_transition(subject, old: UeState, new: UeState) -> None:
            if earlier is not None:
                earlier(subject, old, new)
            if new is UeState.ATTACHED and old not in (UeState.ATTACHING,
                                                       UeState.ATTACHED):
                self._record("nas-legality", subject.name,
                             f"illegal transition {old.value} -> "
                             f"{new.value}: ATTACHED is only reachable "
                             f"from ATTACHING")
            self.checks_run += 1

        ue._state_observer = on_transition

    #: the one law over a *set* of APs: ``watch_federation(aps, registry)``
    watch_federation = watch_federation

    # -- execution ---------------------------------------------------------

    def _record(self, check: str, subject: str, detail: str) -> None:
        violation = InvariantViolation(time_s=self.sim.now, check=check,
                                       subject=subject, detail=detail)
        self.violations.append(violation)
        if self._m_violations is None:
            self._m_violations = self.sim.metrics.counter(
                "invariants.violations")
        self._m_violations.inc()
        self.sim.trace("invariant", f"{check} violated on {subject}",
                       detail=detail)

    def check_now(self) -> List[InvariantViolation]:
        """Run every registered check once; returns new violations."""
        before = len(self.violations)
        for name, subject, fn in self._checks:
            self.checks_run += 1
            for detail in fn():
                self._record(name, subject, detail)
        return self.violations[before:]

    def arm(self, period_s: float = 0.5) -> None:
        """Sweep all checks every ``period_s`` simulated seconds.

        Idempotent while a sweep is live; it schedules only itself,
        draws no randomness and mutates nothing, so armed runs produce
        byte-identical tables. A run with no ``until`` ends when the
        queue drains, so there the sweep stops once it is the only live
        entry left (the clock rests on that instant, at most one period
        past the last real event); ``sim.run()`` re-arms the simulator's
        own checker whenever there is work.
        """
        if period_s <= 0:
            raise ValueError("sweep period must be positive")
        if self._sweeping:
            return
        self._sweeping = True
        sim = self.sim

        def sweep():
            while self._sweeping:
                yield sim.timeout(period_s)
                self.check_now()
                if sim._until is None and sim.live_queue_length == 0:
                    self._sweeping = False

        sim.process(sweep(), name="invariant-sweep")

    def verify(self) -> None:
        """Final audit: run every check, raise if anything ever broke.

        Before raising, the watched simulator's flight recorder is
        dumped — last events, metrics snapshot, high-water marks plus
        the violation list — and the error carries ``postmortem_path``
        so outer handlers (the CLI) don't dump a second time.
        """
        self.check_now()
        if self.violations:
            error = InvariantError(self.violations)
            path = flightrec.write_postmortem(
                "invariant-violation", detail=str(error), sims=[self.sim],
                extra={"violations": [asdict(violation) for violation
                                      in self.violations[:100]]})
            if path:
                error.postmortem_path = path
            raise error

    def __repr__(self) -> str:
        return (f"<InvariantChecker checks={len(self._checks)} "
                f"run={self.checks_run} violations={len(self.violations)}>")
