"""Deterministic fault injection: named fault scenarios on a schedule.

The resilience claims of §4.3/§7 ("nobody goes dark", "redundancy … in
emergencies") are about what happens *when things break*: a backhaul
fiber is cut and spliced, an AP's power flaps, the one centralized EPC
falls over, the spectrum registry is unreachable. The
:class:`FaultInjector` turns those into first-class, schedulable events
on the existing :class:`~repro.simcore.simulator.Simulator` clock.

Every injection is *named* and *logged* (``injector.log``) and traced
(``sim.trace("fault", ...)``), and no fault draws a random number — so
a whole fault campaign is reproducible from ``(seed, schedule)`` alone.

Fault kinds:

* :meth:`FaultInjector.link_flap` — periodic down/up cycles of a
  :class:`~repro.net.links.Link`;
* :meth:`FaultInjector.outage` — generic fail/restore pair: a node's
  ``crash``/``restart`` (a :class:`DLTEAccessPoint`, a
  :class:`LocalCoreStub`), a centralized EPC site, any custom
  subsystem;
* :meth:`FaultInjector.registry_outage` — spectrum registry
  unavailability via the registry's own ``fail()``/``restore()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.net.links import Link
from repro.simcore.simulator import Simulator


@dataclass(frozen=True)
class FaultRecord:
    """One executed fault action, for audit and assertions."""

    time_s: float
    name: str
    action: str

    def __str__(self) -> str:
        return f"[{self.time_s:10.3f}] {self.name}: {self.action}"


class FaultInjector:
    """Schedules named faults against simulation components.

    All methods take *absolute* simulated times (``at_s``), may be called
    before or during a run, and return immediately — the actions execute
    on the simulator clock. The injector never draws randomness, keeping
    campaigns deterministic.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.log: List[FaultRecord] = []
        self.faults_injected = 0
        self._names = set()
        # active injector-driven cuts per link: overlapping cut windows
        # must not heal a link that another cut still holds down
        self._link_cuts: dict = {}
        self._m_fired = sim.metrics.counter("faults.activations")

    # -- bookkeeping -------------------------------------------------------

    def _fire(self, name: str, action: str, fn: Callable, *args) -> None:
        self.faults_injected += 1
        self._m_fired.inc()
        self.log.append(FaultRecord(time_s=self.sim.now, name=name,
                                    action=action))
        self.sim.trace("fault", f"{name}: {action}")
        self.sim.telemetry.spans.event("fault.activation", fault=name,
                                       action=action)
        fn(*args)

    def _at(self, at_s: float, name: str, action: str,
            fn: Callable, *args) -> None:
        self.sim.at(at_s, self._fire, name, action, fn, *args)

    def _unique(self, name: Optional[str], default: str) -> str:
        base = name or default
        candidate, k = base, 1
        while candidate in self._names:
            k += 1
            candidate = f"{base}#{k}"
        self._names.add(candidate)
        return candidate

    # -- link faults -------------------------------------------------------
    #
    # Cuts are reference-counted per link: when two injected windows
    # overlap (a flap during a longer cut, two cuts on one fiber), the
    # link only comes back up when the *last* cut heals — an early heal
    # must not mask a fault that is still supposed to be active.

    def _cut(self, link: Link) -> None:
        count = self._link_cuts.get(id(link), 0)
        self._link_cuts[id(link)] = count + 1
        if count == 0:
            link.set_up(False)

    def _heal(self, link: Link) -> None:
        count = self._link_cuts.get(id(link), 0) - 1
        if count <= 0:
            self._link_cuts.pop(id(link), None)
            link.set_up(True)
        else:
            self._link_cuts[id(link)] = count

    def link_flap(self, link: Link, at_s: float, down_s: float, up_s: float,
                  cycles: int, name: Optional[str] = None) -> str:
        """Flap ``link``: ``cycles`` x (down ``down_s``, up ``up_s``)."""
        if down_s <= 0 or up_s <= 0:
            raise ValueError("flap phases must be positive")
        if cycles < 1:
            raise ValueError("need at least one flap cycle")
        fault = self._unique(name, f"link-flap:{link.name}")
        t = at_s
        for _ in range(cycles):
            self._at(t, fault, "down", self._cut, link)
            self._at(t + down_s, fault, "up", self._heal, link)
            t += down_s + up_s
        return fault

    # -- control-plane faults ----------------------------------------------

    def outage(self, fail: Callable[[], None], restore: Callable[[], None],
               at_s: float, duration_s: float,
               name: Optional[str] = None) -> str:
        """Generic outage: ``fail()`` at ``at_s``, ``restore()`` after."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        fault = self._unique(name, "outage")
        self._at(at_s, fault, "fail", fail)
        self._at(at_s + duration_s, fault, "restore", restore)
        return fault

    def registry_outage(self, registry, at_s: float, duration_s: float,
                        name: Optional[str] = None) -> str:
        """Take a spectrum registry offline for ``duration_s``."""
        return self.outage(registry.fail, registry.restore, at_s, duration_s,
                           name=name or f"registry-outage:"
                                        f"{type(registry).__name__}")

    # -- inspection --------------------------------------------------------

    def dump(self) -> str:
        """Human-readable log of every executed fault action."""
        return "\n".join(str(record) for record in self.log)

    def __repr__(self) -> str:
        return (f"<FaultInjector scheduled={len(self._names)} "
                f"fired={self.faults_injected}>")
