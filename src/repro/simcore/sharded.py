"""Conservative time-window sharding: N child simulators, one logical clock.

A city-scale run does not fit one event heap: E7 already shows the heap
high-water mark and per-event dispatch cost dominating at a few thousand
UEs, and the paper's scaling claim is about 10^5-10^6 users. The classic
answer (Chandy/Misra/Bryant conservative synchronisation) applies cleanly
here because the topology gives us real lookahead: every path between two
cell sites crosses a backhaul link with non-zero propagation latency.

The decomposition:

* each **shard** is an ordinary :class:`~repro.simcore.simulator.Simulator`
  owning a subset of the cells (radio arenas, eNB relays, local core
  stubs, UEs, fluid background load);
* every cross-shard interaction goes through a **boundary proxy**
  (:mod:`repro.net.shardlink`) that buffers egress instead of scheduling
  into the remote heap;
* the façade advances all shards in lockstep windows of length
  ``L = min(latency of all cross-shard couplings)`` and exchanges the
  buffered records at each barrier.

Why this is safe: a message sent during window ``[T, T+L)`` was sent at
``t >= T`` and crosses a coupling with latency ``>= L``, so it is due at
``t + L >= T + L`` — never inside a window that has already run. Each
window is *exclusive* of its right edge (events at exactly ``T+L`` run in
the next window), which makes the union of windows identical to one
monolithic run of the same event set.

Determinism: all shards share the root seed, and named RNG streams hash
the stream *name* into the seed derivation, so a component draws the same
sequence no matter which shard hosts it. Cross-shard records are injected
sorted by ``(deliver_at, sent_at, src_shard, seq)``; with one shard the
proxies short-circuit to plain in-heap scheduling, so ``shards=1`` *is*
the monolithic run.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runner.shardpool import ShardWorkerPool
from repro.runner.worker import in_worker
from repro.simcore.simulator import Simulator
from repro.telemetry.hub import HUB

__all__ = [
    "ShardBoundary",
    "ShardHost",
    "ShardedSimulator",
    "ZeroLookaheadError",
]

# A cross-shard record: (deliver_at, sent_at, src_shard, seq, dst_shard,
# endpoint_key, payload). The first four fields are the deterministic
# injection sort key; ``payload`` is whatever the endpoint pair agreed on.
Record = Tuple[float, float, int, int, int, str, Any]

_INJECT_KEY = lambda r: (r[0], r[1], r[2], r[3])  # noqa: E731


class ZeroLookaheadError(ValueError):
    """A cross-shard coupling has zero (or negative) latency.

    Conservative windows need ``lookahead > 0``: with a zero-latency
    coupling a message sent at time ``t`` is due at ``t`` in another
    shard, so no window of positive length is safe to run. Either give
    the link/channel a real propagation delay or co-locate both ends in
    one shard (co-located couplings are exempt — they schedule directly
    into the local heap and never constrain the window).
    """


class ShardBoundary:
    """One shard's face to the rest of the federation.

    Proxies register their ingress **endpoints** here (keyed by a
    globally unique string), declare their outgoing **couplings** (name,
    destination shard, latency — the inputs to the lookahead
    computation), and **buffer** egress records. The façade drains the
    buffer at each window barrier and injects the records into the
    destination shard's boundary.

    When the destination of a record is this same shard (``shards=1``,
    or a proxy pair that happens to be co-located), :meth:`buffer`
    short-circuits to a plain ``sim.post_at`` so the event lands in the
    local heap exactly as a non-proxy component would have scheduled it.
    """

    __slots__ = ("sim", "shard_index", "n_shards", "endpoints", "couplings",
                 "sent", "received", "_outbox", "_seq")

    def __init__(self, sim: Simulator, shard_index: int, n_shards: int) -> None:
        if not 0 <= shard_index < n_shards:
            raise ValueError(f"shard index {shard_index} outside 0..{n_shards - 1}")
        self.sim = sim
        self.shard_index = shard_index
        self.n_shards = n_shards
        self.endpoints: Dict[str, Any] = {}
        self.couplings: List[Tuple[str, int, float]] = []
        self.sent = 0
        self.received = 0
        self._outbox: List[Record] = []
        self._seq = 0

    def register(self, key: str, endpoint: Any) -> None:
        """Register an ingress endpoint (must expose ``_deliver_remote``)."""
        if key in self.endpoints:
            raise ValueError(f"duplicate boundary endpoint key {key!r}")
        self.endpoints[key] = endpoint

    def couple(self, name: str, dst_shard: int, latency_s: float) -> None:
        """Declare an outgoing cross-shard coupling for lookahead purposes.

        Co-located couplings (``dst_shard == shard_index``) are ignored:
        they never leave the local heap and must not shrink the window.
        """
        if not 0 <= dst_shard < self.n_shards:
            raise ValueError(f"destination shard {dst_shard} outside 0..{self.n_shards - 1}")
        if dst_shard != self.shard_index:
            self.couplings.append((name, dst_shard, float(latency_s)))

    def buffer(self, key: str, dst_shard: int, deliver_at: float,
               sent_at: float, payload: Any) -> None:
        """Hand a payload to the boundary for delivery in ``dst_shard``."""
        if dst_shard == self.shard_index:
            endpoint = self.endpoints[key]
            self.sim.post_at(deliver_at, endpoint._deliver_remote, payload, sent_at)
            return
        self._seq += 1
        self.sent += 1
        self._outbox.append(
            (deliver_at, sent_at, self.shard_index, self._seq, dst_shard, key, payload))

    def drain(self) -> List[Record]:
        """Take (and clear) everything buffered since the last drain."""
        records, self._outbox = self._outbox, []
        return records


class ShardHost:
    """A built shard: the child simulator, its boundary, and its harvest.

    The builder callable handed to :class:`ShardedSimulator` returns one
    of these per shard spec. ``harvest`` (optional) is called once after
    the horizon is reached and its return value becomes this shard's
    entry in the façade's result list — it runs *inside* the shard's
    process in fork mode, so it should return plain picklable data.
    """

    __slots__ = ("sim", "boundary", "windows", "_harvest")

    def __init__(self, sim: Simulator, boundary: ShardBoundary,
                 harvest: Optional[Callable[["ShardHost"], Any]] = None) -> None:
        if boundary.sim is not sim:
            raise ValueError("boundary belongs to a different simulator")
        self.sim = sim
        self.boundary = boundary
        self.windows = 0
        self._harvest = harvest

    def inject(self, records: Sequence[Record]) -> None:
        """Schedule cross-shard records into the local heap.

        Every record must be due at or after the local clock; an earlier
        deadline means some coupling declared more lookahead than the
        latency it actually applies, which would silently reorder
        history — fail loudly instead.
        """
        sim = self.sim
        endpoints = self.boundary.endpoints
        now = sim.now
        for deliver_at, sent_at, src_shard, _seq, _dst, key, payload in records:
            if deliver_at < now:
                raise RuntimeError(
                    f"shard {self.boundary.shard_index}: record from shard "
                    f"{src_shard} for {key!r} due at {deliver_at:.9f} is in the "
                    f"past (now={now:.9f}); a coupling overstated its lookahead")
            sim.post_at(deliver_at, endpoints[key]._deliver_remote, payload, sent_at)
        self.boundary.received += len(records)

    def advance(self, until: float, final: bool) -> None:
        """Run the local heap through one window ending at ``until``.

        Non-final windows are half-open ``[prev, until)``: events at
        exactly ``until`` belong to the next window (they may race with
        cross-shard arrivals due at ``until``). The final window is
        inclusive so the run ends having executed everything up to and
        including the horizon.
        """
        if final:
            self.sim.run(until=until)
        else:
            self.sim.run(until=math.nextafter(until, -math.inf))
            self.sim.now = until
        self.windows += 1

    def harvest(self) -> Any:
        return self._harvest(self) if self._harvest is not None else None

    def stats(self) -> Dict[str, Any]:
        sim = self.sim
        return {
            "shard": self.boundary.shard_index,
            "events": sim.events_executed,
            "heap_hwm": sim.heap_high_water,
            "windows": self.windows,
            "sent": self.boundary.sent,
            "received": self.boundary.received,
        }


class _SerialShards:
    """In-process drive: shards advance round-robin inside one process."""

    def __init__(self, builder: Callable[[Any], ShardHost], specs: Sequence[Any]) -> None:
        self.hosts = [builder(spec) for spec in specs]
        for index, host in enumerate(self.hosts):
            if host.boundary.shard_index != index:
                raise ValueError(
                    f"builder returned shard {host.boundary.shard_index} for spec {index}")

    def couplings(self) -> List[List[Tuple[str, int, float]]]:
        return [list(host.boundary.couplings) for host in self.hosts]

    def start_time(self) -> float:
        return max(host.sim.now for host in self.hosts)

    def step(self, until: float, final: bool,
             injections: Sequence[Sequence[Record]],
             ) -> Tuple[List[List[Record]], List[float]]:
        egress: List[List[Record]] = []
        exec_s: List[float] = []
        for host, records in zip(self.hosts, injections):
            t0 = time.perf_counter()
            host.inject(records)
            host.advance(until, final)
            exec_s.append(time.perf_counter() - t0)
            egress.append(host.boundary.drain())
        return egress, exec_s

    def harvest(self) -> Tuple[List[Any], List[Dict[str, Any]]]:
        return ([host.harvest() for host in self.hosts],
                [host.stats() for host in self.hosts])

    def close(self) -> None:  # symmetric with the fork driver
        pass


class ShardedSimulator:
    """Façade that runs one scenario as N lockstep child simulators.

    Parameters:
        builder: picklable callable ``spec -> ShardHost``. In fork mode
            it runs inside each worker process, so it must be a
            module-level function and the specs must be picklable.
        specs: one spec per shard, in shard-index order. The builder
            must return a host whose boundary carries the matching
            shard index.
        mode: ``"serial"`` (all shards in-process, round-robin) or
            ``"fork"`` (one forked worker per shard, window barriers
            over pipes). Results are identical; fork buys wall-clock
            on multi-core boxes. Inside an existing worker process the
            façade silently degrades to serial.
        window_s: override the window length; must not exceed the
            computed lookahead. Mostly for tests.
        label: stamped into each per-shard stats dict (telemetry).
    """

    def __init__(self, builder: Callable[[Any], ShardHost], specs: Sequence[Any],
                 mode: str = "serial", window_s: Optional[float] = None,
                 label: str = "") -> None:
        if not specs:
            raise ValueError("need at least one shard spec")
        if mode not in ("serial", "fork"):
            raise ValueError(f"unknown shard drive mode {mode!r}")
        self._builder = builder
        self._specs = list(specs)
        self._mode = mode
        self._window_s = window_s
        self._label = label
        self.windows = 0
        self.lookahead_s: Optional[float] = None
        self.undelivered: List[Record] = []
        self.stats: List[Dict[str, Any]] = []

    @property
    def n_shards(self) -> int:
        return len(self._specs)

    @staticmethod
    def _lookahead(couplings: Sequence[Sequence[Tuple[str, int, float]]],
                   ) -> Optional[float]:
        """Min latency over all cross-shard couplings; None when there are none."""
        lookahead: Optional[float] = None
        for per_shard in couplings:
            for name, _dst, latency_s in per_shard:
                if latency_s <= 0.0:
                    raise ZeroLookaheadError(
                        f"cross-shard coupling {name!r} has latency "
                        f"{latency_s!r} s; conservative sharding needs every "
                        f"cross-shard link latency > 0 (see DESIGN.md)")
                if lookahead is None or latency_s < lookahead:
                    lookahead = latency_s
        return lookahead

    def run(self, until: float) -> List[Any]:
        """Advance every shard to ``until`` and return per-shard harvests."""
        n = self.n_shards
        if self._mode == "fork" and n > 1 and not in_worker():
            driver: Any = ShardWorkerPool(self._builder, self._specs)
        else:
            driver = _SerialShards(self._builder, self._specs)
        try:
            return self._drive(driver, until)
        finally:
            driver.close()

    def _drive(self, driver: Any, until: float) -> List[Any]:
        n = self.n_shards
        lookahead = self._lookahead(driver.couplings())
        self.lookahead_s = lookahead
        window = self._window_s
        if window is not None:
            if window <= 0.0:
                raise ValueError("window_s must be > 0")
            if lookahead is not None and window > lookahead:
                raise ValueError(
                    f"window_s={window!r} exceeds lookahead {lookahead!r}")
        else:
            window = lookahead  # None => no cross couplings => one window

        t = driver.start_time()
        horizon = float(until)
        if horizon < t:
            raise ValueError(f"horizon {horizon} is before shard clocks ({t})")
        pending: List[List[Record]] = [[] for _ in range(n)]
        exec_s = [0.0] * n
        barrier_wait_s = [0.0] * n
        self.windows = 0
        self.undelivered = []

        while True:
            if t < horizon:
                nxt = horizon if window is None else min(horizon, t + window)
            elif any(pending):
                # Horizon reached but cross-shard records are still due at
                # or before it (sent during the final window). Keep
                # exchanging at the horizon until the federation is quiet;
                # each round-trip adds >= lookahead of *future* time, so
                # anything re-emitted lands beyond the horizon and the
                # loop terminates.
                nxt = horizon
            else:
                break
            final = nxt >= horizon
            injections = pending
            pending = [[] for _ in range(n)]
            for records in injections:
                records.sort(key=_INJECT_KEY)
            egress, step_exec = driver.step(nxt, final, injections)
            self.windows += 1
            slowest = max(step_exec) if step_exec else 0.0
            for index, spent in enumerate(step_exec):
                exec_s[index] += spent
                barrier_wait_s[index] += slowest - spent
            for shard_records in egress:
                for record in shard_records:
                    if record[0] <= horizon:
                        pending[record[4]].append(record)
                    else:
                        # Due after the horizon: the monolithic run would
                        # leave this delivery queued and unexecuted too.
                        self.undelivered.append(record)
            t = nxt

        results, stats = driver.harvest()
        for index, entry in enumerate(stats):
            entry["exec_s"] = exec_s[index]
            entry["barrier_wait_s"] = barrier_wait_s[index]
            entry["windows_driven"] = self.windows
            if self._label:
                entry["label"] = self._label
        self.stats = stats
        HUB.note_shards(stats)
        return results
