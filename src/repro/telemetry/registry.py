"""The metrics registry: named, labelled counters, gauges, histograms.

Every component that wants to be observable asks its registry for an
instrument once (at construction, so the hot path is an attribute access
plus an integer add) and then records into it unconditionally. Recording
is *passive*: no instrument ever draws randomness, schedules events, or
touches the simulated clock, so instrumented and uninstrumented runs are
bit-identical — the registry can stay enabled in benchmarks.

Naming convention (see OBSERVABILITY.md): dotted lowercase paths,
hierarchical by subsystem — ``net.link.dropped``, ``mac.csma.collisions``,
``epc.attach.completed`` — with instance identity carried in *labels*
(``link="air:ue3"``, ``cell="ap0-cell"``), so a ``site3.mac.harq.retx``
style question is one name read with a label filter.

Histograms keep fixed buckets (cumulative, Prometheus-style ``le``
bounds) always on and derive quantiles from them when read; only the
quantiles an instrument declares get a streaming P² tracker (Jain &
Chlamtac, 1985), so nothing is paid per sample for a number no one reads.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from functools import reduce
from itertools import chain
from types import SimpleNamespace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "P2Quantile", "DEFAULT_BUCKETS", "linear_buckets"]

#: Default histogram bucket upper bounds: half-decade geometric ladder
#: wide enough for both latencies in seconds and counts/sizes.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1,
    1.0, 3.0, 10.0, 30.0, 100.0, 1e3, 1e4, 1e6, float("inf"))


def linear_buckets(lo: float, hi: float, n: int) -> Tuple[float, ...]:
    """``n`` equal-width buckets over ``[lo, hi]`` (bounds ``lo``..``hi``):
    the ladder for dB, fraction and small-integer instruments, whose
    samples would all share one or two rungs of :data:`DEFAULT_BUCKETS`."""
    return tuple(lo + (hi - lo) * i / n for i in range(n + 1))


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    # nearly every instrument carries zero or one label; skip the
    # generator + sort machinery for those (a sort of one item is a
    # no-op, so the result is identical)
    if len(labels) <= 1:
        return tuple((k, str(v)) for k, v in labels.items())
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared identity: a dotted name plus a frozen label set."""

    __slots__ = ("name", "labels")
    kind = "instrument"

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels

    @property
    def full_name(self) -> str:
        """``name{k=v,...}`` rendering used by exporters and tables."""
        if not self.labels:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.labels.items()))
        return f"{self.name}{{{inner}}}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.full_name}>"


class Counter(_Instrument):
    """A monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def row(self) -> Dict[str, Any]:
        """Snapshot row for exporters."""
        return {"kind": self.kind, "name": self.name, "labels": self.labels,
                "value": self.value}


class Gauge(_Instrument):
    """A value that goes up and down; remembers its extremes."""

    __slots__ = ("value", "min", "max", "updates")
    kind = "gauge"

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        super().__init__(name, labels)
        self.value = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.updates = 0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.updates += 1

    def add(self, delta: float) -> None:
        """Shift the current level by ``delta``."""
        self.set(self.value + delta)

    def row(self) -> Dict[str, Any]:
        """Snapshot row for exporters."""
        return {"kind": self.kind, "name": self.name, "labels": self.labels,
                "value": self.value,
                "min": self.min if self.updates else 0.0,
                "max": self.max if self.updates else 0.0}


class P2Quantile:
    """Streaming quantile estimate via the P² algorithm.

    Tracks one quantile ``q`` with five markers and parabolic marker
    adjustment — no sample storage, fully deterministic in the order of
    observations. Exact for the first five samples.

    The marker state lives in scalar slots (``_h0``..``_h4`` heights,
    ``_n1``..``_n4`` positions, ``_d1``..``_d3`` desired positions)
    rather than lists: ``observe`` runs once per declared quantile per
    sample (E17/E18's SLA histograms), and straight-line float code over
    slots beats list indexing by ~2x while computing operation-for-operation
    the same arithmetic as the textbook loops (marker 0's position is
    pinned at 1.0 and desired positions 0/4 are never read, so neither
    is stored). ``_warmup`` collects the first five samples, then the
    markers take over.
    """

    __slots__ = ("q", "n", "_warmup",
                 "_h0", "_h1", "_h2", "_h3", "_h4",
                 "_n1", "_n2", "_n3", "_n4",
                 "_d1", "_d2", "_d3", "_i1", "_i2", "_i3")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.q = q
        self.n = 0
        self._warmup: Optional[List[float]] = []
        self._h0 = self._h1 = self._h2 = self._h3 = self._h4 = 0.0
        self._n1, self._n2, self._n3, self._n4 = 2.0, 3.0, 4.0, 5.0
        self._d1 = 1.0 + 2.0 * q
        self._d2 = 1.0 + 4.0 * q
        self._d3 = 3.0 + 2.0 * q
        self._i1 = q / 2.0
        self._i2 = q
        self._i3 = (1.0 + q) / 2.0

    def observe(self, x: float) -> None:
        """Feed one sample."""
        self.n += 1
        warmup = self._warmup
        if warmup is not None:
            warmup.append(x)
            warmup.sort()
            if len(warmup) == 5:
                (self._h0, self._h1, self._h2,
                 self._h3, self._h4) = warmup
                self._warmup = None
            return
        # locate the cell containing x, clamping the extremes
        h0 = self._h0
        h1 = self._h1
        h2 = self._h2
        h3 = self._h3
        h4 = self._h4
        if x < h0:
            self._h0 = h0 = x
            k = 0
        elif x >= h4:
            self._h4 = h4 = x
            k = 3
        elif x < h1:
            k = 0
        elif x < h2:
            k = 1
        elif x < h3:
            k = 2
        else:
            k = 3
        # markers above the cell shift right (marker 0 never moves)
        n1 = self._n1
        n2 = self._n2
        n3 = self._n3
        if k == 0:
            n1 += 1.0
            n2 += 1.0
            n3 += 1.0
        elif k == 1:
            n2 += 1.0
            n3 += 1.0
        elif k == 2:
            n3 += 1.0
        n4 = self._n4 + 1.0
        self._n4 = n4
        d1 = self._d1 = self._d1 + self._i1
        d2 = self._d2 = self._d2 + self._i2
        d3 = self._d3 = self._d3 + self._i3
        # adjust interior markers toward their desired positions: the
        # parabolic formula with a linear fallback, evaluated with the
        # exact operation order of Jain & Chlamtac. The three blocks
        # run sequentially — marker 2 sees marker 1's updated state.
        d = d1 - n1
        if (d >= 1.0 and n2 - n1 > 1.0) or (d <= -1.0 and 1.0 - n1 < -1.0):
            step = 1.0 if d >= 1.0 else -1.0
            candidate = h1 + step / (n2 - 1.0) * (
                (n1 - 1.0 + step) * (h2 - h1) / (n2 - n1)
                + (n2 - n1 - step) * (h1 - h0) / (n1 - 1.0))
            if h0 < candidate < h2:
                h1 = candidate
            elif step == 1.0:
                h1 = h1 + step * (h2 - h1) / (n2 - n1)
            else:
                h1 = h1 + step * (h0 - h1) / (1.0 - n1)
            self._h1 = h1
            n1 += step
        d = d2 - n2
        if (d >= 1.0 and n3 - n2 > 1.0) or (d <= -1.0 and n1 - n2 < -1.0):
            step = 1.0 if d >= 1.0 else -1.0
            candidate = h2 + step / (n3 - n1) * (
                (n2 - n1 + step) * (h3 - h2) / (n3 - n2)
                + (n3 - n2 - step) * (h2 - h1) / (n2 - n1))
            if h1 < candidate < h3:
                h2 = candidate
            elif step == 1.0:
                h2 = h2 + step * (h3 - h2) / (n3 - n2)
            else:
                h2 = h2 + step * (h1 - h2) / (n1 - n2)
            self._h2 = h2
            n2 += step
        d = d3 - n3
        if (d >= 1.0 and n4 - n3 > 1.0) or (d <= -1.0 and n2 - n3 < -1.0):
            step = 1.0 if d >= 1.0 else -1.0
            candidate = h3 + step / (n4 - n2) * (
                (n3 - n2 + step) * (h4 - h3) / (n4 - n3)
                + (n4 - n3 - step) * (h3 - h2) / (n3 - n2))
            if h2 < candidate < h4:
                h3 = candidate
            elif step == 1.0:
                h3 = h3 + step * (h4 - h3) / (n4 - n3)
            else:
                h3 = h3 + step * (h2 - h3) / (n2 - n3)
            self._h3 = h3
            n3 += step
        self._n1 = n1
        self._n2 = n2
        self._n3 = n3

    @property
    def estimate(self) -> float:
        """Current quantile estimate (nan before any sample)."""
        warmup = self._warmup
        if warmup is not None:
            if not warmup:
                return float("nan")
            # exact small-sample quantile (nearest-rank interpolation)
            idx = self.q * (len(warmup) - 1)
            lo = int(idx)
            hi = min(lo + 1, len(warmup) - 1)
            frac = idx - lo
            return warmup[lo] * (1 - frac) + warmup[hi] * frac
        return self._h2


class Histogram(_Instrument):
    """Fixed cumulative buckets; P² trackers only for declared readers.

    Always-on state is ``count``/``sum``/``min``/``max`` plus one
    counter per bucket — an ``observe`` is a few adds and a bisect, and
    memory is O(buckets). A :class:`P2Quantile` tracker exists only for
    each quantile named in ``quantiles=`` (an instrument whose reader
    needs a tight tail estimate, e.g. an SLA p99.9); those are fed
    eagerly. Any other quantile is derived when read, by interpolating
    inside the cumulative buckets — accurate to one bucket width, so an
    instrument whose values are not positive log-scale quantities
    should pass its own ``buckets=`` ladder (see :func:`linear_buckets`).
    """

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "min", "max",
                 "_quantiles", "_bucket_arr")
    kind = "histogram"

    def __init__(self, name: str, labels: Dict[str, str],
                 buckets: Optional[Sequence[float]] = None,
                 quantiles: Optional[Sequence[float]] = None) -> None:
        super().__init__(name, labels)
        bounds = tuple(buckets) if buckets else DEFAULT_BUCKETS
        if any(lo >= hi for lo, hi in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name}: buckets must be strictly increasing")
        if bounds[-1] != float("inf"):
            bounds = bounds + (float("inf"),)
        self.buckets = bounds
        self.bucket_counts = [0] * len(bounds)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._quantiles = tuple(P2Quantile(q) for q in quantiles or ())
        self._bucket_arr: Optional[np.ndarray] = None

    def bin(self, values: Sequence[float]
            ) -> Tuple[List[float], float, float, List[Tuple[int, int]]]:
        """Everything about a batch that does not depend on what was
        observed before it: ``(values, min, max, [(bucket, count), ...])``
        with only the non-empty buckets listed.

        A caller whose batch repeats (a static cell's SINR column) bins
        it once and feeds :meth:`observe_binned` per repetition. Bucket
        placement vectorizes through ``np.searchsorted`` (identical
        index semantics to ``bisect_left``).
        """
        arr = np.asarray(values, dtype=float)
        vals = arr.tolist()
        if not vals:
            return vals, 0.0, 0.0, []
        if self._bucket_arr is None:
            self._bucket_arr = np.array(self.buckets)
        counts = np.bincount(np.searchsorted(self._bucket_arr, arr,
                                             side="left"))
        filled = counts.nonzero()[0]
        return (vals, min(vals), max(vals),
                list(zip(filled.tolist(), counts[filled].tolist())))

    def observe_binned(self, binned: Tuple[List[float], float, float,
                                            List[Tuple[int, int]]]) -> None:
        """Record a batch :meth:`bin` prepared, bit-identically to
        calling :meth:`observe` per element in order; O(non-empty
        buckets) apart from the sum.

        The running sum is a sequential left fold (same additions in
        the same order as the scalar path; not ``sum()``, which
        compensates float sums from CPython 3.12 on).
        """
        vals, lo, hi, filled = binned
        if not vals:
            return
        self.count += len(vals)
        self.sum = reduce(operator.add, vals, self.sum)
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi
        bucket_counts = self.bucket_counts
        for bucket, count in filled:
            bucket_counts[bucket] += count
        for tracker in self._quantiles:
            for value in vals:
                tracker.observe(value)

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # first bound with value <= bound, by binary search — the index
        # bisect_left returns is exactly the one the linear scan found
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        for tracker in self._quantiles:
            tracker.observe(value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (nan when empty)."""
        return self.sum / self.count if self.count else float("nan")

    def _bucket_quantile(self, q: float) -> float:
        """Interpolate ``q`` inside the cumulative buckets.

        Finds the bucket holding the ``q * count``-th sample and assumes
        its samples are spread evenly between its edges, with the edges
        pulled in to the observed ``[min, max]`` (which also gives the
        open-ended first and ``+inf`` buckets a finite edge). The result
        is within that bucket's width of the true quantile and exact
        when all samples are equal.
        """
        rank = q * self.count
        below = 0
        lo = self.min
        for bound, in_bucket in zip(self.buckets, self.bucket_counts):
            if in_bucket and below + in_bucket >= rank:
                hi = min(bound, self.max)
                return lo + (hi - lo) * (rank - below) / in_bucket
            below += in_bucket
            lo = max(bound, self.min)
        return self.max

    def quantile(self, q: float) -> float:
        """Estimate of quantile ``q`` (nan when empty): the P² tracker's
        if ``q`` was declared at creation, else derived from the buckets
        and kept between the declared estimates on either side of it."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return float("nan")
        floor, ceiling = self.min, self.max
        for tracker in self._quantiles:
            if tracker.q == q:
                return tracker.estimate
            if tracker.q < q:
                floor = max(floor, tracker.estimate)
            else:
                ceiling = min(ceiling, tracker.estimate)
        return max(floor, min(self._bucket_quantile(q), ceiling))

    def row(self) -> Dict[str, Any]:
        """Snapshot row for exporters."""
        empty = self.count == 0
        return {"kind": self.kind, "name": self.name, "labels": self.labels,
                "count": self.count, "sum": self.sum,
                "min": 0.0 if empty else self.min,
                "max": 0.0 if empty else self.max,
                "mean": 0.0 if empty else self.mean,
                "p50": 0.0 if empty else self.quantile(0.5),
                "p95": 0.0 if empty else self.quantile(0.95),
                "p99": 0.0 if empty else self.quantile(0.99)}


class MetricsRegistry:
    """Get-or-create instrument store, keyed by (name, labels).

    Asking twice for the same (name, labels) returns the same object;
    asking for an existing name with a different *kind* raises, which
    catches name collisions between subsystems early.

    A count its owner already keeps as a plain attribute is not stored a
    second time: the owner declares it with :meth:`mirror` and every
    *read* of the registry first brings the mirrored counters up to date
    from the attributes. Until somebody reads, such a counter is one
    list entry. A level the owner can state when asked (a queue's depth
    and its high-water mark) is mirrored the same way, as a gauge.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                                _Instrument] = {}
        #: mirror() declarations no read has looked at yet: owner,
        #: declared fields, then the labels as k1, v1, k2, v2, ...
        self._pending: List[Tuple[Any, ...]] = []
        #: (instrument, owner, attribute) per declared attribute, in
        #: declaration order; several owners may feed one instrument
        #: (two links sharing a name)
        self._mirrors: List[Tuple[_Instrument, Any, str]] = []
        #: the instruments :meth:`_sync` owns, by key — read, never
        #: ``inc``ed or ``set``
        self._mirrored: Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                             _Instrument] = {}

    def _get(self, cls, name: str, labels: Dict[str, Any], **kwargs):
        if not name:
            raise ValueError("instrument name must be non-empty")
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, dict(key[1]), **kwargs)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"{name} already registered as {instrument.kind}, "
                f"not {cls.kind}")
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get or create a counter."""
        if self._mirrored and (name, _label_key(labels)) in self._mirrored:
            raise TypeError(f"{name} mirrors an attribute of its owner: "
                            f"it is read, not incremented")
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get or create a gauge."""
        if self._mirrored and (name, _label_key(labels)) in self._mirrored:
            raise TypeError(f"{name} mirrors a level of its owner: "
                            f"it is read, not set")
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None,
                  quantiles: Optional[Sequence[float]] = None,
                  **labels: Any) -> Histogram:
        """Get or create a histogram (``buckets``/``quantiles`` only
        apply on create)."""
        return self._get(Histogram, name, labels, buckets=buckets,
                         quantiles=quantiles)

    # -- mirrored counters and gauges ----------------------------------------

    def mirror(self, owner: Any, counters: Sequence[Tuple],
               **labels: Any) -> None:
        """Export ``owner``'s plain count attributes as counters.

        ``counters`` is a class-level constant of ``(attribute, exported
        name, extra labels)`` triples; ``labels`` identify the owner.
        Costs one list append here and nothing per event: the counters
        are created, and set to ``getattr(owner, attribute)``, when the
        registry is next read. Owners declaring the same name and labels
        sum into one counter, as a shared get-or-create counter did. The
        registry keeps the owner alive, so its rows outlive its use.

        A ``(attribute, exported name, extra labels, Gauge)`` entry
        exports a gauge instead. ``getattr(owner, attribute)`` is its
        reading: ``(value, min, max)``, or None while the owner has no
        level to report. Owners declaring one gauge fold in declaration
        order: the value is the last-declared owner's reading that is
        not None, min and max are taken over every reading.
        """
        # the labels wait as (k1, v1, ...): a dict would hold ~130 B more
        # per owner until the first read, and most owners are never read
        self._pending.append((owner, counters,
                              *chain.from_iterable(labels.items())))

    def _bind(self, owner: Any, counters: Sequence[Tuple],
              *flat_labels: Any) -> None:
        """Create (or join) the instruments one :meth:`mirror` call
        declared, all of them or — on a clash with an ``inc``ed or
        ``set`` instrument — none."""
        labels = dict(zip(flat_labels[::2], flat_labels[1::2]))
        mirrored = self._mirrored
        instruments = self._instruments
        keys = [(declared[1], _label_key({**labels, **declared[2]}))
                for declared in counters]
        for key in keys:
            if key in instruments and key not in mirrored:
                raise TypeError(
                    f"{key[0]} mirrors an attribute of {owner!r} but is "
                    f"already registered as an incremented "
                    f"{instruments[key].kind}")
        for declared, key in zip(counters, keys):
            instrument = mirrored.get(key)
            if instrument is None:
                kind = declared[3] if len(declared) == 4 else Counter
                instrument = kind(declared[1], dict(key[1]))
                mirrored[key] = instruments[key] = instrument
            self._mirrors.append((instrument, owner, declared[0]))

    def _sync(self) -> None:
        """Bring every mirrored instrument up to date (each reader's
        first step; free for a registry nothing is mirrored into)."""
        pending = self._pending
        bound = 0
        try:
            for declaration in pending:
                self._bind(*declaration)
                bound += 1
        finally:
            # a clashing declaration stays: every read raises, none
            # silently exports without it
            del pending[:bound]
        if self._mirrored:
            for instrument in self._mirrored.values():
                instrument.value = 0.0
                if type(instrument) is Gauge:
                    instrument.min = float("inf")
                    instrument.max = float("-inf")
                    instrument.updates = 0
            for instrument, owner, attribute in self._mirrors:
                reading = getattr(owner, attribute)
                if type(instrument) is Counter:
                    instrument.value += reading
                elif reading is not None:
                    instrument.value, low, high = reading
                    if low < instrument.min:
                        instrument.min = low
                    if high > instrument.max:
                        instrument.max = high
                    instrument.updates += 1

    def __getstate__(self) -> Dict[str, Any]:
        # a shipped registry (a worker's, under --jobs) is a
        # reading: materialised counters, never the owners behind them
        self._sync()
        return {"_instruments": self._instruments,
                "_pending": [], "_mirrors": [], "_mirrored": {}}

    def detach(self) -> None:
        """Let go of every owner, keeping what a read would export: each
        owner becomes a snapshot of the attributes it declared, read in
        :meth:`_sync`'s order, so the instruments are still created only
        if somebody reads."""
        read: Dict[int, Dict[str, Any]] = {}
        for _instrument, owner, attribute in self._mirrors:
            read.setdefault(id(owner), {})[attribute] = \
                getattr(owner, attribute)
        for owner, counters, *_labels in self._pending:
            values = read.setdefault(id(owner), {})
            for declared in counters:
                values[declared[0]] = getattr(owner, declared[0])
        snapshots = {key: SimpleNamespace(**values)
                     for key, values in read.items()}
        self._pending = [(snapshots[id(owner)], *rest)
                         for owner, *rest in self._pending]
        self._mirrors = [(instrument, snapshots[id(owner)], attribute)
                         for instrument, owner, attribute in self._mirrors]

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        self._sync()
        return len(self._instruments)

    def __iter__(self) -> Iterable[_Instrument]:
        self._sync()
        return iter(sorted(self._instruments.values(),
                           key=lambda i: (i.name, sorted(i.labels.items()))))

    def value(self, name: str, **labels: Any) -> float:
        """Counter/gauge value for an exact (name, labels); 0 if absent."""
        self._sync()
        instrument = self._instruments.get((name, _label_key(labels)))
        return instrument.value if instrument is not None else 0.0

    def total(self, name: str) -> float:
        """Sum of a counter family's values across all label sets."""
        return sum(i.value for i in self
                   if i.name == name and isinstance(i, Counter))

    def subsystems(self) -> List[str]:
        """Distinct first name components with at least one instrument."""
        return sorted({i.name.split(".", 1)[0] for i in self})

    def snapshot(self) -> List[Dict[str, Any]]:
        """All instruments as exporter rows, deterministically ordered."""
        return [i.row() for i in self]

    def clear(self) -> None:
        """Forget every instrument and every mirror (tests only; cached
        refs go stale)."""
        self._instruments.clear()
        self._pending.clear()
        self._mirrors.clear()
        self._mirrored.clear()
