"""Traffic sources: processes that emit (time, bytes) demands.

Each source runs as a simcore process and calls an ``emit(bytes)``
callback — typically wired to a transport connection's
``send_app_data`` or a cell backlog. Rates and shapes follow the
workloads the paper's rural deployment actually carries (§5: "data only,
with voice and messaging provided via OTT services"): messaging bursts,
web sessions, and adaptive video.

:class:`FlashCrowdAttachSource` stresses the *control* plane instead of
the data plane: it models a stadium letting out (every UE storms the
attach procedure inside one short window — E17's workload). It draws
only from the sim's named RNG streams, so a storm is reproducible from
``(seed, topology)`` and identical across architecture arms.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

import numpy as np

from repro.simcore.simulator import Simulator

Emit = Callable[[int], None]


class _Source:
    """Shared lifecycle: start/stop a generator process."""

    def __init__(self, sim: Simulator, emit: Emit, name: str) -> None:
        self.sim = sim
        self.emit = emit
        self.name = name
        self.bytes_emitted = 0
        self.bursts_emitted = 0
        self._process = None

    def start(self) -> None:
        """Begin emitting."""
        if self._process is not None and self._process.is_alive:
            raise RuntimeError(f"{self.name} already running")
        self._process = self.sim.process(self._run(), name=self.name)

    def stop(self) -> None:
        """Stop emitting (idempotent)."""
        if self._process is not None and self._process.is_alive:
            self._process.kill("source stopped")

    def _emit(self, n_bytes: int) -> None:
        self.bytes_emitted += n_bytes
        self.bursts_emitted += 1
        self.emit(n_bytes)

    def _run(self):
        raise NotImplementedError
        yield  # pragma: no cover


class CbrSource(_Source):
    """Constant bit rate: ``packet_bytes`` every ``interval_s``."""

    def __init__(self, sim: Simulator, emit: Emit, rate_bps: float,
                 packet_bytes: int = 1200, name: str = "cbr") -> None:
        super().__init__(sim, emit, name)
        if rate_bps <= 0 or packet_bytes <= 0:
            raise ValueError("rate and packet size must be positive")
        self.packet_bytes = packet_bytes
        self.interval_s = packet_bytes * 8.0 / rate_bps

    def _run(self):
        while True:
            yield self.sim.timeout(self.interval_s)
            self._emit(self.packet_bytes)


class WebSessionSource(_Source):
    """Page views: a burst of objects, then a think time."""

    def __init__(self, sim: Simulator, emit: Emit,
                 mean_page_bytes: int = 1_500_000,
                 mean_think_s: float = 15.0, name: str = "web") -> None:
        super().__init__(sim, emit, name)
        if mean_page_bytes <= 0 or mean_think_s <= 0:
            raise ValueError("page size and think time must be positive")
        self.mean_page_bytes = mean_page_bytes
        self.mean_think_s = mean_think_s

    def _run(self):
        rng = self.sim.rng(f"traffic:{self.name}")
        while True:
            # lognormal page sizes (heavy tail), mean ~ mean_page_bytes
            page = int(rng.lognormal(mean=np.log(self.mean_page_bytes) - 0.5,
                                     sigma=1.0))
            self._emit(max(page, 1000))
            yield self.sim.timeout(float(rng.exponential(self.mean_think_s)))


class FlashCrowdAttachSource(_Source):
    """A flash crowd: every UE wants the network within ``window_s``.

    Drives each UE's *supervised* attach (``start_attach_with_retry``),
    so rejected or timed-out attempts back off and retry per the UE's
    own policy — the generator only decides *when demand appears*.
    Offsets are drawn uniformly from the source's own named RNG stream
    and assigned to UEs in (sorted-offset, given-UE) order, so the same
    seed produces the same storm against any architecture under test.
    """

    def __init__(self, sim: Simulator, ues: Iterable, window_s: float = 1.0,
                 name: str = "flash-crowd",
                 retry_kwargs: Optional[dict] = None) -> None:
        super().__init__(sim, self._no_bytes, name)
        if window_s <= 0:
            raise ValueError("storm window must be positive")
        self.ues = list(ues)
        self.retry_kwargs = dict(retry_kwargs or {})
        self.window_s = window_s
        self.attaches_started = 0
        #: sim time each UE's demand appeared (time-to-attach baseline)
        self.demand_at: Dict[str, float] = {}

    @staticmethod
    def _no_bytes(n_bytes: int) -> None:
        """A storm moves procedures, not payload bytes."""

    def _kick(self, ue) -> None:
        self.attaches_started += 1
        self.demand_at[ue.ue_id] = self.sim.now
        ue.start_attach_with_retry(**self.retry_kwargs)

    def _run(self):
        rng = self.sim.rng(f"traffic:{self.name}")
        offsets = sorted(float(rng.uniform(0.0, self.window_s))
                         for _ in self.ues)
        start = self.sim.now
        for ue, offset in zip(self.ues, offsets):
            delay = start + offset - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            self._kick(ue)


class VideoStreamSource(_Source):
    """Segmented streaming: one segment every ``segment_s`` at the bitrate."""

    def __init__(self, sim: Simulator, emit: Emit, bitrate_bps: float = 1.5e6,
                 segment_s: float = 4.0, name: str = "video") -> None:
        super().__init__(sim, emit, name)
        if bitrate_bps <= 0 or segment_s <= 0:
            raise ValueError("bitrate and segment length must be positive")
        self.bitrate_bps = bitrate_bps
        self.segment_s = segment_s

    def _run(self):
        segment_bytes = int(self.bitrate_bps * self.segment_s / 8)
        while True:
            self._emit(segment_bytes)
            yield self.sim.timeout(self.segment_s)


class DiurnalCurve:
    """Deterministic time-of-day load multiplier (Elnashar's busy hour).

    A raised cosine over ``period_s``: 1.0 at the peak (``peak_at`` into
    the period), ``trough`` at the opposite phase. Pure arithmetic on
    the sim clock — no RNG, no events — so two sources modulated by the
    same curve stay phase-locked and a run stays reproducible.

    For experiments that cannot afford a 24 h horizon, compress the
    period: a 60 s period sweeps trough -> peak -> trough inside one
    E18 cell, which is the shape (not the wall-clock) the SLA tables
    need.
    """

    def __init__(self, period_s: float = 86_400.0, trough: float = 0.2,
                 peak_at: float = 0.0) -> None:
        if period_s <= 0:
            raise ValueError("period must be positive")
        if not 0.0 < trough <= 1.0:
            raise ValueError("trough must be in (0, 1]")
        self.period_s = period_s
        self.trough = trough
        self.peak_at = peak_at

    def factor(self, now: float) -> float:
        """Load multiplier in [trough, 1.0] at sim time ``now``."""
        phase = 2.0 * np.pi * ((now - self.peak_at) / self.period_s)
        mid = (1.0 + self.trough) / 2.0
        amp = (1.0 - self.trough) / 2.0
        return mid + amp * float(np.cos(phase))


class ParetoFlowSource(_Source):
    """Heavy-tailed flow arrivals: Poisson starts, Pareto sizes.

    The defining property of measured Internet traffic (and the reason
    drop-tail queues collapse in E18): most flows are mice, a rare few
    are elephants carrying most of the bytes. ``alpha`` close to 1
    makes the tail heavier; sizes are capped at ``max_bytes`` so a
    single draw cannot exceed an experiment's horizon.

    An optional :class:`DiurnalCurve` modulates the *arrival rate*
    (thinning: an arrival survives with probability ``factor(now)``),
    so offered load follows the time-of-day shape while per-flow sizes
    keep their distribution.
    """

    def __init__(self, sim: Simulator, emit: Emit, rate_per_s: float,
                 mean_bytes: int = 200_000, alpha: float = 1.3,
                 max_bytes: int = 50_000_000,
                 diurnal: Optional[DiurnalCurve] = None,
                 name: str = "pareto") -> None:
        super().__init__(sim, emit, name)
        if rate_per_s <= 0 or mean_bytes <= 0:
            raise ValueError("rate and mean size must be positive")
        if alpha <= 1.0:
            raise ValueError("alpha must exceed 1 (finite mean)")
        if max_bytes < mean_bytes:
            raise ValueError("max_bytes must be >= mean_bytes")
        self.rate_per_s = rate_per_s
        self.alpha = alpha
        #: Pareto scale chosen so E[size] = mean_bytes: x_m = m (a-1)/a
        self.scale_bytes = mean_bytes * (alpha - 1.0) / alpha
        self.max_bytes = max_bytes
        self.diurnal = diurnal
        self.flows_started = 0
        self.arrivals_thinned = 0

    def _run(self):
        rng = self.sim.rng(f"traffic:{self.name}")
        while True:
            yield self.sim.timeout(
                float(rng.exponential(1.0 / self.rate_per_s)))
            if self.diurnal is not None:
                if float(rng.random()) >= self.diurnal.factor(self.sim.now):
                    self.arrivals_thinned += 1
                    continue
            # numpy's pareto() is the Lomax form; add 1 for classic Pareto
            size = int(self.scale_bytes * (1.0 + float(
                rng.pareto(self.alpha))))
            self.flows_started += 1
            self._emit(min(max(size, 1), self.max_bytes))


class VoipSource(_Source):
    """Talk-spurt VoIP: small CBR frames while talking, silence between.

    The GBR workload for QoS policing: tiny packets (a G.711-ish 20 ms
    frame), strict latency sensitivity, negligible aggregate rate — the
    class a policer must keep flowing while bulk flows shed.
    """

    def __init__(self, sim: Simulator, emit: Emit, frame_bytes: int = 200,
                 frame_interval_s: float = 0.02, mean_talk_s: float = 3.0,
                 mean_silence_s: float = 3.0, name: str = "voip") -> None:
        super().__init__(sim, emit, name)
        if min(frame_bytes, frame_interval_s,
               mean_talk_s, mean_silence_s) <= 0:
            raise ValueError("frame and spurt parameters must be positive")
        self.frame_bytes = frame_bytes
        self.frame_interval_s = frame_interval_s
        self.mean_talk_s = mean_talk_s
        self.mean_silence_s = mean_silence_s

    def _run(self):
        rng = self.sim.rng(f"traffic:{self.name}")
        while True:
            talk_until = self.sim.now + float(
                rng.exponential(self.mean_talk_s))
            while self.sim.now < talk_until:
                self._emit(self.frame_bytes)
                yield self.sim.timeout(self.frame_interval_s)
            yield self.sim.timeout(
                float(rng.exponential(self.mean_silence_s)))


#: E18's mixed application profiles: constructor + kwargs per app class,
#: keyed by the QoS class name the SLA tables report under. ``web``
#: rides ParetoFlowSource (heavy-tailed page fetches), ``video`` emits
#: steady segments, ``voip`` talk-spurts.
APP_PROFILES = {
    "web": (ParetoFlowSource, {"rate_per_s": 0.5, "mean_bytes": 120_000,
                               "alpha": 1.3}),
    "video": (VideoStreamSource, {"bitrate_bps": 1.0e6, "segment_s": 4.0}),
    "voip": (VoipSource, {}),
}


def make_app_source(app: str, sim: Simulator, emit: Emit, name: str,
                    **overrides) -> _Source:
    """Instantiate one of :data:`APP_PROFILES` (``web``/``video``/``voip``).

    ``overrides`` land on top of the profile's defaults, so an
    experiment can scale a profile (e.g. ``rate_per_s``) per load cell
    without redefining it.
    """
    try:
        cls, defaults = APP_PROFILES[app]
    except KeyError:
        raise ValueError(f"unknown app profile {app!r} "
                         f"(have {sorted(APP_PROFILES)})") from None
    kwargs = {**defaults, **overrides}
    return cls(sim, emit, name=name, **kwargs)
