"""The radio cell: one eNodeB's PHY/MAC face.

Combines a band, a resource grid, a scheduler, and a link budget into
per-TTI throughput evaluation for attached UEs. The coordination layer
(§4.3) manipulates the grid's reservations; the cell schedules inside
whatever slice it currently owns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from repro.geo.points import Point
from repro.mac.arena import UeArena
from repro.mac.schedulers import LteScheduler, ProportionalFairScheduler
from repro.mac.uplink import ContiguousUplinkScheduler
from repro.phy.bands import Band
from repro.phy.linkbudget import LinkBudget, Radio
from repro.phy.resource_grid import ResourceGrid
from repro.telemetry import MetricsRegistry
from repro.telemetry.hub import ambient_registry
from repro.telemetry.registry import linear_buckets


@dataclass(frozen=True)
class UeRadioContext:
    """Cell-side radio state for one attached UE.

    Every UE is full-buffer, and its demand (GBR, priority) is fixed at
    attach: the context is frozen, so a write raises. A UE whose demand
    changes is detached and attached again with a fresh context. Its
    radio still moves: while attached, each serving cell's arena watches
    the radio, so a write to it reaches that UE's arena row. One context
    may be attached to several cells; each of them hears.
    """

    ue_id: str
    radio: Radio
    gbr_bps: float = 0.0
    priority: int = 9


#: Linear bucket ladders for the cell's histograms: dB values (often
#: negative), a [0, 1] fraction and a PRB count would all land in one
#: or two of the registry's log-scale default buckets, and exported
#: quantiles are only as fine as the bucket that holds them. The dB
#: spans are what the unclipped link budget yields from cell edge to a
#: UE a few metres from an interference-free small cell.
_RSRP_DBM_BUCKETS = linear_buckets(-140.0, 20.0, 32)  # 5 dB
_SINR_DB_BUCKETS = linear_buckets(-20.0, 120.0, 70)  # 2 dB
_FRACTION_BUCKETS = linear_buckets(0.0, 1.0, 20)
_PRB_BUCKETS = linear_buckets(0.0, 100.0, 100)  # one per PRB at 20 MHz


class Cell:
    """One sector of an eNodeB.

    Per-TTI scheduling runs over the cell's UE arena (see
    :mod:`repro.mac.arena`), which mirrors ``_ues`` slot for slot.
    """

    def __init__(self, name: str, band: Band, position: Point,
                 link_budget: LinkBudget,
                 tx_power_dbm: float = 43.0,
                 antenna_gain_dbi: float = 15.0,
                 height_m: float = 30.0,
                 scheduler: Optional[LteScheduler] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.name = name
        self.band = band
        self.radio = Radio(position=position, tx_power_dbm=tx_power_dbm,
                           antenna_gain_dbi=antenna_gain_dbi,
                           height_m=height_m, noise_figure_db=5.0)
        self.link_budget = link_budget
        self.grid = ResourceGrid(band.bandwidth_hz)
        self.scheduler = scheduler or ProportionalFairScheduler()
        #: PUSCH side: SC-FDMA requires contiguous per-UE blocks
        self.uplink_scheduler = ContiguousUplinkScheduler()
        self._ues: Dict[str, UeRadioContext] = {}
        self._arena = UeArena(self)
        #: PRBs this cell may use this TTI (set by coordination; default all)
        self.allowed_prbs: FrozenSet[int] = self.grid.all_prbs
        #: Interfering cells currently transmitting on overlapping PRBs.
        self.interferers: List["Cell"] = []
        # A Cell has no simulator of its own (it is driven by explicit
        # TTI calls), so it records into the ambient registry unless
        # handed one. Instruments cached; recording is passive.
        if metrics is None:
            metrics = ambient_registry()
        self._m_rsrp = metrics.histogram("phy.rsrp_dbm", cell=name,
                                         buckets=_RSRP_DBM_BUCKETS)
        self._m_sinr = metrics.histogram("phy.sinr_db", cell=name,
                                         buckets=_SINR_DB_BUCKETS)
        #: the downlink SINR column as ``_m_sinr.bin`` left it, and the
        #: bank version it was taken at
        self._sinr_binned = None
        self._sinr_version = -1
        self._m_harq = metrics.histogram("phy.harq.goodput_factor", cell=name,
                                         buckets=_FRACTION_BUCKETS)
        self._m_ttis = metrics.counter("mac.cell.ttis", cell=name)
        self._m_prbs = metrics.histogram("mac.cell.granted_prbs", cell=name,
                                         buckets=_PRB_BUCKETS)
        self._m_attached = metrics.gauge("mac.cell.attached_ues", cell=name)

    @property
    def position(self) -> Point:
        """Cell site location."""
        return self.radio.position

    # -- UE management -----------------------------------------------------------

    def add_ue(self, ctx: UeRadioContext) -> None:
        """Attach a UE's radio context (rejects duplicates)."""
        if ctx.ue_id in self._ues:
            raise ValueError(f"UE {ctx.ue_id} already attached to {self.name}")
        self._ues[ctx.ue_id] = ctx
        self._arena.attach(ctx)
        self._m_attached.set(len(self._ues))
        # RSRP is deterministic in (cell, UE) positions, so observing it
        # here cannot perturb a run.
        self._m_rsrp.observe(self.rsrp_to(ctx.radio))

    def remove_ue(self, ue_id: str) -> None:
        """Detach a UE; its arena row, with its scheduler history in both
        directions, goes with it."""
        if self._ues.pop(ue_id, None) is not None:
            self._arena.detach(ue_id)
            self._m_attached.set(len(self._ues))

    @property
    def attached_ues(self) -> List[str]:
        """Ids of currently attached UEs."""
        return list(self._ues)

    # -- radio evaluation -----------------------------------------------------------

    def rsrp_to(self, ue_radio: Radio) -> float:
        """Reference signal received power (dBm) — the handover metric."""
        return self.link_budget.rx_power_dbm(self.radio, ue_radio)

    # -- per-TTI scheduling ------------------------------------------------------------

    def schedule_tti(self) -> Dict[str, float]:
        """Run one TTI: allocate the allowed PRBs, return bits per UE."""
        self._m_ttis.inc()
        arena = self._arena
        bank = arena.refresh_downlink()
        if arena.ids:
            # an unchanged column is binned once, not every TTI
            if bank.version != self._sinr_version:
                self._sinr_version = bank.version
                self._sinr_binned = self._m_sinr.bin(bank.sinr)
            self._m_sinr.observe_binned(self._sinr_binned)
        grants = self.scheduler.allocate_columns(
            arena.columns(bank, self.scheduler), self.allowed_prbs)
        return self._deliver(bank, grants)

    def _deliver(self, bank, grants: Dict[str, int]) -> Dict[str, float]:
        """Shared grant->bits tail: CQI lookup, HARQ factor, telemetry.

        Goodput per UE = granted PRB count x bits/PRB at its CQI x the
        HARQ delivery factor at its SINR (HARQ is always on, with
        ``repro.phy.harq``'s default of three retransmissions), all read
        from the refreshed bank (counts arrive non-zero from the
        allocator, and only for slots with a CQI row: eligibility
        requires ``eff > 0``). A factor still stale (NaN) since its
        row's refresh is filled here, for every granted row at once, the
        first time one is met.
        """
        delivered: Dict[str, float] = {}
        arena = self._arena
        slot_of = arena.slot_of
        # Python values: no numpy scalar may reach an instrument or the
        # delivered map
        harq = bank.harq.tolist()
        b = bank.b.tolist()
        for ue_id, n_prbs in grants.items():
            s = slot_of[ue_id]
            factor = harq[s]
            if factor != factor:  # NaN: stale since the refresh
                arena.fill_harq(bank, list(map(slot_of.__getitem__, grants)))
                harq = bank.harq.tolist()
                factor = harq[s]
            self._m_harq.observe(factor)
            self._m_prbs.observe(n_prbs)
            delivered[ue_id] = n_prbs * b[s] * factor
        return delivered

    def schedule_uplink_tti(self) -> Dict[str, float]:
        """One PUSCH TTI: contiguous per-UE blocks, bits per UE.

        Uses the uplink link budget (UE transmits, cell receives; the
        SC-FDMA PAPR credit applies via the UE radio's
        ``ul_papr_advantage_db``) and the same HARQ goodput adjustment as
        the downlink.
        """
        # per-UE uplink SINR is not a telemetry series
        self._m_ttis.inc()
        arena = self._arena
        bank = arena.refresh_uplink()
        grants = self.uplink_scheduler.allocate_columns(
            arena.columns(bank, self.uplink_scheduler), self.allowed_prbs)
        return self._deliver(bank, grants)

    def throughput_bps(self, tti_results: List[Dict[str, float]]) -> Dict[str, float]:
        """Aggregate a list of per-TTI results into per-UE bits/s.

        Single-pass: each UE gets one accumulator cell on first sight
        (insertion order preserved), then per-TTI contributions add into
        the preallocated list — no per-TTI ``dict.get`` default churn.
        """
        if not tti_results:
            return {}
        index: Dict[str, int] = {}
        sums: List[float] = []
        for result in tti_results:
            for ue_id, bits in result.items():
                i = index.get(ue_id)
                if i is None:
                    index[ue_id] = len(sums)
                    sums.append(bits)
                else:
                    sums[i] += bits
        duration_s = len(tti_results) * 1e-3
        return {ue_id: sums[i] / duration_s for ue_id, i in index.items()}
