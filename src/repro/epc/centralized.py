"""The centralized carrier EPC, assembled.

One HSS + MME + S-GW + P-GW wired with datacenter-internal channels
(S6a, S11, S5), exposing :meth:`connect_enb` for eNodeBs at the far end
of real backhaul. This is the baseline of Fig. 1's left side and the
"closed core" of Table 1: subscribers must be provisioned in *this*
HSS, and all sessions anchor at *this* P-GW.
"""

from __future__ import annotations

from typing import Dict

from repro.epc.agents import ControlAgent, ControlChannel
from repro.epc.hss import Hss
from repro.epc.mme import Mme, UeContextState
from repro.epc.pgw import Pgw
from repro.epc.sgw import Sgw
from repro.epc.subscriber import SubscriberProfile
from repro.net.addressing import AddressPool
from repro.simcore.simulator import Simulator


class CentralizedEpc:
    """A complete carrier core in one place.

    Args:
        sim: event kernel.
        pool: the carrier's UE address pool (P-GW allocates from it).
        internal_delay_s: one-way latency between core components
            (same-datacenter, default 0.1 ms).
        mme_service_time_s / hss_service_time_s: per-message processing
            costs; these set the core's saturation point in E7.
    """

    def __init__(self, sim: Simulator, pool: AddressPool,
                 name: str = "epc",
                 internal_delay_s: float = 0.1e-3,
                 mme_service_time_s: float = 1e-3,
                 hss_service_time_s: float = 1e-3) -> None:
        self.sim = sim
        self.name = name
        self.hss = Hss(sim, f"{name}-hss", service_time_s=hss_service_time_s)
        self.mme = Mme(sim, f"{name}-mme", service_time_s=mme_service_time_s)
        self.sgw = Sgw(sim, f"{name}-sgw")
        self.pgw = Pgw(sim, pool, f"{name}-pgw")

        s6a = ControlChannel(sim, self.mme, self.hss, internal_delay_s, "s6a")
        self.mme.connect_hss(s6a)
        self.hss.connect_mme(s6a)
        s11 = ControlChannel(sim, self.mme, self.sgw, internal_delay_s, "s11")
        self.mme.connect_sgw(s11)
        self.sgw.connect_mme(s11)
        s5 = ControlChannel(sim, self.sgw, self.pgw, internal_delay_s, "s5")
        self.sgw.connect_pgw(s5)
        self.pgw.connect_sgw(s5)

        self._s1_channels: Dict[str, ControlChannel] = {}

    def provision(self, profile: SubscriberProfile) -> None:
        """Add a subscriber to the carrier's HSS."""
        self.hss.db.provision(profile)

    def connect_enb(self, enb_agent: ControlAgent,
                    backhaul_delay_s: float) -> ControlChannel:
        """Wire an eNodeB's S1 interface over ``backhaul_delay_s`` backhaul.

        Returns the channel; the eNodeB side must also register it.
        """
        channel = ControlChannel(self.sim, enb_agent, self.mme,
                                 backhaul_delay_s,
                                 name=f"s1:{enb_agent.name}")
        self.mme.connect_enb(enb_agent.name, channel)
        self._s1_channels[enb_agent.name] = channel
        return channel

    @property
    def control_bytes_on_backhaul(self) -> int:
        """Total S1 bytes that crossed eNodeB backhaul links."""
        return sum(ch.bytes for ch in self._s1_channels.values())

    @property
    def attached_ues(self) -> int:
        """UEs currently in ATTACHED state at the MME."""
        return sum(1 for ctx in self.mme.contexts.values()
                   if ctx.state is UeContextState.ATTACHED)
