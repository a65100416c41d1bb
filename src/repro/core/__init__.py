"""The architectures: dLTE and the three baselines it is compared against.

Table 1 of the paper divides the wireless design space along two axes —
open vs closed core, licensed vs unlicensed radio — and places dLTE in
the previously empty open-core/licensed-radio quadrant:

=================  ===================  =====================
(axis)             Open core            Closed core
=================  ===================  =====================
Unlicensed radio   legacy WiFi / mesh   enterprise WiFi,
                                        private LTE (MulteFire)
Licensed radio     **dLTE**             telecom LTE, 5G
=================  ===================  =====================

Each architecture here is a buildable network whose capability flags
regenerate that table (T1), and whose behaviour drives every other
experiment:

* :class:`DLTENetwork` — APs with local core stubs, an open spectrum
  registry, X2-over-Internet peering, endpoint mobility.
* :class:`CentralizedLTENetwork` — carrier LTE: one EPC, GTP tunnels,
  MME-managed mobility, closed HSS.
* :class:`WiFiNetwork` — legacy independent APs: CSMA, no coordination,
  open joining.
* :class:`PrivateLTENetwork` — LTE-in-a-box: local EPC but closed core
  (APs must attach through it; outsiders cannot join).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "capabilities": ("ArchitectureCapabilities", "design_space_table"),
    "access_point": ("DLTEAccessPoint",),
    "network": (
        "CentralizedLTENetwork", "DLTENetwork", "PrivateLTENetwork",
        "WiFiNetwork"),
    "report": ("NetworkReport",),
})
