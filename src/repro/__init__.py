"""dLTE reproduction: a distributed, WiFi-like LTE architecture.

This package is a from-scratch, laptop-scale reproduction of

    Johnson, Sevilla, Jang, Heimerl.
    "dLTE: Building a more WiFi-like Cellular Network
    (Instead of the Other Way Around)". HotNets-XVII, 2018.

It contains a discrete-event simulation of the full dLTE architecture
(local EPC stubs, an open spectrum registry, peer-to-peer X2 coordination,
endpoint-managed mobility) together with the baselines the paper compares
against (centralized carrier LTE, legacy independent-AP WiFi, and private
LTE), and an experiment harness that turns every quantified claim in the
paper into a measurable result.

Quickstart::

    from repro import DLTENetwork, RuralTown

    town = RuralTown(radius_m=1500, n_ues=40, seed=1)
    net = DLTENetwork.build(town)
    report = net.run(duration_s=10.0)
    print(report.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "simcore.simulator": ("Simulator",),
    "core.network": (
        "DLTENetwork", "CentralizedLTENetwork", "WiFiNetwork",
        "PrivateLTENetwork"),
    "core.report": ("NetworkReport",),
    "workloads.topology": ("RuralTown",),
})
__all__.append("__version__")
