"""Integration: DLTENetwork runs on any registry paradigm (§4.3).

"The dLTE architecture does not require a particular license paradigm,
as long as the registry is open and accurately reports which access
points operate in each region." — so the same federation must come up,
peer, and serve users whether the registry is a SAS, a federation, or a
blockchain.
"""

import pytest

from repro.core import DLTENetwork
from repro.spectrum import BlockchainRegistry, FederatedRegistry, SasRegistry
from repro.workloads import RuralTown

TOWN = RuralTown(radius_m=1500, n_ues=6, n_aps=2, seed=3)


def _build_with(registry_factory):
    # the network builder owns the Simulator, so thread the factory in
    net = DLTENetwork.build(TOWN, seed=3)
    # rebuild with the chosen registry on the same sim
    registry = registry_factory(net.sim)
    net.spectrum_registry = registry
    for ap in net.aps.values():
        ap.spectrum_registry = registry
    return net


@pytest.mark.parametrize("factory,label", [
    (lambda sim: SasRegistry(sim), "sas"),
    (lambda sim: FederatedRegistry(sim), "federated"),
    (lambda sim: BlockchainRegistry(sim, block_interval_s=0.5,
                                    confirmations=1,
                                    propagation_s=0.05), "blockchain"),
])
def test_federation_comes_up_on_any_registry(factory, label):
    net = _build_with(factory)
    report = net.run(duration_s=8.0)
    # licenses granted
    assert all(ap.grant is not None for ap in net.aps.values())
    # peers discovered and the grid split
    assert report.extras["x2_peers_total"] == 2
    slices = [ap.cell.allowed_prbs for ap in net.aps.values()]
    assert not (slices[0] & slices[1])
    # users served
    assert report.attach_failures == 0
    assert len(report.rtt_s) == 6


def test_registry_choice_changes_only_setup_time():
    """Same steady state, different join latency — the E10 trade-off
    seen from inside the architecture."""
    results = {}
    for label, factory in (
            ("sas", lambda sim: SasRegistry(sim)),
            ("blockchain", lambda sim: BlockchainRegistry(
                sim, block_interval_s=0.5, confirmations=1,
                propagation_s=0.05))):
        net = _build_with(factory)
        report = net.run(duration_s=8.0)
        results[label] = report
    # identical service once up
    assert (results["sas"].mean_rtt_s
            == pytest.approx(results["blockchain"].mean_rtt_s, rel=0.05))
    assert results["sas"].attach_failures == 0
    assert results["blockchain"].attach_failures == 0
