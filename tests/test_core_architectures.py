"""Integration tests: the four architectures built and run end to end."""

import pytest

from repro.core import (
    CentralizedLTENetwork,
    DLTENetwork,
    PrivateLTENetwork,
    WiFiNetwork,
    design_space_table,
)
from repro.workloads import RuralTown

TOWN = RuralTown(radius_m=1500, n_ues=8, n_aps=2, seed=1)


@pytest.fixture(scope="module")
def dlte_report():
    return DLTENetwork.build(TOWN, seed=1).run()


@pytest.fixture(scope="module")
def carrier_report():
    return CentralizedLTENetwork.build(TOWN, seed=1).run()


@pytest.fixture(scope="module")
def wifi_report():
    return WiFiNetwork.build(TOWN, seed=1).run()


# -- every architecture serves its users ----------------------------------------------

def test_dlte_everyone_attaches(dlte_report):
    assert dlte_report.attach_failures == 0
    assert len(dlte_report.attach_latencies_s) == 8


def test_carrier_everyone_attaches(carrier_report):
    assert carrier_report.attach_failures == 0


def test_wifi_everyone_associates(wifi_report):
    assert wifi_report.attach_failures == 0


def test_all_ues_get_throughput(dlte_report, carrier_report, wifi_report):
    for report in (dlte_report, carrier_report, wifi_report):
        assert len(report.throughput_bps) == 8
        assert all(v > 0 for v in report.throughput_bps.values())


def test_all_pings_answered(dlte_report, carrier_report, wifi_report):
    for report in (dlte_report, carrier_report, wifi_report):
        assert len(report.rtt_s) == 8
        assert all(0 < rtt < 1.0 for rtt in report.rtt_s.values())


# -- the paper's architectural contrasts --------------------------------------------------

def test_dlte_attach_faster_than_carrier(dlte_report, carrier_report):
    """§4.1: collapsing the EPC removes backhaul round trips."""
    assert dlte_report.mean_attach_s < carrier_report.mean_attach_s / 2


def test_dlte_path_shorter_than_carrier(dlte_report, carrier_report):
    """Fig. 1: local breakout vs the EPC triangle."""
    assert dlte_report.mean_rtt_s < carrier_report.mean_rtt_s
    assert (max(dlte_report.hop_counts.values())
            < max(carrier_report.hop_counts.values()))


def test_only_carrier_pays_tunnel_overhead(dlte_report, carrier_report):
    assert dlte_report.tunnel_overhead_bytes == 0
    assert carrier_report.tunnel_overhead_bytes == 36


def test_dlte_and_wifi_share_local_breakout(dlte_report, wifi_report):
    """dLTE's user plane is WiFi-shaped: same hop structure."""
    assert (max(dlte_report.hop_counts.values())
            == max(wifi_report.hop_counts.values()))


def test_dlte_clients_numbered_from_ap_pools():
    net = DLTENetwork.build(TOWN, seed=1)
    net.run()
    for ue_id, host in net.ue_hosts.items():
        assert host.address is not None
        assert any(ap.pool.contains(host.address)
                   for ap in net.aps.values())


def test_dlte_aps_peer_over_x2(dlte_report):
    assert dlte_report.extras["x2_peers_total"] == 2  # both APs paired


def test_dlte_fair_sharing_splits_grid():
    net = DLTENetwork.build(TOWN, seed=1)
    net.run()
    slices = [ap.cell.allowed_prbs for ap in net.aps.values()]
    assert not (slices[0] & slices[1])
    assert len(slices[0]) + len(slices[1]) == 50


def test_dlte_uncoordinated_ablation_interferes():
    net = DLTENetwork.build(TOWN, seed=1, coordination_mode="none")
    report = net.run()
    for ap in net.aps.values():
        assert ap.cell.interferers
    assert report.attach_failures == 0


def test_dlte_cooperative_mode_runs():
    net = DLTENetwork.build(TOWN, seed=1, coordination_mode="cooperative")
    report = net.run()
    assert net.cluster is not None
    assert report.attach_failures == 0
    slices = [ap.cell.allowed_prbs for ap in net.aps.values()]
    assert not (slices[0] & slices[1])


def test_dlte_rejects_unknown_mode():
    with pytest.raises(ValueError):
        DLTENetwork.build(TOWN, coordination_mode="anarchy")


def test_private_lte_faster_than_carrier(carrier_report):
    private = PrivateLTENetwork.build(TOWN, seed=1).run()
    assert private.mean_rtt_s < carrier_report.mean_rtt_s
    assert private.attach_failures == 0


# -- Table 1 ----------------------------------------------------------------------------------

def test_design_space_quadrants():
    caps = [DLTENetwork.CAPABILITIES, CentralizedLTENetwork.CAPABILITIES,
            WiFiNetwork.CAPABILITIES, PrivateLTENetwork.CAPABILITIES]
    table = design_space_table(caps)
    text = table.render()
    assert "dLTE" in text
    # dLTE is alone in the licensed/open cell
    assert DLTENetwork.CAPABILITIES.quadrant == ("Licensed", "Open")
    others = [c for c in caps if c.name != "dLTE"]
    assert all(c.quadrant != ("Licensed", "Open") for c in others)


def test_capability_axes():
    assert DLTENetwork.CAPABILITIES.open_core
    assert not DLTENetwork.CAPABILITIES.in_network_mobility
    assert CentralizedLTENetwork.CAPABILITIES.pstn_interconnect
    assert not WiFiNetwork.CAPABILITIES.licensed_radio
    assert not PrivateLTENetwork.CAPABILITIES.open_core
