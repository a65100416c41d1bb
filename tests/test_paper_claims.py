"""The paper's claims as shape assertions, one per table or figure.

Each test regenerates one experiment (a table/figure/claim from
DESIGN.md §3) and asserts the claim's *shape* — who wins, roughly by
how much, where crossovers fall — not its digits. The rows themselves
are printed by ``python -m repro --all`` and recorded in EXPERIMENTS.md;
``test_seed_robustness.py`` sweeps seeds over the stochastic ones.
"""

import math

from repro.experiments import (e3_range, e4_weak_signal, e5_coordination,
                               e6_mobility, e7_core_scaling,
                               e8_hidden_terminal, e9_x2_bandwidth,
                               e10_registries, e11_mesh_backhaul,
                               e12_deployment_cost, e13_idle_paging,
                               e14_nr_upgrade, e15_reachability,
                               e16_resilience, f1_path_comparison,
                               t1_design_space)


# -- T1 — regenerate Table 1 (the design-space quadrants).

def test_t1_design_space():
    quadrants, matrix = t1_design_space.run()
    # the paper's claim: dLTE alone fills the open-core/licensed quadrant
    assert t1_design_space.dlte_quadrant_is_unique()
    # and the closed/licensed cell holds the incumbents
    closed_licensed = quadrants.rows[1]["closed_core"]
    assert "Telecom LTE" in closed_licensed
    assert "Private LTE" in closed_licensed
    assert quadrants.rows[0]["open_core"] == "Legacy WiFi"


# -- F1 — the Figure-1 user-plane path comparison.

def test_f1_path_comparison():
    table = f1_path_comparison.run()
    dlte = table.rows[0]
    carriers = table.rows[1:]
    assert dlte["architecture"] == "dLTE"
    # dLTE beats every carrier configuration on RTT and path length
    for row in carriers:
        assert dlte["rtt_ms"] < row["rtt_ms"]
        assert dlte["hops"] < row["hops"]
        assert dlte["attach_ms"] < row["attach_ms"]
    # the carrier penalty grows with EPC distance; dLTE is independent of it
    rtts = [row["rtt_ms"] for row in carriers]
    assert rtts == sorted(rtts)
    # each ms of EPC access delay costs ~4 ms of ping RTT (2 tunnel
    # crossings each way)
    slope = (carriers[-1]["rtt_ms"] - carriers[0]["rtt_ms"]) / (60.0 - 10.0)
    assert 3.0 < slope < 5.0
    # GTP overhead only on the carrier path
    assert dlte["tunnel_overhead_B"] == 0
    assert all(row["tunnel_overhead_B"] == 36 for row in carriers)


def test_f1_local_breakout_ablation():
    table = f1_path_comparison.local_breakout_ablation()
    by_arch = {row["architecture"]: row for row in table.rows}
    # an on-premises EPC nearly closes the latency gap (the penalty is
    # the tunnel geometry, not the stub software)
    assert by_arch["Private LTE"]["rtt_ms"] < by_arch["Telecom LTE"]["rtt_ms"] / 2
    assert by_arch["dLTE"]["rtt_ms"] < by_arch["Private LTE"]["rtt_ms"]


# -- E3 — coverage/range per band (§3.2 "Spectrum Bands").

def test_e3_rate_vs_distance():
    table = e3_range.run()
    by_band = {row["band"]: row for row in table.rows}
    # at 8 km, band 5 is going strong while WiFi is stone dead
    assert by_band["lte5"]["d8000m"] > 10.0
    assert by_band["wifi2g4"]["d8000m"] == 0.0
    assert by_band["wifi5g"]["d8000m"] == 0.0
    # WiFi dies from MAC timing by 4 km even where SNR might survive
    assert by_band["wifi2g4"]["d4000m"] == 0.0
    # sub-GHz LTE outlives mid-band LTE at long range
    assert by_band["lte5"]["d30000m"] > by_band["lte48cbrs"]["d30000m"]
    assert by_band["lte31"]["d30000m"] > 0.0
    # near the AP, wider channels win (the rural tradeoff cuts both ways)
    assert by_band["lte3"]["d250m"] > by_band["lte5"]["d250m"]


def test_e3_range_summary():
    table = e3_range.range_summary()
    usable = {row["band"]: row["usable_km"] for row in table.rows}
    # the paper's headline ordering
    assert usable["lte5"] > 10 * usable["wifi2g4"]
    assert usable["lte31"] >= usable["lte5"] * 0.8  # 450 MHz at least as far
    assert usable["wifi2g4"] <= 2.7  # ACK-timing ceiling
    # one band-5 site covers a whole town (the §5 deployment)
    assert usable["lte5"] > 5.0


# -- E4 — weak-signal goodput: SC-FDMA + HARQ vs WiFi (§3.2).

def test_e4_goodput_vs_sinr():
    table = e4_weak_signal.run()
    rows = {row["channel_sinr_db"]: row for row in table.rows}
    # below WiFi's floor, LTE still delivers
    assert rows[-4]["wifi"] == 0.0
    assert rows[-4]["lte_harq"] > 0.1
    # HARQ combining beats plain ARQ in the weak region
    assert rows[-10]["lte_harq"] > rows[-10]["lte_plain_arq"]
    assert rows[-6]["lte_harq"] > rows[-6]["lte_plain_arq"]
    # at strong SINR everyone converges to their table peaks; LTE's
    # 64QAM table beats 802.11n single-stream throughout
    assert rows[20]["lte_harq"] > rows[20]["wifi"]
    # monotone non-decreasing goodput with SINR for every arm
    for col in ("lte_harq", "lte_plain_arq", "wifi"):
        values = [row[col] for row in table.rows]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


def test_e4_link_death_floors():
    table = e4_weak_signal.link_death_sinrs()
    floors = {row["arm"]: row["dies_below_db"] for row in table.rows}
    # the ladder: HARQ < plain ARQ < WiFi, with >10 dB total spread
    assert floors["lte_harq"] < floors["lte_plain_arq"] < floors["wifi"]
    assert floors["wifi"] - floors["lte_harq"] > 10.0


def test_e4_harq_retx_ablation():
    table = e4_weak_signal.harq_retx_ablation()
    values = table.column("goodput_bps_hz")
    # more retransmission budget helps at weak SINR, saturating
    assert values[0] < values[2] <= values[-1] * 1.05


# -- E5 — the coordination-mode ladder (§4.3).

def test_e5_coordination_modes():
    table = e5_coordination.run()
    rows = {row["arm"]: row for row in table.rows}
    wifi = rows["legacy WiFi (CSMA)"]
    uncoord = rows["dLTE uncoordinated"]
    fair = rows["dLTE fair-sharing"]
    coop = rows["dLTE cooperative"]

    # fair sharing achieves WiFi-like fairness...
    assert abs(fair["jain_fairness"] - wifi["jain_fairness"]) < 0.15
    # ...with more useful throughput (no contention losses)
    assert fair["aggregate_mbps"] > wifi["aggregate_mbps"]
    # uncoordinated reuse-1 crushes the cell edge
    assert uncoord["min_ue_mbps"] < fair["min_ue_mbps"]
    assert uncoord["jain_fairness"] < fair["jain_fairness"]
    # cooperation beats plain fair sharing on fairness and the worst user
    assert coop["jain_fairness"] > fair["jain_fairness"]
    assert coop["min_ue_mbps"] > fair["min_ue_mbps"]
    # the paper's headline: cooperative dLTE dominates legacy WiFi on
    # every column
    assert coop["aggregate_mbps"] > wifi["aggregate_mbps"]
    assert coop["jain_fairness"] > wifi["jain_fairness"]
    assert coop["min_ue_mbps"] > wifi["min_ue_mbps"]


def test_e5_gbr_protection():
    """§4.3: QoS-aware joint scheduling holds a GBR bearer under load."""
    table = e5_coordination.gbr_protection()
    for row in table.rows:
        assert row["guarantee_held"] == "yes"
        assert row["coop_video_mbps"] >= 3.0 * 0.95
    # the plain-PF cell dilutes the video as bulk users pile in
    pf = table.column("pf_video_mbps")
    assert pf == sorted(pf, reverse=True)
    assert pf[-1] < 1.5  # guarantee long gone without QoS scheduling


def test_e5_scales_with_ap_count():
    """Ablation: the fair-sharing advantage persists as the domain grows."""
    for n in (2, 6):
        table = e5_coordination.run(n_aps=n, ue_per_ap=3, seed=2)
        rows = {row["arm"]: row for row in table.rows}
        assert (rows["dLTE fair-sharing"]["aggregate_mbps"]
                > rows["legacy WiFi (CSMA)"]["aggregate_mbps"])


# -- E6 — mobility: endpoint transports vs MME-masked handover (§4.2).

def test_e6_mobility():
    # the two ends of the default sweep: at [10, 1] or [3, 1] the "QUIC
    # out-delivers the carrier at low speed" claim has no low speed
    table = e6_mobility.run(dwells_s=[30.0, 1.0])
    by_arm = {}
    for row in table.rows:
        by_arm.setdefault(row["arm"], []).append(row)
    carrier = by_arm["carrier"]
    tcp = by_arm["dlte-tcp"]
    quic = by_arm["dlte-quic"]

    # the carrier masks mobility: no reconnects, tiny stall fraction at
    # every speed — but pays the anchor detour in steady throughput
    assert all(row["reconnects"] == 0 for row in carrier)
    assert all(row["stall_fraction"] < 0.05 for row in carrier)

    # dLTE+TCP dies and re-handshakes at every AP change
    assert all(row["reconnects"] >= 3 for row in tcp)
    # and collapses as dwell shrinks toward the RTT scale
    assert tcp[-1]["stall_fraction"] > 0.2
    assert tcp[-1]["throughput_mbps"] < 0.7 * tcp[0]["throughput_mbps"]

    # dLTE+QUIC never reconnects and out-delivers the carrier at low
    # speed (shorter path), degrading only gently with speed —
    # the paper's claim that modern transports make endpoint mobility
    # workable
    assert all(row["reconnects"] == 0 for row in quic)
    assert quic[0]["throughput_mbps"] > carrier[0]["throughput_mbps"]
    for q, t in zip(quic, tcp):
        assert q["stall_fraction"] <= t["stall_fraction"] + 1e-9
    # the predicted breakdown: by dwell ~ 14x RTT, QUIC-dLTE has fallen
    # back to (or below) carrier throughput — this is where a hybrid
    # with co-located eNodeBs (§4.2) would take over
    assert quic[-1]["throughput_mbps"] < quic[0]["throughput_mbps"]


def test_e6_make_before_break():
    """§4.2 extension: multiple-address soft handoff removes the gap."""
    table = e6_mobility.make_before_break()
    by_arm = {}
    for row in table.rows:
        by_arm.setdefault(row["arm"], []).append(row)
    for hard, soft in zip(by_arm["dlte-quic"], by_arm["dlte-quic-mbb"]):
        assert soft["stall_fraction"] < 0.02      # effectively seamless
        assert soft["throughput_mbps"] > hard["throughput_mbps"]
    # the ladder is ordered: hard <= X2-assisted <= make-before-break
    for hard, x2 in zip(by_arm["dlte-quic"], by_arm["dlte-quic-x2"]):
        assert x2["throughput_mbps"] >= hard["throughput_mbps"] * 0.98
    # soft handoff keeps near-line-rate even at one handover per second
    assert by_arm["dlte-quic-mbb"][-1]["throughput_mbps"] > 7.0


def test_e6_reconnect_cost_ablation():
    table = e6_mobility.quic_0rtt_ablation()
    rows = {row["arm"]: row for row in table.rows}
    assert (rows["dlte-quic"]["worst_stall_s"]
            < rows["dlte-tcp"]["worst_stall_s"] * 0.6)
    # bulk goodput lands in the same band (TCP's fresh slow-start can
    # even edge ahead); the stall column is where the user feels it
    assert (rows["dlte-quic"]["throughput_mbps"]
            >= rows["dlte-tcp"]["throughput_mbps"] * 0.9)


# -- E7 — centralized EPC vs per-site stubs under attach storms (§4.1).

def test_e7_core_scaling():
    table = e7_core_scaling.run()
    central = [row for row in table.rows
               if row["architecture"] == "centralized EPC"]
    stubs = [row for row in table.rows if row["architecture"] == "dLTE stubs"]

    # stubs: flat attach latency regardless of federation size
    stub_means = [row["mean_attach_ms"] for row in stubs]
    assert max(stub_means) - min(stub_means) < 5.0

    # centralized: latency explodes once the shared MME saturates
    central_means = [row["mean_attach_ms"] for row in central]
    assert central_means[-1] > 5 * central_means[0]
    assert central[-1]["core_peak_queue"] > 100
    assert stubs[-1]["core_peak_queue"] < 5

    # even unloaded, the stub attach is several times faster (no
    # backhaul round trips in the control plane)
    assert central_means[0] > 3 * stub_means[0]


# -- E8 — hidden terminals: CSMA vs the license registry (§4.3).

def test_e8_hidden_terminal_field():
    table = e8_hidden_terminal.run()
    # the registry arm never collides and keeps its scheduled airtime
    assert all(row["registry_collision_rate"] == 0.0 for row in table.rows)
    assert all(row["registry_utilization"] > 0.9 for row in table.rows)
    # CSMA degrades with density; at high density it collapses
    collisions = table.column("csma_collision_rate")
    assert collisions == sorted(collisions)
    assert collisions[-1] > 0.5
    utilizations = table.column("csma_utilization")
    assert utilizations[-1] < 0.3
    # hidden pairs grow with density
    hidden = table.column("hidden_pairs")
    assert hidden[-1] > hidden[0]


def test_e8_sensing_ablation():
    """§6: cognitive-radio sensing sweep — sensitivity is not a database."""
    table = e8_hidden_terminal.sensing_ablation()
    hiddens = table.column("hidden_pairs")
    collisions = table.column("collision_rate")
    # longer sensing range removes hidden pairs and collisions...
    assert hiddens == sorted(hiddens, reverse=True)
    assert collisions == sorted(collisions, reverse=True)
    # ...but even the most sensitive config stays below the registry's
    # scheduled utilization (exposed terminals serialize the area)
    assert max(table.column("utilization")) < 0.9


def test_e8_classic_triple():
    table = e8_hidden_terminal.classic_three_node()
    rows = {row["scenario"]: row for row in table.rows}
    assert (rows["hidden"]["collision_rate"]
            > 1.5 * rows["connected"]["collision_rate"])
    assert rows["hidden"]["utilization"] < rows["connected"]["utilization"]


# -- E9 — X2 coordination bandwidth and backhaul fit (§4.3, ref [28]).

def test_e9_x2_bandwidth():
    table = e9_x2_bandwidth.run()
    # bandwidth grows linearly with the number of *peers* (n - 1)...
    aggressive = table.column("aggressive (100 ms)")
    peer_counts = table.column("n_peers")
    per_peer = [bps / (n - 1) for bps, n in zip(aggressive, peer_counts)]
    assert max(per_peer) - min(per_peer) < 0.05 * max(per_peer)
    # ...and linearly with the reporting rate (the minimization knob)
    for row in table.rows:
        assert row["aggressive (100 ms)"] > 50 * row["minimal (10 s)"]


def test_e9_backhaul_fit():
    table = e9_x2_bandwidth.backhaul_fit()
    rows = {row["level"]: row for row in table.rows}
    # the paper's claim: minimized coordination fits a 64 kbps trickle
    assert rows["minimal (10 s)"]["of_64kbps_pct"] < 5.0
    # standard reporting is still well under typical rural DSL
    assert rows["standard (1 s)"]["of_1000kbps_pct"] < 2.0
    # aggressive reporting genuinely does not fit the thinnest links —
    # which is *why* the level must be tunable
    assert rows["aggressive (100 ms)"]["of_64kbps_pct"] > 100.0
    # a handover burst is a few hundred bytes: noise
    assert e9_x2_bandwidth.handover_burst_bytes() < 1000


# -- E10 — SAS vs federated vs blockchain registries (§4.3).

def test_e10_registry_latencies():
    table = e10_registries.run()
    rows = {row["registry"]: row for row in table.rows}
    sas = rows["SAS (centralized)"]
    fed = rows["federated (DNS-like)"]
    chain = rows["blockchain (PoW)"]
    # everyone eventually joins
    assert sas["joined"] == fed["joined"] == chain["joined"]
    # join latency: SAS < federated << blockchain (orders of magnitude)
    assert sas["join_mean_s"] < fed["join_mean_s"]
    assert chain["join_mean_s"] > 50 * fed["join_mean_s"]
    # blockchain reads are local: discovery is effectively free
    assert chain["discover_mean_ms"] < 1.0
    assert sas["discover_mean_ms"] > 10.0


def test_e10_service_continuity():
    """CBRS leases turn a SAS outage into an air-interface outage."""
    table = e10_registries.service_continuity_under_outage()
    rows = {row["registry"]: row for row in table.rows}
    sas = rows["SAS (CBRS leases)"]
    assert sas["aps_running_before"] == 10
    assert sas["aps_running_after"] == 0        # everyone silenced
    # silence arrives within one lease of the outage, not instantly
    assert 0 < sas["mean_time_to_silence_s"] <= 60.0
    for name in ("federated (perpetual grants)",
                 "blockchain (perpetual grants)"):
        assert rows[name]["aps_running_after"] == 10


def test_e10_availability_under_failure():
    table = e10_registries.availability_under_failure()
    rows = {row["registry"]: row for row in table.rows}
    # the availability ordering inverts the latency ordering
    assert (rows["blockchain (PoW)"]["availability_pct"]
            > rows["federated (DNS-like)"]["availability_pct"]
            > rows["SAS (centralized)"]["availability_pct"])
    assert rows["blockchain (PoW)"]["availability_pct"] == 100.0
    assert rows["SAS (centralized)"]["availability_pct"] < 60.0
    assert rows["federated (DNS-like)"]["availability_pct"] > 80.0


# -- E11 — multi-hop backhaul sharing (§7 future work).

def test_e11_mesh_redundancy():
    table = e11_mesh_backhaul.run()
    # with the mesh, every site stays reachable until the last uplink dies
    for row in table.rows[:-1]:
        assert row["meshed_reachable_pct"] == 100.0
    # without it, reachability tracks surviving uplinks exactly
    for row in table.rows:
        expected = 100.0 * (6 - row["failed_uplinks"]) / 6
        assert abs(row["isolated_reachable_pct"] - expected) < 1e-6
    # capacity degrades identically (the mesh shares, it does not mint)
    for row in table.rows:
        assert row["meshed_capacity_mbps"] == row["isolated_capacity_mbps"]


def test_e11_aggregation_gain():
    single, aggregate = e11_mesh_backhaul.aggregation_gain()
    assert aggregate == 4 * single


def test_e11_mesh_links_are_fast():
    rate = e11_mesh_backhaul.mesh_link_rate_bps(3000.0)
    # elevated fixed radios sustain a useful backhaul-grade rate
    assert rate > 20e6


# -- E12 — deployment economics of the §5 Papua-style site.

def test_e12_bom_under_paper_budget():
    table = e12_deployment_cost.bom_table()
    total = table.rows[-1]["total_usd"]
    # the paper's headline number: "less than $8000 in materials"
    assert total < e12_deployment_cost.PAPER_BUDGET_USD
    assert e12_deployment_cost.under_paper_budget()
    # and it genuinely includes the two sectors + EPC computer + cabling
    items = " | ".join(str(row["item"]) for row in table.rows)
    assert "eNodeB" in items and "EPC computer" in items


def test_e12_town_coverage_costs():
    table = e12_deployment_cost.run()
    rows = {row["technology"]: row for row in table.rows}
    dlte = rows["dLTE (band 5)"]
    wifi = rows["WiFi (2.4 GHz)"]
    femto = rows["carrier femtocell"]
    # one dLTE site covers the whole area; WiFi needs a farm of sites
    assert dlte["sites_needed"] == 1
    assert wifi["sites_needed"] >= 4
    # coverage per dollar: dLTE dominates by more than an order of
    # magnitude, femtocells are hopeless for area coverage
    assert dlte["km2_per_kusd"] > 10 * wifi["km2_per_kusd"]
    assert wifi["km2_per_kusd"] > 10 * femto["km2_per_kusd"]
    # the recurring carrier fee makes femtocells even worse over 5 years
    assert femto["five_year_usd"] > 5 * femto["town_capex_usd"]


# -- E13 — idle-mode wake-up: TA paging vs dLTE's no-mobility-management.

def test_e13_idle_paging():
    table = e13_idle_paging.run()
    carrier_rows = [row for row in table.rows
                    if row["architecture"].startswith("carrier")]
    dlte = [row for row in table.rows
            if row["architecture"].startswith("dLTE")][0]
    # paging fan-out is linear in fleet size (the TA broadcast)
    for row in carrier_rows:
        assert row["paging_messages"] == row["n_sites"]
    # dLTE sends zero pages and wakes >4x faster
    assert dlte["paging_messages"] == 0
    for row in carrier_rows:
        assert dlte["wake_latency_ms"] < row["wake_latency_ms"] / 4
    # carrier wake latency is dominated by backhaul RTTs, constant in
    # fleet size — the fan-out costs messages, not (directly) time
    latencies = [row["wake_latency_ms"] for row in carrier_rows]
    assert max(latencies) - min(latencies) < 5.0


# -- E14 — the 5G-NR upgrade path for dLTE (§7 future work).

def test_e14_rate_vs_distance():
    table = e14_nr_upgrade.run()
    rows = {row["arm"]: row for row in table.rows}
    lte = rows["LTE band 5 (10 MHz)"]
    n28 = rows["NR n28 (20 MHz)"]
    n78 = rows["NR n78 (100 MHz, no BF)"]
    n78bf = rows["NR n78 + 64-el beamforming"]
    # the like-for-like upgrade: n28 doubles LTE where SINR is plentiful,
    # and still wins at the edge (where its doubled noise bandwidth eats
    # part of the channel-width gain)
    for col in ("d250m", "d4000m"):
        assert n28[col] >= 2 * lte[col] * 0.9
    assert n28["d16000m"] > 1.4 * lte["d16000m"]
    # raw mid-band dies where the coverage layers still deliver
    assert n78["d16000m"] == 0.0
    assert lte["d16000m"] > 0 and n28["d16000m"] > 0
    # beamforming is what rescues mid-band at range
    assert n78bf["d16000m"] > 100.0
    # near the mast, the 100 MHz channel is an order of magnitude up
    assert n78bf["d250m"] > 10 * lte["d250m"]


def test_e14_latency_ladder():
    table = e14_nr_upgrade.latency_ladder()
    latencies = table.column("air_latency_ms")
    # LTE == mu0, then halving per numerology step
    assert latencies[0] == latencies[1] == 4.0
    for a, b in zip(latencies[1:], latencies[2:]):
        assert b == a / 2


def test_e14_range_summary():
    table = e14_nr_upgrade.range_summary()
    usable = {row["arm"]: row["usable_km"] for row in table.rows}
    # beamforming triples raw mid-band reach
    assert (usable["NR n78 + 64-el beamforming"]
            > 3 * usable["NR n78 (100 MHz, no BF)"])
    # the sub-GHz layers remain the kings of area coverage
    assert usable["LTE band 5 (10 MHz)"] > 50
    assert usable["NR n28 (20 MHz)"] > 50


# -- E15 — public addressing vs NAT: who can host a service (§4.2).

def test_e15_reachability():
    table = e15_reachability.run()
    rows = {row["arm"]: row for row in table.rows}
    dlte = rows["dLTE (public address)"]
    nat = rows["NATed hotspot"]
    # both can dial out...
    assert dlte["outbound_ok"] == "yes"
    assert nat["outbound_ok"] == "yes"
    # ...but only the publicly-addressed client can be dialed
    assert dlte["inbound_ok"] == "yes"
    assert nat["inbound_ok"] == "no"
    assert nat["nat_unsolicited_drops"] >= 1
    assert dlte["nat_unsolicited_drops"] == 0


# -- E16 — resilience: failure domains vs failure rates (§4.3/§7).

def test_e16_resilience():
    timeline, summary = e16_resilience.run()
    rows = {row["arm"]: row for row in summary.rows}
    dlte = rows["dLTE (federated)"]
    cent = rows["Centralized LTE"]

    # the centralized EPC is a single point of failure: the outage takes
    # the WHOLE town offline...
    assert cent["min_reach_frac"] == 0.0
    # ...while the federation keeps every surviving site's clients up
    assert 0.0 < dlte["surviving_frac"] < 1.0
    assert dlte["min_reach_frac"] >= dlte["surviving_frac"]

    # both arms recover within a bounded number of probe/heartbeat
    # periods of the restore (no unbounded blackout)
    for row in (dlte, cent):
        assert math.isfinite(row["time_to_recover_s"])
        assert row["time_to_recover_s"] <= 5.0
    # the crashed AP's clients re-attach: nobody is left stuck
    assert dlte["stuck_ues"] == 0
    assert cent["stuck_ues"] == 0
    # town-wide blackout costs far more in-flight traffic than one site
    assert cent["probes_lost"] > dlte["probes_lost"]

    # deterministic from (seed, schedule): a re-run reproduces the
    # reachability timeline and summary exactly
    timeline2, summary2 = e16_resilience.run()
    assert timeline2.rows == timeline.rows
    assert summary2.rows == summary.rows
