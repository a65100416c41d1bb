#!/usr/bin/env python
"""Backhaul failure in a meshed federation: nobody goes dark (§7).

"Such networks could provide redundancy for users in emergencies when
the backhaul link goes down."

A two-AP town with inter-AP mesh radio links enabled. We ping an OTT
server from a client of each AP, cut one AP's Internet uplink, and ping
again: the victims' traffic silently reroutes over the mesh through the
surviving AP's uplink — longer path, same Internet.

Run:  python examples/backhaul_failure.py
"""

from repro import DLTENetwork, RuralTown
from repro.core.network import SERVER_ADDR
from repro.net import Packet


def ping(net, ue_id, label):
    host = net.ue_hosts[ue_id]
    if host.address is None:
        print(f"  {ue_id}: no address (not attached)")
        return
    got = []
    host.on_packet = lambda p: got.append((net.sim.now, p))
    t0 = net.sim.now
    host.send(Packet(src=host.address, dst=SERVER_ADDR, size_bytes=100,
                     payload={"kind": "ping", "t0": t0}, created_at=t0))
    net.sim.run(until=t0 + 5.0)
    pongs = [(t, p) for t, p in got if isinstance(p.payload, dict)
             and p.payload.get("kind") == "pong"]
    if not pongs:
        print(f"  {ue_id} ({label}): UNREACHABLE")
        return
    arrived, reply = pongs[0]
    gateways = {h for h in reply.hops if h.endswith("-gw")}
    path = " via both AP gateways" if len(gateways) > 1 else ""
    print(f"  {ue_id} ({label}): rtt {(arrived - t0) * 1e3:.1f} ms, "
          f"{reply.payload['request_hops']} hops{path}")


def main() -> None:
    town = RuralTown(radius_m=2000, n_ues=8, n_aps=2, seed=9)
    net = DLTENetwork.build(town, seed=9)
    net.run(duration_s=3.0)
    net.enable_mesh()

    by_ap = {ap_id: [ue for ue, host in net.ue_hosts.items()
                     if host.address is not None
                     and net.aps[ap_id].pool.contains(host.address)]
             for ap_id in net.aps}
    print("Clients per AP:", {k: len(v) for k, v in by_ap.items()})
    sample = {ap_id: ues[0] for ap_id, ues in by_ap.items() if ues}

    print("\nBefore the failure:")
    for ap_id, ue in sample.items():
        ping(net, ue, f"on {ap_id}")

    victim = "ap1" if by_ap.get("ap1") else "ap0"
    print(f"\n*** {victim}'s fiber gets cut ***\n")
    net.fail_backhaul(victim)

    print("After the failure:")
    for ap_id, ue in sample.items():
        ping(net, ue, f"on {ap_id}" + (" (victim)" if ap_id == victim else ""))

    print("\nThe victim AP's clients kept their addresses and their")
    print("Internet — their packets now take the mesh hop through the")
    print("neighbour's uplink. No operator intervened; the federation")
    print("just has more than one way out (§7).")


if __name__ == "__main__":
    main()
