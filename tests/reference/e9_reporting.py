"""Test oracle: E9's X2 rate measured by simulating the reporting mesh.

A frozen copy of the body ``repro.experiments.e9_x2_bandwidth`` ran
until it computed its rates from the message catalogue: every AP of a
full X2 mesh broadcasts a ``LoadInformation`` each period, and the rate
is endpoint 0's ``bytes_sent`` over the run. ``X2Endpoint.send`` counts
a message before its channel does, so delivery and the other endpoints'
broadcasts never reach the number.

Production must match this bit for bit; ``test_e9_closed_form.py``
compares the two.
"""

from repro.coordination.x2 import LoadInformation, X2Endpoint
from repro.simcore.simulator import Simulator


def _reporting_run(n_peers: int, period_s: float, duration_s: float,
                   seed: int) -> float:
    """Bytes/s of X2 traffic *sent by one AP* at a reporting period."""
    sim = Simulator(seed)
    endpoints = [X2Endpoint(sim, f"ap{i}") for i in range(n_peers)]
    for i in range(n_peers):
        for j in range(i + 1, n_peers):
            endpoints[i].connect_peer(endpoints[j], one_way_delay_s=0.02)

    def reporter(ep: X2Endpoint):
        while True:
            ep.broadcast(LoadInformation(sender_ap=ep.ap_id,
                                         prb_utilization=0.5,
                                         attached_ues=10))
            yield sim.timeout(period_s)

    for ep in endpoints:
        sim.process(reporter(ep))
    sim.run(until=duration_s)
    return endpoints[0].bytes_sent / duration_s
