"""Test oracle: Bianchi's analytic DCF saturation throughput.

The closed form that :class:`repro.mac.csma.CsmaSimulation` must agree
with when every station hears every other (no hidden terminals);
``test_mac_csma_timing.py`` compares the two.
"""

from repro.mac.csma import CW_MIN


def bianchi_throughput(n_nodes: int, frame_slots: int = 50,
                       cw_min: int = CW_MIN, retry_stages: int = 6,
                       tol: float = 1e-10) -> float:
    """Bianchi (2000) saturation throughput, normalized to channel rate.

    Solves the (tau, p) fixed point for ``n_nodes`` saturated stations
    with binary exponential backoff over ``retry_stages`` doublings, then
    returns the fraction of time the channel carries successful payload.
    Payload, success, and collision durations are all ``frame_slots``
    slots (the same abstraction as ``CsmaSimulation``).
    """
    if n_nodes <= 0:
        raise ValueError("need at least one node")
    w = float(cw_min)
    m = retry_stages
    tau = 0.1
    for _ in range(10_000):
        p = 1.0 - (1.0 - tau) ** (n_nodes - 1)
        if p >= 1.0:
            p = 1.0 - 1e-12
        denom = ((1 - 2 * p) * (w + 1) + p * w * (1 - (2 * p) ** m))
        new_tau = 2 * (1 - 2 * p) / denom
        if abs(new_tau - tau) < tol:
            tau = new_tau
            break
        tau = 0.5 * tau + 0.5 * new_tau
    p_tr = 1.0 - (1.0 - tau) ** n_nodes
    if p_tr == 0.0:
        return 0.0
    p_s = n_nodes * tau * (1.0 - tau) ** (n_nodes - 1) / p_tr
    slot_idle = 1.0
    slot_busy = float(frame_slots)
    numerator = p_s * p_tr * slot_busy
    denominator = ((1 - p_tr) * slot_idle + p_tr * p_s * slot_busy
                   + p_tr * (1 - p_s) * slot_busy)
    return numerator / denominator
