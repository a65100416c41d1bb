"""E18 (extension) — sustained data-plane overload: AQM + ECN vs drop-tail.

E17 overloaded the *control* plane (an attach storm against one MME).
E18 overloads the *user* plane: a town's worth of heavy-tailed web
fetches, video segments and VoIP spurts pushed through the rural
backhaul at multiples of its capacity, sustained for the whole horizon.
The operational question is the classic one: past saturation, does
goodput stay pinned at capacity (graceful), or does the network spend
its bottleneck on waste — bufferbloat-inflated RTTs, RTO storms and
go-back-N duplicates — so that *delivered* bytes fall as *offered*
bytes rise (congestion collapse)?

Each (architecture x load) cell runs twice:

* **drop-tail** — the seed's FIFO queue, ECN off: the control arm.
  Deep buffers absorb the overload as seconds of queueing delay until
  they tail-drop in bursts; senders RTO and refill go-back-N style,
  and the duplicates compete with fresh data for the same bottleneck.
* **AQM + ECN** — CoDel (or RED via ``aqm=``) on every access link,
  marking ECT traffic instead of dropping it: senders halve ``cwnd``
  without losing anything, sojourn stays near the 5 ms target, and
  goodput holds at capacity no matter how far past saturation the
  offered load climbs.

The centralized arm additionally installs a per-bearer QoS policer
(:mod:`repro.epc.qos`) at the S-GW/P-GW: VoIP bearers are GBR,
web is interactive, video is bulk, and when offered load exceeds the
policed aggregate the shed ordering is bulk first, guarantee last —
the data-plane mirror of E17's "Detach outranks bulk" discipline. The
dLTE arm has no gateway to police (local breakout); its VoIP rides on
AQM keeping the queue short, which is the architectural contrast.

Reported per (arch x mode x load): offered and delivered (goodput)
Mbps over the measurement window, web flow-completion P50/P99.9 and
video/VoIP chunk-delivery P99.9 (streaming P² quantiles, demand-to-
service), web flow completion rate, ECN marks, AQM vs tail drops,
policer sheds and the deepest access queue. The claim is the *shape*:
with AQM+ECN, goodput is monotone non-decreasing in load; with
drop-tail it declines past saturation.

Chaos scenarios and the invariant layer compose exactly as in E17
(``scenario=`` and ``--invariants``) — every link carries a byte-exact
conservation law, so a flapping backhaul under overload is one flag
away and still audited.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.network import CentralizedLTENetwork, DLTENetwork
from repro.epc.qos import (BearerPolicer, CLASS_BULK, CLASS_GBR,
                           CLASS_INTERACTIVE, QosPolicy)
from repro.epc.ue import UeState
from repro.faults import FaultInjector, compose_scenario, prepare_scenario
from repro.metrics.tables import ResultTable
from repro.net.aqm import make_aqm
from repro.runner import parallel_map
from repro.transport.base import ConnectionState, TransportDemux
from repro.transport.tcp import TcpConnection, TcpListener
from repro.workloads.topology import RuralTown
from repro.workloads.traffic import DiurnalCurve, make_app_source

#: SLA quantiles per app class (P50/P99/P99.9 via streaming P²)
QUANTILES = (0.5, 0.99, 0.999)

#: mean web fetch (heavy-tailed around this; see ParetoFlowSource)
WEB_MEAN_BYTES = 120_000

#: fixed per-stream video rate and cadence; the load sweep rides on web
#: flow churn (the busy hour multiplies page fetches, not stream rates)
VIDEO_BPS = 1.2e6
VIDEO_SEGMENT_S = 1.0

#: a stuck web fetch (handshake lost in the congested queue) is retried
#: by the "user" after this long, a few times, then abandoned — the
#: transport itself has no SYN retransmission
WEB_RETRY_S = 3.0
WEB_RETRIES = 3

#: AQM parameters sized to the rural path (~100 ms RTT): CoDel's 5 ms
#: LAN default would underutilize the pipe, RED's 5/15-packet
#: thresholds would fire below this path's bandwidth-delay product
AQM_KWARGS = {
    "codel": {"target_s": 0.02, "interval_s": 0.2},
    "red": {"min_th": 30.0, "max_th": 90.0},
}

#: per-UE app assignment cycle — web-dominant, like the measured mix
APP_CYCLE = ("web", "video", "voip", "web", "web", "web")

#: QoS classes per app — VoIP is the guaranteed bearer, video is bulk
QOS_CLASS = {"web": CLASS_INTERACTIVE, "video": CLASS_BULK,
             "voip": CLASS_GBR}

_MODES = (("drop-tail", False), ("AQM+ECN", True))


def _settle_dlte(net: DLTENetwork) -> None:
    """License + peer + monitors — the pre-traffic control phase."""
    net.license_and_peer()
    for ap in net.aps.values():
        ap.start_peer_monitor(heartbeat_s=1.0)


def _access_links(net) -> List:
    """Downlink access links (Internet -> town), the E18 bottlenecks.

    Both builds attach each site router to the Internet core at the
    town's backhaul rate; the EPC and server edges are effectively
    infinite, so congestion lives on exactly these links.
    """
    return [link for name, link in sorted(net.internet.links.items())
            if name not in ("server-edge", "epc-gw")]


def _run_cell(task: Tuple) -> Dict[str, float]:
    """One (arch, mode, load) cell; picklable for parallel_map."""
    (arch, aqm_on, load, n_aps, ue_per_ap, seed, scenario, qos, aqm,
     chaos_at_s, settle_s, warmup_s, measure_s, backhaul_bps) = task
    town = RuralTown(radius_m=1500.0, n_ues=n_aps * ue_per_ap,
                     n_aps=n_aps, seed=seed,
                     backhaul_rate_bps=backhaul_bps)
    if arch == "dlte":
        net = DLTENetwork.build(town, seed=seed)
    else:
        net = CentralizedLTENetwork.build(town, seed=seed)
    sim = net.sim

    # installed before traffic so the whole run is judged by one discipline
    bottlenecks = _access_links(net)
    if aqm_on:
        for link in bottlenecks:
            link.set_aqm(make_aqm(aqm, ecn=True,
                                  **AQM_KWARGS.get(aqm, {})))

    policer = None
    if qos and arch == "cent":
        # sized well above capacity: the policer's role is the shed
        # *ordering* under extreme load (bulk first, GBR never), not
        # rate-shaping — that would shield the queue and hide the
        # drop-tail collapse the control arm must show
        aggregate = 3.0 * n_aps * backhaul_bps
        policer = BearerPolicer(
            sim, QosPolicy(rate_bps=aggregate, gbr_bps=0.05 * aggregate,
                           burst_bytes=60_000),
            name="pgw-policer")
        net.epc_data.policer = policer

    if scenario:
        prepare_scenario(scenario, net)
    if arch == "dlte":
        _settle_dlte(net)

    # -- attach phase: everyone gets a bearer before the load arrives --------
    ues = [net.ues[name] for name in sorted(net.ues)]
    for j, ue in enumerate(ues):
        sim.schedule(0.02 * j, ue.start_attach_with_retry)
    sim.run(until=sim.now + settle_s)
    online = [ue for ue in ues
              if ue.state is UeState.ATTACHED
              and net.ue_hosts[ue.ue_id].address is not None]

    # -- transport + workload wiring -----------------------------------------
    t1 = sim.now
    server_demux = TransportDemux(net.server)   # replaces the echo responder
    hists = {app: sim.metrics.histogram(f"e18.sla.{app}_s",
                                        quantiles=QUANTILES)
             for app in ("web", "video", "voip")}
    flows: Dict[str, dict] = {}
    totals = {"sent": 0, "delivered": 0, "web_started": 0, "web_done": 0}
    base = {"sent": 0, "delivered": 0}

    def on_accept(conn):
        st = flows.get(conn.conn_id)
        if st is None:
            return

        def on_receive(n_bytes: int, st=st, conn=conn) -> None:
            st["delivered"] += n_bytes
            totals["delivered"] += n_bytes
            if st["app"] == "web":
                if not st["done"] and st["delivered"] >= st["size"]:
                    st["done"] = True
                    totals["web_done"] += 1
                    hists["web"].observe(sim.now - st["born"])
                    conn.close()
                    st["server_conn"].close()
                    if policer is not None:
                        policer.deregister_bearer(conn.conn_id)
            else:
                pending = st["pending"]
                while pending and pending[0][0] <= st["delivered"]:
                    target, emitted_at = pending.popleft()
                    st["hist"].observe(sim.now - emitted_at)

        conn.on_receive = on_receive

    for ue in online:
        demux = TransportDemux(net.ue_hosts[ue.ue_id])
        listener = TcpListener(sim, demux, tls=False)
        listener.on_accept = on_accept

    # per-site capacity times the load multiple; video and voip run at
    # fixed per-stream rates, web flow churn carries the sweep
    per_app = {app: 0 for app in ("web", "video", "voip")}
    assignment = [(ue, APP_CYCLE[j % len(APP_CYCLE)])
                  for j, ue in enumerate(online)]
    for _ue, app in assignment:
        per_app[app] += 1
    target_bps = load * n_aps * backhaul_bps
    web_bps = max(target_bps - per_app["video"] * VIDEO_BPS,
                  0.25 * target_bps)
    diurnal = DiurnalCurve(period_s=max(measure_s, 1.0), trough=0.5,
                           peak_at=t1 + warmup_s + measure_s / 2.0)

    def open_web_flow(ue_id: str, addr, size: int, counter: dict) -> None:
        counter["n"] += 1
        conn_id = f"web:{ue_id}:{counter['n']}"
        conn = TcpConnection(sim, server_demux, conn_id=conn_id,
                             peer_addr=addr, tls=False, ecn=aqm_on)
        flows[conn_id] = {"app": "web", "size": size, "born": sim.now,
                          "delivered": 0, "done": False, "retries": 0,
                          "addr": addr, "server_conn": conn}
        totals["sent"] += size
        totals["web_started"] += 1
        if policer is not None:
            policer.register_bearer(conn_id, CLASS_INTERACTIVE)
        conn.on_established = lambda c=conn, n=size: c.send_app_data(n)
        conn.connect()

    def web_retry_sweep():
        # the transport has no SYN retransmission: a handshake lost in
        # the congested queue leaves the connection CONNECTING forever.
        # Model the user hitting reload: replace the endpoint (same flow
        # id, so accounting and the bearer registration carry over), a
        # few times, then give up.
        while True:
            yield sim.timeout(1.0)
            for conn_id, st in flows.items():
                if st["app"] != "web" or st["done"]:
                    continue
                conn = st["server_conn"]
                if (conn.state is ConnectionState.CONNECTING
                        and sim.now - st["born"]
                        > WEB_RETRY_S * (st["retries"] + 1)):
                    conn.close()
                    if st["retries"] >= WEB_RETRIES:
                        st["done"] = True   # abandoned, never completes
                        continue
                    st["retries"] += 1
                    retry = TcpConnection(sim, server_demux,
                                          conn_id=conn_id,
                                          peer_addr=st["addr"], tls=False,
                                          ecn=aqm_on)
                    st["server_conn"] = retry
                    retry.on_established = (
                        lambda c=retry, n=st["size"]: c.send_app_data(n))
                    retry.connect()

    sim.process(web_retry_sweep(), name="web-retry-sweep")

    sources = []
    for ue, app in assignment:
        ue_id = ue.ue_id
        addr = net.ue_hosts[ue_id].address
        if app == "web":
            rate = web_bps / (8.0 * WEB_MEAN_BYTES) / per_app["web"]
            counter = {"n": 0}
            src = make_app_source(
                "web", sim,
                lambda size, u=ue_id, a=addr, c=counter:
                    open_web_flow(u, a, size, c),
                name=f"web-{ue_id}", rate_per_s=rate,
                mean_bytes=WEB_MEAN_BYTES, diurnal=diurnal)
        else:
            conn_id = f"{app}:{ue_id}"
            conn = TcpConnection(sim, server_demux, conn_id=conn_id,
                                 peer_addr=addr, tls=False, ecn=aqm_on)
            st = {"app": app, "sent": 0, "delivered": 0,
                  "pending": deque(), "hist": hists[app],
                  "server_conn": conn}
            flows[conn_id] = st
            if policer is not None:
                policer.register_bearer(conn_id, QOS_CLASS[app])

            def emit(n_bytes: int, st=st, conn=conn) -> None:
                if conn.state in (ConnectionState.CLOSED,
                                  ConnectionState.BROKEN):
                    return
                st["sent"] += n_bytes
                totals["sent"] += n_bytes
                st["pending"].append((st["sent"], sim.now))
                conn.send_app_data(n_bytes)

            overrides = {}
            if app == "video":
                overrides = {"bitrate_bps": VIDEO_BPS,
                             "segment_s": VIDEO_SEGMENT_S}
            src = make_app_source(app, sim, emit, name=f"{app}-{ue_id}",
                                  **overrides)
            conn.connect()
        src.start()
        sources.append(src)

    def snapshot() -> None:
        base["sent"] = totals["sent"]
        base["delivered"] = totals["delivered"]

    sim.schedule(warmup_s, snapshot)
    until = t1 + warmup_s + measure_s
    if scenario:
        injector = FaultInjector(sim)
        plan = compose_scenario(scenario, net, injector, t1 + chaos_at_s)
        until = max(until, plan.end_s + 10.0)
    sim.run(until=until)

    # -- harvest -------------------------------------------------------------
    window_s = sim.now - (t1 + warmup_s)

    def q(app: str, quantile: float) -> float:
        hist = hists[app]
        return 0.0 if hist.count == 0 else hist.quantile(quantile)

    return {
        "load_x": load,
        "offered_mbps": (totals["sent"] - base["sent"]) * 8.0
                        / window_s / 1e6,
        "goodput_mbps": (totals["delivered"] - base["delivered"]) * 8.0
                        / window_s / 1e6,
        "web_done": totals["web_done"] / max(1, totals["web_started"]),
        "web_fct_p50_s": q("web", 0.5),
        "web_fct_p999_s": q("web", 0.999),
        "video_p999_s": q("video", 0.999),
        "voip_p999_ms": q("voip", 0.999) * 1e3,
        "ecn_marks": sim.ecn_marks,
        "aqm_drops": sum(link.dropped_aqm for link in bottlenecks),
        "tail_drops": sum(link.dropped_overflow for link in bottlenecks),
        "shed_gbr": 0 if policer is None else policer.shed_by_class[0],
        "shed_web": 0 if policer is None else policer.shed_by_class[1],
        "shed_bulk": 0 if policer is None else policer.shed_by_class[2],
        "peak_queue": sim.link_peak_queue,
    }


_ARCHITECTURES = (("Centralized LTE", "cent"), ("dLTE stubs", "dlte"))


def run(loads: Optional[Sequence[float]] = None, n_aps: int = 1,
        ue_per_ap: int = 6, seed: int = 11, scenario: str = "",
        qos: bool = True, aqm: str = "codel",
        chaos_at_s: float = 2.0, settle_s: float = 6.0,
        warmup_s: float = 2.0, measure_s: float = 15.0,
        backhaul_bps: float = 6e6) -> ResultTable:
    """Goodput-vs-offered-load across architectures and queue disciplines.

    ``loads`` multiplies the aggregate access capacity: each cell
    offers ``load * n_aps * backhaul_bps`` of web/video traffic (plus
    fixed-rate VoIP) and is run once with the seed's drop-tail FIFO and
    once with ``aqm`` (+ ECN) on every access link. ``qos`` installs
    the per-bearer policer at the centralized gateway; ``scenario``
    overlays a named chaos storm at ``chaos_at_s`` after traffic
    starts. ``--invariants`` audits every cell, packet *and* byte
    exact on every link.
    """
    if loads is None:
        loads = (0.5, 2.0, 4.0)
    cells = [(arch_key, aqm_on, load, n_aps, ue_per_ap, seed, scenario,
              qos, aqm, chaos_at_s, settle_s, warmup_s, measure_s,
              backhaul_bps)
             for load in loads
             for _label, arch_key in _ARCHITECTURES
             for _mode, aqm_on in _MODES]
    results = parallel_map(_run_cell, cells,
                           costs=[cell[2] for cell in cells])

    suffix = f" under {scenario!r}" if scenario else ""
    table = ResultTable(
        f"E18: sustained overload{suffix} — goodput vs offered load, "
        f"{aqm}+ECN vs drop-tail",
        ["arch", "mode", "load_x", "offered_mbps", "goodput_mbps",
         "web_done", "web_fct_p50_s", "web_fct_p999_s", "video_p999_s",
         "voip_p999_ms", "ecn_marks", "aqm_drops", "tail_drops",
         "shed_gbr", "shed_web", "shed_bulk", "peak_queue"])
    labels = [(label, mode) for _load in loads
              for label, _key in _ARCHITECTURES
              for mode, _aqm_on in _MODES]
    for (label, mode), row in zip(labels, results):
        table.add_row(arch=label, mode=mode, **row)
    return table
