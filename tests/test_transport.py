"""Unit/integration tests for the transport layer (TCP vs QUIC models)."""

import ipaddress

import pytest

from repro.net import Host, InternetCore, Router
from repro.simcore import Simulator
from repro.transport import (
    BulkTransferApp,
    ConnectionState,
    QuicConnection,
    QuicListener,
    TcpConnection,
    TcpListener,
    TransportDemux,
)
from repro.transport.base import INITIAL_CWND

IP = ipaddress.IPv4Address


class Net:
    """A client behind AP-A, a second AP-B, and an OTT server."""

    def __init__(self, seed=1, access_delay_s=0.02):
        self.sim = Simulator(seed)
        sim = self.sim
        self.inet = InternetCore(sim)
        self.ap_a = Router(sim, "ap_a")
        self.ap_b = Router(sim, "ap_b")
        self.server_edge = Router(sim, "server_edge")
        self.inet.attach(self.ap_a, "10.1.0.0/16", access_delay_s=access_delay_s)
        self.inet.attach(self.ap_b, "10.2.0.0/16", access_delay_s=access_delay_s)
        self.inet.attach(self.server_edge, "203.0.113.0/24", access_delay_s=0.005)

        self.client = Host(sim, "client", IP("10.1.0.5"))
        self.client.connect_bidirectional(self.ap_a, rate_bps=20e6, delay_s=0.005)
        self.ap_a.add_route("10.1.0.5/32", "client")

        self.server = Host(sim, "server", IP("203.0.113.10"))
        self.server.connect_bidirectional(self.server_edge, rate_bps=1e9,
                                          delay_s=0.001)
        self.server_edge.add_route("203.0.113.10/32", "server")

        self.cd = TransportDemux(self.client)
        self.sd = TransportDemux(self.server)

    def move_client_to_b(self):
        """Re-home the client: new address from AP-B's pool, new links."""
        new_addr = IP("10.2.0.7")
        # detach from A (old address routes now blackhole at ap_a, and
        # the radio link is gone in both directions)
        self.ap_a.remove_routes_to("client")
        self.client.links.pop("ap_a", None)
        self.ap_a.links.pop("client", None)
        # attach to B
        self.client.connect_bidirectional(self.ap_b, rate_bps=20e6, delay_s=0.005)
        self.ap_b.add_route("10.2.0.7/32", "client")
        self.client.addresses = [new_addr]
        self.client.default_gateway = "ap_b"
        return new_addr


def _bulk(net, cls, listener_cls, nbytes=100_000, **kw):
    listener_cls(net.sim, net.sd)
    app = BulkTransferApp(net.sim, net.cd, net.server.address, cls,
                          total_bytes=nbytes, **kw)
    app.start()
    return app


# -- basic delivery -------------------------------------------------------------

def test_tcp_completes_transfer():
    net = Net()
    app = _bulk(net, TcpConnection, TcpListener)
    net.sim.run(until=30)
    assert app.done_at is not None
    assert app._acked_total() == 100_000


def test_quic_completes_transfer():
    net = Net()
    app = _bulk(net, QuicConnection, QuicListener)
    net.sim.run(until=30)
    assert app.done_at is not None


def test_quic_fresh_setup_faster_than_tcp_tls():
    """1-RTT QUIC vs 2-RTT TCP+TLS on the same network."""
    tcp_net, quic_net = Net(), Net()
    tcp_app = _bulk(tcp_net, TcpConnection, TcpListener, nbytes=1200)
    quic_app = _bulk(quic_net, QuicConnection, QuicListener, nbytes=1200)
    tcp_net.sim.run(until=10)
    quic_net.sim.run(until=10)
    rtt = 2 * (0.02 + 0.005 + 0.005)  # ~60 ms client<->server
    assert tcp_app.done_at - quic_app.done_at == pytest.approx(rtt, rel=0.5)


def test_tcp_without_tls_saves_one_rtt():
    with_tls, without = Net(), Net()
    a = _bulk(with_tls, TcpConnection, TcpListener, nbytes=1200)
    b = _bulk(without, TcpConnection, lambda s, d: TcpListener(s, d, tls=False),
              nbytes=1200, tls=False)
    with_tls.sim.run(until=10)
    without.sim.run(until=10)
    assert b.done_at < a.done_at


def test_quic_0rtt_resumption():
    """Second QUIC connection to the same server starts with data in flight."""
    net = Net()
    QuicListener(net.sim, net.sd)
    first = BulkTransferApp(net.sim, net.cd, net.server.address,
                            QuicConnection, total_bytes=1200)
    first.start()
    net.sim.run(until=5)
    assert first.done_at is not None
    assert not first.conn.used_0rtt

    second = BulkTransferApp(net.sim, net.cd, net.server.address,
                             QuicConnection, total_bytes=1200)
    second.start()
    t0 = net.sim.now
    net.sim.run(until=10)
    assert second.conn.used_0rtt
    # one-way request + acks: completion ~1 RTT total, vs ~2 RTT fresh
    assert (second.done_at - t0) < (first.done_at * 0.75)


def test_cwnd_grows_during_transfer():
    net = Net()
    app = _bulk(net, TcpConnection, TcpListener, nbytes=500_000)
    net.sim.run(until=30)
    assert app.conn.cwnd > INITIAL_CWND


def test_send_on_closed_connection_rejected():
    net = Net()
    conn = TcpConnection(sim=net.sim, demux=net.cd, peer_addr=net.server.address)
    conn.close()
    with pytest.raises(RuntimeError):
        conn.send_app_data(100)


def test_send_zero_bytes_rejected():
    net = Net()
    conn = TcpConnection(sim=net.sim, demux=net.cd, peer_addr=net.server.address)
    with pytest.raises(ValueError):
        conn.send_app_data(0)


def test_bulk_app_validates_total():
    net = Net()
    with pytest.raises(ValueError):
        BulkTransferApp(net.sim, net.cd, net.server.address, TcpConnection,
                        total_bytes=0)


# -- loss recovery -----------------------------------------------------------------

def test_recovery_from_queue_drops():
    """A tight bottleneck forces drops; the transfer still completes."""
    net = Net()
    # throttle the client uplink hard
    net.client.links["ap_a"].rate_bps = 2e6
    net.client.links["ap_a"].queue_packets = 5
    app = _bulk(net, TcpConnection, TcpListener, nbytes=300_000)
    net.sim.run(until=60)
    assert app.done_at is not None
    assert app.conn.retransmissions > 0


# -- migration: the E6 contrast ------------------------------------------------------

def _run_until_partial(net, app, fraction=0.3, deadline=30.0):
    """Advance sim until the transfer is partially complete."""
    target = app.total_bytes * fraction
    while net.sim.now < deadline and app._acked_total() < target:
        net.sim.run(until=net.sim.now + 0.05)


def test_tcp_breaks_on_address_change():
    net = Net()
    app = _bulk(net, TcpConnection, TcpListener, nbytes=2_000_000)
    _run_until_partial(net, app, 0.2)
    first_conn = app.conn
    new_addr = net.move_client_to_b()
    app.on_address_change(new_addr)
    net.sim.run(until=net.sim.now + 10)
    assert first_conn.state in (ConnectionState.BROKEN, ConnectionState.CLOSED)
    assert app.reconnects >= 1
    net.sim.run(until=120)
    assert app.done_at is not None  # resumed on a fresh connection


def test_quic_survives_address_change():
    net = Net()
    app = _bulk(net, QuicConnection, QuicListener, nbytes=2_000_000)
    _run_until_partial(net, app, 0.2)
    first_conn = app.conn
    new_addr = net.move_client_to_b()
    app.on_address_change(new_addr)
    net.sim.run(until=120)
    assert app.done_at is not None
    assert app.conn is first_conn           # same connection throughout
    assert app.reconnects == 0
    assert first_conn.migrations == 1


def test_quic_interruption_much_shorter_than_tcp():
    """The §4.2 claim, end to end: endpoint mobility is cheap with QUIC."""
    stalls = {}
    for name, cls, listener in (("tcp", TcpConnection, TcpListener),
                                ("quic", QuicConnection, QuicListener)):
        net = Net()
        app = _bulk(net, cls, listener, nbytes=2_000_000)
        _run_until_partial(net, app, 0.2)
        new_addr = net.move_client_to_b()
        app.on_address_change(new_addr)
        net.sim.run(until=120)
        assert app.done_at is not None
        stalls[name] = max(t1 - t0 for t0, t1 in
                           app.stall_intervals(min_gap_s=0.0))
    assert stalls["quic"] < stalls["tcp"] / 2


def test_quic_keeps_congestion_state_across_migration():
    """Adjacent-path heuristic: migration does not reset the window."""
    net = Net()
    app = _bulk(net, QuicConnection, QuicListener, nbytes=2_000_000)
    _run_until_partial(net, app, 0.2)
    cwnd_before = app.conn.cwnd
    assert cwnd_before > 10  # grown past the initial window
    new_addr = net.move_client_to_b()
    app.on_address_change(new_addr)
    assert app.conn.cwnd == cwnd_before


def test_quic_strict_rfc_mode_resets_window():
    net = Net()
    app = _bulk(net, QuicConnection, QuicListener, nbytes=2_000_000)
    _run_until_partial(net, app, 0.2)
    app.conn.reset_cwnd_on_migration = True
    assert app.conn.cwnd > 10
    new_addr = net.move_client_to_b()
    app.on_address_change(new_addr)
    assert app.conn.cwnd == 10.0


def test_quic_migration_judgment_detects_blackout_loss():
    """After a break-before-make handover with a radio blackout, the
    deferred migration judgment finds the lost downlink window and
    burst-recovers it instead of paying one RTO per hole."""
    from repro.experiments.e6_mobility import CorridorHarness, SERVER_ADDR

    harness = CorridorHarness(n_aps=2, seed=3)
    sim = harness.sim
    harness.attach_dlte(0)
    QuicListener(sim, harness.server_demux)
    app = BulkTransferApp(sim, harness.client_demux, SERVER_ADDR,
                          QuicConnection, total_bytes=3_000_000)
    app.start()
    sim.run(until=2.0)
    assert 0 < app._acked_total() < 3_000_000
    # handover with a 100 ms radio gap: the in-flight window dies at the
    # detached AP router
    harness._detach()
    sim.run(until=sim.now + 0.1)
    retx_before = app.conn.retransmissions
    new_addr = harness.attach_dlte(1)
    app.on_address_change(new_addr)
    sim.run(until=sim.now + 2.0)
    # the whole lost window was repaired, not one segment per RTO
    assert app.conn.retransmissions - retx_before > 5
    sim.run(until=60)
    assert app.done_at is not None


def test_quic_server_adopts_new_client_address():
    net = Net()
    app = _bulk(net, QuicConnection, QuicListener, nbytes=1_000_000)
    _run_until_partial(net, app, 0.2)
    new_addr = net.move_client_to_b()
    app.on_address_change(new_addr)
    net.sim.run(until=60)
    server_conn = next(iter(net.sd.listener.accepted.values()))
    assert server_conn.peer_addr == new_addr
