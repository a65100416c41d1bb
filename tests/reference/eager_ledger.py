"""Test oracle: ledger counters kept eagerly, one ``inc`` per field.

What ``src/`` did until the ledgers were stored once: every owner of a
ledger (``Link``, ``ControlChannel``, ``ControlAgent``) asked a plain
registry for one get-or-create ``Counter`` per field and ``inc``ed it as
the field moved. Production now declares the fields with
``MetricsRegistry.mirror`` and the registry reads them off the owner;
``test_mirrored_counters.py`` drives both and requires equal rows. The
field tables are spelled out here, not imported, so a renamed export
fails the comparison.
"""

from repro.telemetry.registry import MetricsRegistry

LINK = (("delivered", "net.link.delivered", {}),
        ("bytes_sent", "net.link.bytes_sent", {}),
        ("dropped_overflow", "net.link.dropped", {"cause": "overflow"}),
        ("dropped_down", "net.link.dropped", {"cause": "down"}))
#: fetched by the first ``set_aqm(discipline)``, never before
LINK_AQM = (("dropped_aqm", "net.link.dropped", {"cause": "aqm"}),
            ("marked_ecn", "net.link.ecn_marked", {}))
CHANNEL = (("messages", "epc.channel.messages", {}),
           ("bytes", "epc.channel.bytes", {}),
           ("dropped", "epc.channel.dropped", {}))
AGENT = (("processed", "epc.agent.processed", {}),)


class EagerLedger:
    """A plain registry whose counters follow the watched attributes by
    ``inc``: call :meth:`record` after anything that may move one."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._fields = {}   # (id(owner), attribute) -> [owner, counter, seen]

    def watch(self, owner, fields, **labels) -> None:
        """Fetch ``owner``'s counters; fetching twice is a no-op, as a
        second get-or-create was."""
        for attribute, name, extra in fields:
            self._fields.setdefault(
                (id(owner), attribute),
                [owner, self.registry.counter(name, **labels, **extra), 0])

    def record(self) -> None:
        for (_id, attribute), field in self._fields.items():
            owner, counter, seen = field
            field[2] = getattr(owner, attribute)
            counter.inc(field[2] - seen)
