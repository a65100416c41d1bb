"""Count gate: what one control message costs, in heap events and frames.

A source sends ``MESSAGES`` messages over a channel to a core agent
whose handler does nothing, and the run is traced with ``sys.settrace``:
``call`` events count Python frames, and the simulator counts heap
events. Both are divided by the messages served. The counts repeat
exactly from run to run and time nothing. The same graph built from
:mod:`tests.reference.control` (one arrival event per message, a queue
gauge set on every change) is what the agent cost before arrivals that
find it busy were parked.

Four agent states:

- idle: messages 2 ms apart at 0.5 ms of service, so every arrival
  finds the agent idle and is posted: two events, as before;
- burst: all messages sent at one instant, as X2 peers that report on
  one clock send them: the first arrival is posted and starts the busy
  period, the other k - 1 park, so k messages cost k + 1 events (2k
  before);
- queued: messages 0.3 ms apart, so each arrives mid-service and parks;
- overload: the burst again under an ``OverloadPolicy``, which parks
  nothing (its sheds can end a busy period): two events per message.

Frames fall in every state, parked or not, because the queue-depth
gauge is read at export instead of set twice per message and the
service start is inline in ``enqueue`` and ``_finish``.
"""

import sys

import pytest

from repro.epc.agents import ControlChannel
from repro.epc.overload import OverloadPolicy
from repro.simcore import Simulator
from tests.callback_agent import CallbackAgent
from tests.reference.control import ReferenceAgent, ReferenceChannel

MESSAGES = 64
SERVICE_S = 0.5e-3


class _ReferenceCallbackAgent(ReferenceAgent):
    def handle(self, message):
        pass


def _cost(state, reference=False):
    """(heap events, frames) per served message over one traced run."""
    sim = Simulator(seed=1)
    agent_cls, channel_cls = ((_ReferenceCallbackAgent, ReferenceChannel)
                              if reference else (CallbackAgent, ControlChannel))
    source = agent_cls(sim, "src", service_time_s=0.0)
    core = agent_cls(sim, "core", service_time_s=SERVICE_S)
    if state == "overload":
        core.configure_overload(OverloadPolicy(queue_limit=MESSAGES))
    channel = channel_cls(sim, source, core, 1e-3, name="s1")
    gap_s = {"idle": 2e-3, "queued": 0.3e-3}.get(state, 0.0)
    for k in range(MESSAGES):
        sim.at(k * gap_s, channel.send, source, k)
    calls = 0

    def tracer(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1
        return None

    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        sim.run()
    finally:
        sys.settrace(outer)
    assert core.processed == MESSAGES
    # the source's own sends are scheduled calls, one event each
    return (sim.events_executed - MESSAGES) / MESSAGES, calls / MESSAGES


#: state -> max frames per message. Measured 10.02 / 7.11 / 8.27 / 11.02;
#: the reference reads 13.05 / 14.00 / 12.84 / 15.00.
STATES = {"idle": 10.1, "burst": 7.2, "queued": 8.3, "overload": 11.1}
#: heap events per message: two when the arrival is posted, and k + 1
#: for k messages when all but the first park
EVENTS = {"idle": 2.0, "burst": (MESSAGES + 1) / MESSAGES,
          "queued": (MESSAGES + 1) / MESSAGES, "overload": 2.0}


@pytest.mark.parametrize("state", list(STATES))
def test_a_control_message_costs_one_event_when_its_agent_is_busy(state):
    events, calls = _cost(state)
    assert events == EVENTS[state], (state, events, calls)
    assert calls <= STATES[state], (state, events, calls)
    ref_events, ref_calls = _cost(state, reference=True)
    assert ref_events == 2.0
    assert calls < ref_calls, (state, calls, ref_calls)
