"""Count gate: what one control message costs, in heap events and frames.

A source sends ``MESSAGES`` messages over a channel to a core agent
whose handler does nothing, and the run is traced with ``sys.settrace``:
``call`` events count Python frames, and the simulator counts heap
events. Both are divided by the messages served. The counts repeat
exactly from run to run and time nothing. The same graph built from
:mod:`tests.reference.control` (a queue gauge set on every change and a
service start through ``_serve_next``) is the reference.

Four agent states:

- idle: messages 2 ms apart at 0.5 ms of service, so every arrival
  finds the agent idle;
- burst: all messages sent at one instant, as X2 peers that report on
  one clock send them;
- queued: messages 0.3 ms apart, so each arrives mid-service;
- overload: the burst again under an ``OverloadPolicy``.

Every state costs exactly the reference's two heap events per message:
its arrival and its service completion. Frames per message stay
strictly below the reference's in every state, because the queue-depth
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


#: state -> max frames per message. Measured 8.02 / 8.02 / 8.02 / 9.02;
#: the reference reads 13.02 / 12.03 / 12.03 / 13.03.
STATES = {"idle": 8.1, "burst": 8.1, "queued": 8.1, "overload": 9.1}


@pytest.mark.parametrize("state", list(STATES))
def test_a_control_message_costs_two_events_and_fewer_frames(state):
    events, calls = _cost(state)
    ref_events, ref_calls = _cost(state, reference=True)
    assert events == ref_events == 2.0, (state, events, ref_events)
    assert calls <= STATES[state], (state, events, calls)
    assert calls < ref_calls, (state, calls, ref_calls)
