"""Process-wide arming: every simulator born while it is on is audited.

Inside :func:`armed` each new :class:`~repro.simcore.simulator.Simulator`
gets a checker (``sim.checker``, clock law installed; ``sim.run()`` arms
the sweep), the components built on it register themselves, and the
checker is held *strongly* until verified — the flight recorder's
registry is weak, and experiments drop their simulators early.

A scope is one unit of work: a clean exit verifies the simulators born
in it, an exception drops them. Scopes nest: the CLI opens one per
experiment ``run()`` and the worker runtime one per task
(``repro.runner.worker.audited`` is this function while armed), so a
violation in a ``--jobs`` cell comes home as that task's failure and a
retried task is audited again. Forked workers inherit the state.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List

from repro.invariants.checks import InvariantChecker
from repro.runner import worker
from repro.simcore.simulator import Simulator

__all__ = ["armed"]

#: One list per open scope, innermost last: the checkers born in it.
_SCOPES: List[List[InvariantChecker]] = []


def _adopt(sim: Simulator) -> None:
    """``Simulator.arming`` while a scope is open."""
    checker = sim.checker = InvariantChecker(sim)
    checker.watch_clock()
    _SCOPES[-1].append(checker)


@contextlib.contextmanager
def armed() -> Iterator[List[InvariantChecker]]:
    """Audit every simulator built inside the ``with`` block; yields the
    (growing) list of their checkers. A clean exit runs each one's
    :meth:`~InvariantChecker.verify`: the final pass, raising
    ``InvariantError`` (post-mortem written) on the first that broke."""
    born: List[InvariantChecker] = []
    _SCOPES.append(born)
    Simulator.arming, worker.audited = _adopt, armed
    try:
        yield born
    finally:
        _SCOPES.pop()
        if not _SCOPES:
            Simulator.arming, worker.audited = None, contextlib.nullcontext
    for checker in born:
        checker.verify()
