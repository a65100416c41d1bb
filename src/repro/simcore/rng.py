"""Deterministic, namespaced random streams.

A simulation touches randomness from many components (traffic
arrivals, link loss and AQM drops, NAS and CSMA backoff draws…). Drawing
them all from one generator makes results depend on event interleaving;
instead each component asks for a *named* stream, and each stream is
seeded from the root seed plus a stable hash of the name. Two runs with the same seed and
topology then produce identical results regardless of the order in which
components happen to draw.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np


class RngRegistry:
    """Factory and cache of named ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The stream seed mixes the root seed with a CRC of the name, so it
        is stable across processes and Python versions (unlike ``hash``).
        """
        gen = self._streams.get(name)
        if gen is None:
            derived = np.random.SeedSequence([self.seed, zlib.crc32(name.encode())])
            gen = np.random.default_rng(derived)
            self._streams[name] = gen
        return gen

    def __call__(self, name: str) -> np.random.Generator:
        return self.stream(name)

    def __repr__(self) -> str:
        return f"<RngRegistry seed={self.seed} streams={len(self._streams)}>"
