"""Reproducible named random streams.

Each stochastic component of a simulation (arrivals, service demands,
imbalance, network) gets its own independent substream derived from one
master seed.  Independent streams keep variance-reduction comparisons
honest: changing the partition count must not perturb the arrival
process.
"""

from __future__ import annotations

from operator import index
from typing import Dict

import numpy as np


class RandomStreams:
    """A family of independent RNGs spawned from one master seed."""

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self._streams: Dict[str, np.random.Generator] = {}
        seed = index(master_seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")  # as numpy
        shifts = range(0, max(seed.bit_length(), 128), 32)  # pool: 4 words
        self._words = [seed >> shift & 0xFFFFFFFF for shift in shifts]

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the named substream.

        It is ``SeedSequence(entropy=master_seed, spawn_key=<the name's
        code points>)``, independent of creation order, built from the
        one entropy array numpy assembles from those two.
        """
        if name not in self._streams:
            entropy = self._words + [ord(ch) for ch in name]
            self._streams[name] = np.random.default_rng(
                np.random.SeedSequence(np.array(entropy, dtype=np.uint32))
            )
        return self._streams[name]
