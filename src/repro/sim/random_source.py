"""Named, independently seeded random streams.

Experiments need reproducible randomness that does not couple unrelated
components: adding an extra draw in the data generator must not perturb the
split-selection sequence of an Input Provider. ``RandomSource`` derives one
``random.Random`` stream per name from a master seed, so each component
owns an independent, stable stream.
"""

from __future__ import annotations

import hashlib
import random


class RandomSource:
    """Factory of named, deterministic ``random.Random`` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = int(master_seed)

    def stream(self, name: str) -> random.Random:
        """A fresh stream for ``name``.

        The stream's seed is a stable hash of ``(master_seed, name)`` so the
        same (seed, name) pair always yields the same sequence regardless of
        creation order. Streams are not kept: callers name one per job.
        """
        return random.Random(self.derive_seed(name))

    def derive_seed(self, name: str) -> int:
        """Stable 64-bit seed for ``name`` under this master seed."""
        digest = hashlib.sha256(f"{self._master_seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomSource(master_seed={self._master_seed})"
