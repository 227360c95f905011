"""Deterministic, splittable random streams.

Every stochastic routine in the package receives an explicit :class:`RngStream`
and derives any sub-streams it needs through :meth:`RngStream.child`.  Streams
are realized with numpy's SFC64 generator keyed through
``SeedSequence(master_seed, spawn_key=stream_index)``, so a given
``(master_seed, stream_index)`` pair reproduces the same sequence on every
platform and is independent of scheduling: parallel tasks never share draws
because their spawn keys differ.  Reproducibility comes from that keying
alone; no stream is ever jumped or advanced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RngStream", "derive_seed"]

_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True)
class RngStream:
    """Identifier of one reproducible random stream.

    Parameters
    ----------
    master_seed: 64-bit integer shared by a whole experiment.
    stream_index: index (or tuple of indices) of this stream below the master
        seed.  Children extend the tuple, giving a collision-free hierarchy.
    """

    master_seed: int
    stream_index: tuple[int, ...] = ()

    def __post_init__(self):
        if not (0 <= int(self.master_seed) <= _UINT64_MAX):
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        idx = self.stream_index
        if isinstance(idx, (int, np.integer)):
            idx = (int(idx),)
        idx = tuple(int(i) for i in idx)
        if any(i < 0 for i in idx):
            raise ValueError("stream indices must be non-negative")
        object.__setattr__(self, "master_seed", int(self.master_seed))
        object.__setattr__(self, "stream_index", idx)

    def child(self, *indices: int) -> "RngStream":
        """Return the sub-stream addressed by ``indices`` below this one."""
        return RngStream(self.master_seed, self.stream_index + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        """Instantiate the numpy generator for this stream."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.stream_index)
        return np.random.Generator(np.random.SFC64(seq))


def derive_seed(master_seed: int, *indices: int) -> int:
    """Collapse a stream address into a fresh 64-bit master seed.

    Used where an interface carries a bare integer seed: the derived seed is
    a deterministic, platform-stable function of the address and never
    collides with sibling addresses in practice.
    """
    seq = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(i) for i in indices))
    return int(seq.generate_state(1, np.uint64)[0])
