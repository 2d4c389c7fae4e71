"""Deterministic random-number streams.

Every stochastic routine in this package draws from a counter-based Philox
generator seeded through :class:`numpy.random.SeedSequence`.  A master seed
plus a chain index fully determines the stream, so any chain can be re-run
on its own and still produce byte-identical output.
"""

from __future__ import annotations

import numpy as np

__all__ = ["philox_stream", "chain_seed_key"]


def philox_stream(seed: int, chain: int = 0) -> np.random.Generator:
    """Return the Philox generator for (master seed, chain index).

    Distinct chains use `SeedSequence.spawn_key`, which guarantees
    non-overlapping streams without any coordination between chains.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if chain < 0:
        raise ValueError(f"chain index must be non-negative, got {chain}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(chain),))
    return np.random.Generator(np.random.Philox(ss))


def chain_seed_key(seed: int, chain: int) -> list[int]:
    """The (entropy, spawn_key) pair identifying one chain's stream.

    Recorded in JSON reports so any single estimate can be reproduced in
    isolation.
    """
    return [int(seed), int(chain)]
