"""Random-state helpers.

All stochastic components in the package accept either ``None``, an integer
seed or a :class:`numpy.random.Generator` and normalise it through
:func:`as_rng` so experiments are reproducible end to end.
"""

from __future__ import annotations

import numpy as np

RandomState = int | np.random.Generator | None


def as_rng(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` gives a freshly seeded generator, an ``int`` gives a
    deterministic generator and an existing generator is passed through
    unchanged (so that state can be shared between components).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seed_ints(seed: int, count: int) -> list[int]:
    """``count`` independent *integer* seeds derived from ``seed``.

    Plain ints keep each child run individually serializable (the Study API
    records them in specs and checkpoints).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]
