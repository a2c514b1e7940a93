"""Deterministic random-number plumbing shared by every stochastic component.

All randomness in this package flows through :func:`make_generator`, which
builds a ``numpy`` Generator on the counter-based Philox bit stream.  Philox
output is specified by the algorithm itself (not by platform word size or
library version), so two machines seeding with the same integer key produce
bit-identical draws.  Components derive their keys from a master seed plus a
few small integers that identify the component and the repetition, which keeps
independent streams independent without any global state.
"""

from __future__ import annotations

import numpy as np

__all__ = ["STREAM_CALIBRATE", "STREAM_SUBSAMPLE", "make_generator", "derive_seed"]

# Final key part for each independent use of randomness within one run, so
# kernel-threshold calibration and subsample starts never share a stream.
STREAM_CALIBRATE = 7
STREAM_SUBSAMPLE = 11


def derive_seed(*key: int) -> int:
    """Collapse an integer key tuple into one 64-bit seed, portably.

    Used to hand a single integer to components whose configs carry one seed
    field while keeping the underlying streams keyed by the full tuple.
    """
    seq = np.random.SeedSequence(entropy=[int(part) for part in key])
    return int(seq.generate_state(1, np.uint64)[0])


def make_generator(*key: int) -> np.random.Generator:
    """Return a Generator seeded from the given integer key tuple.

    The key is fed to ``numpy.random.SeedSequence`` as entropy, so distinct
    tuples give streams that are independent for all practical purposes, and
    equal tuples give identical streams on every platform.
    """
    if not key:
        raise ValueError("seed key must contain at least one integer")
    ints = []
    for part in key:
        value = int(part)
        if value != part:
            raise ValueError(f"seed key parts must be integers, got {part!r}")
        ints.append(value)
    seq = np.random.SeedSequence(entropy=ints)
    return np.random.Generator(np.random.Philox(seq))
