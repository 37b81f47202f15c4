"""Deterministic derivation of independent random substreams from one master seed.

Substreams are keyed by string tokens (model id, finding, group, purpose) so
that the same (seed, tokens) always yields the same stream, regardless of how
many other streams were drawn in between. This is what makes generation and
bootstrapping reproducible and safely parallelizable.
"""

from __future__ import annotations

import zlib

import numpy as np


def _token_words(tokens: tuple[str, ...]) -> list[int]:
    return [zlib.crc32(t.encode("utf-8")) for t in tokens]


def check_seed(seed: int) -> int:
    """The seed; ValueError unless it is an int, not a bool, in [0, 2**64),
    where seeds would alias."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed!r}")
    return seed


def substream(seed: int, *tokens: str) -> np.random.Generator:
    """Return a generator for the substream identified by (seed, tokens)."""
    ss = np.random.SeedSequence([check_seed(seed), *_token_words(tokens)])
    return np.random.Generator(np.random.Philox(ss))
