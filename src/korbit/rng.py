"""Deterministic random sampling keyed by seed and purpose.

Every verification campaign draws from a Philox stream keyed by the user
seed together with a short purpose string, so adding or reordering checks
never shifts the samples of the others.
"""
from __future__ import annotations

import functools

import numpy as np

#: Half-width of the box functionals are drawn from.
FUNCTIONAL_RADIUS = 2.0

#: Half-width of the box group-log coordinates are drawn from.
COORDINATE_RADIUS = 1.5


def generator(seed: int, *key_parts: object) -> np.random.Generator:
    """Generator for one named sampling campaign: Philox with key
    (seed, subkey) and counter 0, the subkey the first eight bytes of the
    SHA-256 of the key parts.

    The stream is that of Generator(Philox(key=[seed, subkey])), but the
    key reaches Philox through its seed argument, as the state of a
    one-key seed sequence (_key_sequence): given a key, Philox first
    derives one from a SeedSequence of fresh OS entropy and then
    overwrites it, which took more than half of each call's time.  The
    class is made on first use: importing numpy.random, which numpy 2
    defers until it is used, took 7 to 10 ms on a 2-core x86-64 machine,
    which every ``import korbit`` would pay.  hashlib is imported here for
    the same reason: loading it (OpenSSL) took about 5 ms.
    """
    import hashlib

    digest = hashlib.sha256("\x1f".join(str(p) for p in key_parts).encode()).digest()
    subkey = int.from_bytes(digest[:8], "little")
    key = _key_sequence()(np.array([seed, subkey], dtype=np.uint64))
    return np.random.Generator(np.random.Philox(key))


@functools.cache
def _key_sequence() -> type:
    """A numpy.random.bit_generator.ISeedSequence, numpy's documented seed
    interface, whose generate_state hands over a fixed Philox key."""
    from numpy.random.bit_generator import ISeedSequence

    class KeySequence(ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key: np.ndarray) -> None:
            self.key = key

        def generate_state(self, n_words: int, dtype: type = np.uint32) -> np.ndarray:
            return self.key

    return KeySequence


def sample_functionals(seed: int, n: int, *key_parts: object) -> np.ndarray:
    """Draw n functionals uniformly from the standard box, shape (n, 7)."""
    rng = generator(seed, "functional", *key_parts)
    return rng.uniform(-FUNCTIONAL_RADIUS, FUNCTIONAL_RADIUS, size=(n, 7))


def sample_coordinates(seed: int, n: int, *key_parts: object) -> np.ndarray:
    """Draw n group-log coordinate vectors, shape (n, 7)."""
    rng = generator(seed, "coordinate", *key_parts)
    return rng.uniform(-COORDINATE_RADIUS, COORDINATE_RADIUS, size=(n, 7))
