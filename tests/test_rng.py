"""Keyed sampling streams."""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from korbit import rng

SRC = Path(__file__).resolve().parent.parent / "src"


def _philox(seed, *key_parts):
    """Generator(Philox(key=[seed, subkey])), the stream rng.generator
    draws: the oracle of its one-key seed sequence."""
    text = "\x1f".join(str(p) for p in key_parts)
    subkey = int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")
    return np.random.Generator(np.random.Philox(key=np.array([seed, subkey], dtype=np.uint64)))


def test_keyed_streams_are_philox_at_the_key():
    """uniform, integers and random draw the streams of Philox keyed
    directly, at the extreme seeds and at 200 random keys."""
    gen = np.random.default_rng(2024)
    seeds = [0, 1, 2**63, 2**64 - 1] + gen.integers(0, 2**64, 200, dtype=np.uint64).tolist()
    for n, seed in enumerate(seeds):
        parts = ("functional", f"G{n % 16 + 1}", n)
        ours, oracle = rng.generator(seed, *parts), _philox(seed, *parts)
        np.testing.assert_array_equal(ours.uniform(-2.0, 2.0, 50), oracle.uniform(-2.0, 2.0, 50))
        np.testing.assert_array_equal(ours.integers(-6, 7, 50), oracle.integers(-6, 7, 50))
        np.testing.assert_array_equal(ours.random((3, 7)), oracle.random((3, 7)))
        state = ours.bit_generator.state["state"]
        np.testing.assert_array_equal(state["key"], oracle.bit_generator.state["state"]["key"])


def test_import_leaves_numpy_random_unimported():
    """numpy 2 imports numpy.random on first use; korbit, with catalog and
    verify, defers it to the first draw."""
    script = (
        "import sys\n"
        "import korbit\n"
        "from korbit import catalog, verify\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random imported'\n"
        "korbit.rng.generator(0, 'x').random()\n"
        "assert 'numpy.random' in sys.modules\n"
    )
    subprocess.run(
        [sys.executable, "-c", script],
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )


def test_import_leaves_hashlib_unimported():
    """Loading hashlib (OpenSSL) takes milliseconds; korbit, with catalog
    and verify, imports it at the first draw, for the key's SHA-256."""
    script = (
        "import sys\n"
        "import korbit\n"
        "from korbit import catalog, verify\n"
        "assert 'hashlib' not in sys.modules, 'hashlib imported'\n"
        "korbit.rng.generator(0, 'x').random()\n"
        "assert 'hashlib' in sys.modules\n"
    )
    subprocess.run(
        [sys.executable, "-c", script],
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
