"""The Lookup Engine — Section V-C and Figure 17 of the paper.

The Lookup Engine is a parallel 2-D lookup network: one dimension
parallelises across the embedding tables touched by a single input (up to
26 distinct tables in the Criteo models), the other across the inputs of a
mini-batch.  During the learning phase it feeds accessed indices to the
EAL; during the acceleration phase it classifies each input as popular
(every index tracked by the EAL) or non-popular.  This module keeps the
array's cycle model; the classification runs on the placement's
:class:`~repro.core.hotset.HotSetIndex`.

Each engine contains registers for the table number and index, and a
*randomizer* — a low-latency Feistel network (Luby-Rackoff construction) —
that hashes the (table, index) tuple to scatter values across the EAL and
prevent thrashing.
"""

from __future__ import annotations

import numpy as np


class FeistelRandomizer:
    """A small balanced Feistel network over 32-bit values.

    Four rounds of a keyed round function give a cheap pseudo-random
    permutation, which is all the EAL needs to spread keys across banks.
    """

    def __init__(self, seed: int = 0, rounds: int = 4):
        if rounds < 1:
            raise ValueError("at least one Feistel round is required")
        rng = np.random.default_rng(seed)
        self.rounds = rounds
        self._round_keys = [int(k) for k in rng.integers(0, 2**16, size=rounds)]

    @staticmethod
    def _round_function(value, key: int):
        mixed = (value * 0x9E37 + key) & 0xFFFF
        mixed ^= mixed >> 7
        mixed = (mixed * 0x85EB) & 0xFFFF
        return mixed ^ (mixed >> 9)

    @staticmethod
    def _word(value):
        """The low 32 bits of an int, or of every element of an array
        (as ``uint64``; a negative element wraps as a negative int does)."""
        if isinstance(value, np.ndarray):
            return value.astype(np.uint64) & 0xFFFFFFFF
        return int(value) & 0xFFFFFFFF

    def hash(self, value):
        """Permute a value, or every element of an integer array.

        Callers take the result modulo the bank/set count.  Ints and
        ``uint64`` arrays go through the same arithmetic, and no
        intermediate reaches 2**32, so an array's elements hash exactly as
        they would one at a time.
        """
        value = self._word(value)
        left = (value >> 16) & 0xFFFF
        right = value & 0xFFFF
        for key in self._round_keys:
            left, right = right, left ^ self._round_function(right, key)
        return (left << 16) | right

    def inverse(self, value):
        """Invert the permutation (Feistel networks are bijective)."""
        value = self._word(value)
        left = (value >> 16) & 0xFFFF
        right = value & 0xFFFF
        for key in reversed(self._round_keys):
            left, right = right ^ self._round_function(left, key), left
        return (left << 16) | right


class LookupEngineArray:
    """The cycle model of the array of (by default 64) lookup engines.

    How many accelerator cycles classifying a mini-batch takes, given the
    2-D parallelism (tables within an input x inputs within the
    mini-batch) and the engine-count limit.  The classification itself is
    :meth:`~repro.core.hotset.HotSetIndex.classify` (through
    :func:`repro.data.skew.popular_input_mask` outside a trainer).
    """

    def __init__(self, num_engines: int = 64):
        if num_engines <= 0:
            raise ValueError("the array needs at least one engine")
        self.num_engines = num_engines

    def segregation_cycles(self, batch_size: int, lookups_per_input: int) -> int:
        """Accelerator cycles to classify one mini-batch.

        The 2-D network processes up to ``num_engines`` lookups per cycle;
        every lookup of every input must be checked once.
        """
        total_lookups = batch_size * lookups_per_input
        if total_lookups <= 0:
            return 0
        return -(-total_lookups // self.num_engines)  # ceil division
