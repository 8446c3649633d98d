"""Counter-based random streams.

Every stochastic routine in this package draws from a Philox generator
keyed by (seed, trial) with the counter block preloaded from (round,
purpose).  Distinct purposes never share a stream, so any single trial of
any campaign can be reproduced in isolation without replaying the rest of
the run, and parallel trials cannot collide.

Two routes give a cell's stream.  ``stream`` builds a fresh generator: the
one-off route and the reference.  ``Streams.rekey`` sets one generator, made
once per loop, to the state a fresh ``stream`` of the cell starts in, so its
draws are the same; it costs a fraction of building a generator, which
draws OS entropy for a seed sequence that a given key then discards.
"""

from __future__ import annotations

import numpy as np

# Purpose words for the counter block.  These are part of the
# reproducibility contract: changing them changes every stochastic output.
EXACT = 1
ROUNDS = 2
SAMPLE = 3
TREE = 4
GNM = 5

_MASK64 = (1 << 64) - 1
# The buffer of a re-keyed generator: never read, since its position marks
# it spent
_SPENT = (0, 0, 0, 0)


def _cell(seed: int, trial: int, round_: int, purpose: int) -> tuple[list[int], list[int]]:
    """Philox key and counter words of one (seed, trial, round, purpose) cell,
    each taken mod 2**64: key (seed, trial), counter (0, 0, round, purpose)."""
    return ([seed & _MASK64, trial & _MASK64],
            [0, 0, round_ & _MASK64, purpose & _MASK64])


def stream(seed: int, trial: int = 0, round_: int = 0, purpose: int = 0) -> np.random.Generator:
    """Independent generator for one (seed, trial, round, purpose) cell."""
    key, counter = _cell(seed, trial, round_, purpose)
    return np.random.Generator(np.random.Philox(counter=np.array(counter, dtype=np.uint64),
                                                key=np.array(key, dtype=np.uint64)))


class Streams:
    """One Philox generator, re-keyed in place for each cell of a loop.

    ``rekey`` returns the same generator on every call, so a returned
    generator is valid until the next ``rekey``: draw what a cell needs
    before moving to the next one.
    """

    def __init__(self):
        self._bits = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bits)

    def rekey(self, seed: int, trial: int = 0, round_: int = 0,
              purpose: int = 0) -> np.random.Generator:
        """The generator, set to draw what ``stream(seed, trial, round_,
        purpose)`` draws."""
        key, counter = _cell(seed, trial, round_, purpose)
        # a fresh generator's state: the buffer spent (position 4), so the
        # first draw advances the counter, and no buffered 32-bit half
        self._bits.state = {"bit_generator": "Philox",
                            "state": {"key": key, "counter": counter},
                            "buffer": _SPENT, "buffer_pos": 4,
                            "has_uint32": 0, "uinteger": 0}
        return self._gen
