"""The one random stream of tasksim, for the CV folds and the forest: a
counter-based stream (Salmon et al., "Parallel Random Numbers: As Easy as
1, 2, 3", SC 2011) of SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) in
whole-array numpy uint64 code. Every draw is a pure function of its
coordinates, and numpy.random is never imported.

- split(state, c) is SplitMix64's output c + 1 from `state`: its finalizer
  applied to state + (c + 1) * 0x9E3779B97F4A7C15, all mod 2**64. That
  constant is odd and the finalizer a bijection, so distinct counters give
  one state distinct outputs.
- The seed, a non-negative integer of any size, gives the key: starting
  from 0, key = split(key, word) for each 64-bit word of the seed, low word
  first.
- Forest tree t branches off the key at counters 2t and 2t + 1
  (learn/forest.py), the CV folds at FOLD_BRANCH = 2**64 - 1, out of reach
  of any forest. So the fold key is no tree's key, and below the branch a
  fold draw reads a (state, counter) that a forest draw with the same seed
  reads only if two derived 64-bit keys collide. Class c's member i draws
  split(split(fold key, c), i) (evaluation.stratified_folds).
- A draw u maps to [0, b) as ((u >> 32) * b) >> 32, exact in uint64 for
  b < 2**32 and at most b / 2**32 from uniform in total variation.
"""

from __future__ import annotations

import operator

import numpy as np

_WORD = (1 << 64) - 1
FOLD_BRANCH = _WORD  # the last counter

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def split(state: np.ndarray, counter: np.ndarray) -> np.ndarray:
    """SplitMix64's output counter + 1 from each state, broadcast. Both are
    uint64 arrays: a product of numpy scalars warns when it wraps."""
    z = state + (counter + 1) * _GAMMA
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


def below(u: np.ndarray, bound) -> np.ndarray:
    """Draws u mapped to [0, bound) by a 32-bit multiply-shift; bound (an
    int or a broadcast array) is below 2**32."""
    return ((u >> 32) * bound >> 32).astype(np.intp)


def key(seed: int) -> np.ndarray:
    """The key of a non-negative integer seed (numpy's too), as a 1-element
    uint64 array."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    state = np.zeros(1, dtype=np.uint64)
    while True:
        state = split(state, np.array([seed & _WORD], dtype=np.uint64))
        seed >>= 64
        if not seed:
            return state
