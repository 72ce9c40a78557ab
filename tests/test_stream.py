"""The random stream against a plain-integer SplitMix64, bit for bit.

The reference below is written from the definitions in tasksim.stream's
docstring with Python ints, and shares no code with the module.
"""

import random

from tasksim.evaluation import stratified_folds
from tasksim.learn import forest

_MASK = 2**64 - 1
_SEEDS = [*range(51), 2**64 - 1, 2**64, 2**70 + 3]


def splitmix(state, counter):
    z = (state + (counter + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK
    return z ^ z >> 31


def seed_key(seed):
    key = splitmix(0, seed & _MASK)
    while seed := seed >> 64:
        key = splitmix(key, seed & _MASK)
    return key


def reference_bootstraps(seed, n_trees, n):
    key = seed_key(seed)
    return [
        [(splitmix(splitmix(key, 2 * t), i) >> 32) * n >> 32 for i in range(n)]
        for t in range(n_trees)
    ]


def reference_folds(labels, k, seed):
    fold_key = splitmix(seed_key(seed), 2**64 - 1)
    by_class = {}
    for idx, label in enumerate(labels):
        by_class.setdefault(label, []).append(idx)
    folds = [[] for _ in range(k)]
    for c, label in enumerate(sorted(by_class)):
        members = by_class[label]
        class_key = splitmix(fold_key, c)
        order = sorted(range(len(members)), key=lambda i: splitmix(class_key, i))
        for j, i in enumerate(order):
            folds[j % k].append(members[i])
    return [sorted(fold) for fold in folds]


def test_reference_is_splitmix64():
    # SplitMix64 seeded with 1234567: the outputs of Vigna's splitmix64.c
    state, outputs = 1234567, []
    for c in range(3):
        outputs.append(splitmix(state, c))
    assert outputs == [6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_bootstraps_equal_the_reference():
    for seed in _SEEDS:
        for n_trees, n in ((3, 1), (2, 7), (4, 300)):
            expected = reference_bootstraps(seed, n_trees, n)
            assert forest.bootstraps(seed, n_trees, n).tolist() == expected, (seed, n)


def _class_mixes():
    rng = random.Random(5)
    shuffled = [rng.choice("vwxyz") for _ in range(97)]
    return [
        (["a", "b", "c"] * 5, 3),
        (list("bbmbobbmbbmbbm"), 4),
        (["p"] * 10 + ["q"] * 10, 5),
        (["z", "y", "x"], 3),  # one member per class: two folds stay empty
        (["only"] * 12, 2),
        (shuffled, 10),
        (shuffled, 2),
    ]


def test_folds_equal_the_reference():
    for seed in _SEEDS:
        for labels, k in _class_mixes():
            expected = reference_folds(labels, k, seed)
            assert stratified_folds(labels, k, seed) == expected, (seed, k)
