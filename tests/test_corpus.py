"""Pins of what the corpus draws.

`cantorwit corpus` prints only pass counts, so a suite that drew other
inputs would still print the same lines.  These tests pin, for each suite,
a digest of its summary line and of the final state of the
`random.Random` that `run_suite` makes, and a digest of the text of what
each generator returns.  The benchmark draws its inputs from the same
generators, so a changed digest here means changed benchmark inputs too.
"""

import hashlib
import random

import pytest

from cantorwit import corpus
from cantorwit.corpus import (random_clopen, random_element, random_rist_element,
                              random_witness_input)


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


# (arity, suite index) -> digest of the suite's line and final generator
# state, at scale 10 on seed 42 + index, as `corpus --seed 42 --quick` runs it.
SUITE_DRAWS = {
    (2, 0): "e36cf66e41895d5d",
    (2, 1): "5106ed204b173208",
    (2, 2): "8a6a6201af740459",
    (2, 3): "a1458e70567fc77f",
    (2, 4): "12dde357f4cc76e5",
    (2, 5): "38fd8ff839e2c980",
    (2, 6): "46bc18337a624ea2",
    (3, 0): "45f166f9a9717550",
    (3, 1): "cef9f6e28cfbdc77",
    (3, 2): "4b006f6f857fcbb1",
    (3, 3): "1aac44f93dd34f77",
    (3, 4): "29d15821ded05c78",
    (3, 5): "f22d526e4bf54287",
    (3, 6): "6436253c7f54825a",
}


@pytest.mark.parametrize(("arity", "index"), sorted(SUITE_DRAWS))
def test_suite_draws_are_pinned(monkeypatch, arity, index):
    made = []

    class Recording(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(random, "Random", Recording)
    res = corpus.run_suite(index, 42 + index, arity, 10)
    (rng,) = made
    assert _digest(res.line(), rng.getstate()) == SUITE_DRAWS[arity, index]


# arity -> digest of the text of every generator output drawn below.
GENERATOR_OUTPUTS = {
    2: "94686f6ca5f27412",
    3: "21aa38e4a955b806",
    4: "76e1a59e70a645c1",
}


@pytest.mark.parametrize("arity", sorted(GENERATOR_OUTPUTS))
def test_generator_outputs_are_pinned(arity):
    rng = random.Random(arity)
    texts = []
    for _ in range(5):
        for full_union in (False, True):
            texts.extend(map(str, random_witness_input(rng, arity, full_union)))
        for proper in (True, False):
            texts.append(str(random_clopen(rng, arity, proper=proper)))
        texts.append(str(random_element(rng, arity)))
        texts.append(str(random_element(rng, arity, 4, nontrivial=True)))
        texts.append(str(random_rist_element(rng, random_clopen(rng, arity))))
    assert _digest(texts, rng.getstate()) == GENERATOR_OUTPUTS[arity]
