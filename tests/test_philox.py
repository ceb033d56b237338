"""The sampler's Philox words against numpy's Philox bit generator, bit for bit.

evasive._philox_words is the only source of randomness in src/eil. It must
give the words of np.random.Philox(seed).random_raw for every seed the
commands pass (trial seeds, and trial seeds XOR SEED_Y_SALT for Y), and the
words must not depend on how many are drawn at a time, since sample_poly
draws until it has kept enough.
"""

import random
from itertools import islice

import numpy as np
import pytest

from eil.evasive import _philox_key, _philox_words, sample_poly
from eil.incidence import SEED_Y_SALT
from oracles import philox_poly, same

SIZES = (1, 3, 4, 5, 20, 35, 56, 57)
_rng = random.Random(2024)
SEEDS = ([0, 1, 2**32 - 1, 2**32, 2**64 - 1]
         + [s ^ SEED_Y_SALT for s in range(300)]
         + [_rng.getrandbits(_rng.randint(1, 300)) for _ in range(200)])


def words(seed: int, n: int) -> list[int]:
    return list(islice(_philox_words(seed), n))


def test_key_is_the_seed_sequence_state():
    # the key hashes the seed's 32-bit words into a pool of four and mixes
    # any words past the fourth in after: the seeds have 1 to 10 words
    assert {(max(s.bit_length(), 1) + 31) // 32 for s in SEEDS} == set(range(1, 11))
    for seed in SEEDS:
        state = np.random.SeedSequence(seed).generate_state(2, np.uint64).tolist()
        assert _philox_key(seed) == tuple(state), seed


@pytest.mark.parametrize("n", SIZES)
def test_words_match_numpy_philox(n):
    for seed in SEEDS:
        assert words(seed, n) == np.random.Philox(seed).random_raw(n).tolist(), seed


@pytest.mark.parametrize("first,second", [(1, 56), (3, 17), (4, 4), (5, 52), (20, 15)])
def test_stream_read_in_two_draws_is_one_stream(first, second):
    for seed in SEEDS[::7]:
        whole = words(seed, first + second)
        bits = np.random.Philox(seed)
        assert bits.random_raw(first).tolist() + bits.random_raw(second).tolist() == whole
        stream = _philox_words(seed)
        assert list(islice(stream, first)) + list(islice(stream, second)) == whole


@pytest.mark.parametrize("q,t", [(2, 3), (3, 3), (7, 4), (61, 5), (1048573, 3)])
def test_sample_poly_matches_numpy_sampler(q, t):
    for seed in SEEDS[::5]:
        assert same(sample_poly(q, t, seed), philox_poly(q, t, seed))
