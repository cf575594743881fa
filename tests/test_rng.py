"""Batched keyed streams: ``keyed_normals`` against numpy's own seeding.

``keyed_normals`` reimplements numpy's SeedSequence hash and PCG64 seeding
step; every property here compares it with ``derive_rng`` (numpy's code),
row by row and state by state.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specnash.rng import _pcg64_states, derive_rng, keyed_normals

# Key entries of one word (0 and below 2^32), two words and three or more.
entries = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**100),
)
keys = st.lists(entries, min_size=1, max_size=7).map(tuple)
shapes = st.sampled_from([(), (1,), (5,), (2, 3), (4, 2, 2)])


def numpy_state(key):
    return np.random.default_rng(np.random.SeedSequence(list(key))).bit_generator.state


def words(key):
    return sum(max(1, -(-k.bit_length() // 32)) for k in key)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(batch=st.lists(keys, min_size=1, max_size=6), shape=shapes)
def test_rows_and_states_match_numpy(batch, shape):
    got = keyed_normals(batch, shape)
    assert got.shape == (len(batch), *shape)
    for row, key in zip(got, batch):
        assert row.tobytes() == derive_rng(*key).standard_normal(shape).tobytes()
    assert list(_pcg64_states(batch)) == [numpy_state(key) for key in batch]


@pytest.mark.parametrize("key", [
    (0,), (0, 0, 0), (7,), (2**32 - 1,), (2**32,), (2**32 + 5, 3), (2**64 - 1, 0),
    (2**64, 1), (2**64 + 3, 2**33, 0), (1, 2, 3, 4, 5, 6, 7), (2**96 + 1, 2**70, 5, 0),
])
def test_single_key(key):
    # K = 1, zero counters, roots above 2^32 and 2^64, keys of 1 to 11 words.
    got = keyed_normals([key], (4, 3, 3))
    assert got[0].tobytes() == derive_rng(*key).standard_normal((4, 3, 3)).tobytes()
    assert list(_pcg64_states([key])) == [numpy_state(key)]


def test_word_counts_covered():
    # The third mixing loop runs only for entropy longer than the 4-word pool.
    batch = [(1,), (2**40, 1), (5, 2**40, 1), (1, 2, 3, 4, 5), (2**64 + 9, 2**40, 3, 4)]
    assert [words(k) for k in batch] == [1, 3, 4, 5, 7]
    got = keyed_normals(batch, (3,))
    for row, key in zip(got, batch):
        assert row.tobytes() == derive_rng(*key).standard_normal(3).tobytes()


def test_theorem1_sample_keys():
    # The driver's sample roots exceed 2^32: root_seed * 1000003 + ...
    root = 2_000_000_000 * 1000003 + 7 * 101 + 1
    batch = [(root, s) for s in range(50)]
    got = keyed_normals(batch, (4, 8, 8))
    ref = np.stack([derive_rng(root, s).standard_normal((4, 8, 8)) for s in range(50)])
    assert got.tobytes() == ref.tobytes()


def test_empty_batch():
    assert keyed_normals([], (2, 3)).shape == (0, 2, 3)


@pytest.mark.parametrize("key", [(-1,), (3, -2), (2**40, 0, -5)])
def test_negative_key_raises_like_derive_rng(key):
    with pytest.raises(Exception) as numpy_error:
        derive_rng(*key)
    with pytest.raises(type(numpy_error.value)):
        keyed_normals([(0, 1), key], (2,))


def test_calls_share_no_generator():
    # Each call seeds a generator of its own, so concurrent calls in threads
    # give the same rows as serial ones.
    batches = [[(seed, s) for s in range(40)] for seed in range(8)]
    serial = [keyed_normals(b, (4, 4)) for b in batches]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda b: keyed_normals(b, (4, 4)), batches))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(serial, threaded))
