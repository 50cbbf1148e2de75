import numpy as np
import pytest

from volhmm.seeds import derive_seed, derive_seeds, streams


def draws(rng):
    """The bytes of a generator's first draws: uniforms, then standard normals."""
    return rng.random(9).tobytes() + rng.standard_normal(9).tobytes()


def assert_streams_equal_default_rng(seeds):
    got = [draws(rng) for rng in streams(seeds)]
    assert got == [draws(np.random.default_rng(seed)) for seed in seeds]


def test_edge_seeds():
    assert_streams_equal_default_rng([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 20240801])


def test_derived_seeds():
    assert_streams_equal_default_rng([derive_seed(20240801, "streams", t) for t in range(2000)])


def test_numpy_integer_seeds():
    assert_streams_equal_default_rng([np.int64(7), np.uint64(2**64 - 1), 3, np.uint64(0)])


def test_seeds_beyond_64_bits_keep_numpy_streams():
    assert_streams_equal_default_rng([2**64, 5, 2**64 + 5, 2**100])


def test_negative_seed_raises_numpy_exception_at_its_turn():
    with pytest.raises(Exception) as want:
        np.random.default_rng(-1)
    rngs = streams([4, -1])
    assert draws(next(rngs)) == draws(np.random.default_rng(4))
    with pytest.raises(want.type):
        next(rngs)


def test_no_seeds():
    assert list(streams([])) == []


def test_interleaved_calls_share_no_state():
    seeds_a, seeds_b = [1, 2, 3], [4, 5, 6]
    for seed_a, seed_b, rng_a, rng_b in zip(seeds_a, seeds_b, streams(seeds_a), streams(seeds_b)):
        want_a, want_b = np.random.default_rng(seed_a), np.random.default_rng(seed_b)
        assert rng_a.random(5).tobytes() == want_a.random(5).tobytes()
        assert draws(rng_b) == draws(want_b)
        assert draws(rng_a) == draws(want_a)


@pytest.mark.parametrize("root", [0, 2**64 - 1])
@pytest.mark.parametrize(
    "parts", [(), ("kl-mc",), ("llr-data",), ("llr-fit", 3, "cir"), ("a|b", -1)]
)
def test_derive_seeds_equal_derive_seed_per_index(root, parts):
    got = derive_seeds(root, *parts, indices=range(2000))
    assert got == [derive_seed(root, *parts, i) for i in range(2000)]
    assert all(type(seed) is int for seed in got)
    # any iterable of indices, in its order, and none
    picked = [1999, 7, np.int64(40), 7]
    want = [derive_seed(root, *parts, i) for i in picked]
    assert derive_seeds(root, *parts, indices=picked) == want
    assert derive_seeds(root, *parts, indices=[]) == []
