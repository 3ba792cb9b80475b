import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairdrop.dataset import split, synthesize_biased
from fairdrop.prng import _LANES, _RUN, XorShift64Star

TOP = 2**64 - 1   # rejected by randrange(m) unless m divides 2**64
K, L = _RUN, _LANES   # a block is L lanes of K consecutive states
# Draw counts at the edges of the lane layout, in the order the tests take
# them: none, one, around one lane, fewer states than lanes, around one
# block, and several blocks plus a tail that ends inside a lane.
LANE_COUNTS = (0, 1, K - 1, K, K + 1, 100, L - 1, K * L - 1, K * L, K * L + 1,
               3 * K * L + 5 * K + 7)


def reference_shuffle(rng, items):
    """The scalar Fisher-Yates pass the block shuffle must reproduce."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


class ScriptedStream(XorShift64Star):
    """Serves a fixed list of raw outputs to scalar and block draws alike."""

    def __init__(self, raw):
        super().__init__(0)
        self.raw = list(raw)

    def next_u64(self):
        return self.raw.pop(0)

    def _u64_block(self, count):
        out = np.array(self.raw[:count], dtype=np.uint64)
        del self.raw[:count]
        return out


def test_same_seed_same_stream():
    a = XorShift64Star(42)
    b = XorShift64Star(42)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_differ():
    a = XorShift64Star(1)
    b = XorShift64Star(2)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_zero_seed_is_valid():
    r = XorShift64Star(0)
    assert r.next_u64() != 0


def test_random_in_unit_interval():
    r = XorShift64Star(7)
    values = [r.random() for _ in range(10_000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert abs(np.mean(values) - 0.5) < 0.02


def test_uniform_block_matches_scalar_draws():
    block = XorShift64Star(11).uniform_block(500)
    scalar = XorShift64Star(11)
    assert list(block) == [scalar.random() for _ in range(500)]


def test_randrange_bounds_and_coverage():
    r = XorShift64Star(3)
    draws = [r.randrange(7) for _ in range(5_000)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        r.randrange(0)


def test_randint_inclusive():
    r = XorShift64Star(5)
    draws = {r.randint(2, 4) for _ in range(200)}
    assert draws == {2, 3, 4}


def test_shuffle_is_permutation_and_deterministic():
    a = list(range(50))
    XorShift64Star(9).shuffle(a)
    assert sorted(a) == list(range(50))
    b = list(range(50))
    XorShift64Star(9).shuffle(b)
    assert a == b
    c = list(range(50))
    XorShift64Star(10).shuffle(c)
    assert a != c


def test_sample_indices_properties():
    r = XorShift64Star(13)
    for _ in range(100):
        picked = r.sample_indices(20, 5)
        assert len(picked) == 5
        assert len(set(picked)) == 5
        assert picked == tuple(sorted(picked))
        assert all(0 <= i < 20 for i in picked)
    assert r.sample_indices(4, 0) == ()
    assert r.sample_indices(4, 4) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        r.sample_indices(3, 4)


def test_sample_indices_roughly_uniform():
    r = XorShift64Star(17)
    counts = np.zeros(10)
    n_draws = 4_000
    for _ in range(n_draws):
        for i in r.sample_indices(10, 3):
            counts[i] += 1
    expected = n_draws * 3 / 10
    assert np.all(np.abs(counts - expected) < 0.15 * expected)


@pytest.mark.parametrize("seed", [0, 11, 2**63 + 5, -1])
def test_uniform_block_is_the_scalar_stream(seed):
    # One pair of generators runs through every count in turn, so blocks
    # also start from the states that earlier blocks left behind.
    block_rng, scalar_rng = XorShift64Star(seed), XorShift64Star(seed)
    for count in LANE_COUNTS:
        block = block_rng.uniform_block(count)
        scalar = np.array([scalar_rng.random() for _ in range(count)], dtype=np.float64)
        assert block.dtype == np.float64
        assert block.tobytes() == scalar.tobytes(), count
        assert block_rng.next_u64() == scalar_rng.next_u64(), count


@pytest.mark.parametrize("seed", [0, 2**63 + 5])
def test_u64_block_is_the_scalar_stream(seed):
    block_rng, scalar_rng = XorShift64Star(seed), XorShift64Star(seed)
    for count in LANE_COUNTS:
        block = block_rng._u64_block(count)
        assert block.dtype == np.uint64
        assert block.tolist() == [scalar_rng.next_u64() for _ in range(count)], count
        assert block_rng.next_u64() == scalar_rng.next_u64(), count


@pytest.mark.parametrize("draws", LANE_COUNTS)
def test_shuffle_at_lane_edges_is_the_scalar_pass(draws):
    # Shuffling n items draws n - 1 bounded integers.
    block_rng, scalar_rng = XorShift64Star(draws), XorShift64Star(draws)
    shuffled, expected = list(range(draws + 1)), list(range(draws + 1))
    block_rng.shuffle(shuffled)
    reference_shuffle(scalar_rng, expected)
    assert shuffled == expected
    assert block_rng.next_u64() == scalar_rng.next_u64()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(-2**63, 2**64 - 1), count=st.integers(0, 3 * K * L))
def test_any_block_is_the_scalar_stream(seed, count):
    block_rng, scalar_rng = XorShift64Star(seed), XorShift64Star(seed)
    block = block_rng.uniform_block(count)
    assert block.tolist() == [scalar_rng.random() for _ in range(count)]
    assert block_rng.next_u64() == scalar_rng.next_u64()


@pytest.mark.parametrize("draw, count", [("uniform_block", 192_000), ("_u64_block", 6_000)])
def test_block_scratch_stays_bounded(draw, count):
    # The traced peak (numpy reports its buffers to tracemalloc) is the
    # output plus a bounded scratch: no temporary grows with the count.
    rng = XorShift64Star(1)
    getattr(rng, draw)(count)   # builds the cached jump tables untraced
    tracemalloc.start()
    try:
        out = getattr(rng, draw)(count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == count
    assert peak <= out.nbytes + 512 * 1024


@pytest.mark.parametrize("n", [0, 1, 2, 3, 1_000, 10_007])
def test_shuffle_matches_scalar_fisher_yates(n):
    for seed in (9, 2**40):
        block_rng, scalar_rng = XorShift64Star(seed), XorShift64Star(seed)
        shuffled, expected = list(range(n)), list(range(n))
        block_rng.shuffle(shuffled)
        reference_shuffle(scalar_rng, expected)
        assert shuffled == expected
        assert block_rng.next_u64() == scalar_rng.next_u64()


def test_scripted_top_output_is_rejected_by_randrange():
    assert TOP >= 2**64 - 2**64 % 3
    assert ScriptedStream([TOP, 5]).randrange(3) == 5 % 3
    assert ScriptedStream([TOP, 5]).randrange(8) == TOP % 8


def test_block_shuffle_rejects_like_randrange():
    rng = XorShift64Star(21)
    raw = [rng.next_u64() for _ in range(30)]
    # Shuffling 12 items draws for m = 12, 11, ..., 2.  TOP is rejected at
    # the first draw, twice in a row for m = 11, and for m = 3 (the last
    # bound that can reject); m = 8 and m = 2 divide 2**64 and accept it.
    for at in (0, 2, 3, 7, 12, 14):
        raw.insert(at, TOP)
    block_rng, scalar_rng = ScriptedStream(raw), ScriptedStream(raw)
    shuffled, expected = list(range(12)), list(range(12))
    block_rng.shuffle(shuffled)
    reference_shuffle(scalar_rng, expected)
    assert shuffled == expected
    assert block_rng.raw == scalar_rng.raw
    assert len(raw) - len(block_rng.raw) == 11 + 4   # 11 swaps, 4 rejections


def test_randrange_block_rejects_like_randrange():
    rng = XorShift64Star(22)
    bounds = [3, 3, 10, 8, 2**63 + 1, 3, 7]
    # m = 2**63 + 1 rejects about half of all outputs, so the tail is long.
    raw = [TOP, TOP, rng.next_u64(), TOP, rng.next_u64(), TOP, 2**64 - 2, TOP,
           rng.next_u64(), rng.next_u64(), TOP] + [rng.next_u64() for _ in range(60)]
    block_rng, scalar_rng = ScriptedStream(raw), ScriptedStream(raw)
    picks = block_rng._randrange_block(np.array(bounds, dtype=np.uint64))
    assert picks.tolist() == [scalar_rng.randrange(m) for m in bounds]
    assert block_rng.raw == scalar_rng.raw


def test_synthesis_and_split_are_pinned():
    data = synthesize_biased(10_000, 10, 0.8, 7)
    digest = hashlib.sha256(data.features.astype("<f8").tobytes()).hexdigest()
    assert digest == "029928564fa3363a6f16e47180882c46dcbaaa4a2b35bdadd26b22ec678475ed"
    parts = split(data, 5)
    order = np.array(parts.train_indices + parts.validation_indices + parts.test_indices,
                     dtype="<i8")
    digest = hashlib.sha256(order.tobytes()).hexdigest()
    assert digest == "bdda43833ad1420d0a33e9a94fc08c8de9ae2332c09724b9e0bdbebb05bad9de"
