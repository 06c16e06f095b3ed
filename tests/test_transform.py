from fractions import Fraction

import numpy as np
import pytest

from lshmine.dataset import BitVector, co_support
from lshmine.transform import (
    PREPROCESS,
    QUERY,
    LevelContext,
    hamming_from_co_support,
    jaccard_from_co_support,
    pad_preprocess,
    pad_query,
    padded_bits_array,
    padded_hamming,
    padded_jaccard,
    padded_one_positions,
    padding_runs,
)

from conftest import random_vector


def ctx_for(n, alpha_count, theta_count=1, m_l=10):
    return LevelContext(n=n, m_l=m_l, alpha_count=alpha_count, theta_count=theta_count)


def test_pad_preprocess_examples():
    ctx = ctx_for(4, 3)
    assert pad_preprocess(BitVector.from01("1100"), ctx).bits.to01() == "1100100000"
    # maximal weight: no 1-padding at all
    assert pad_preprocess(BitVector.from01("1110"), ctx).bits.to01() == "1110000000"
    # all-zeros: ones block alpha long, zeros block alpha long
    ctx2 = ctx_for(3, 2)
    assert pad_preprocess(BitVector.from01("000"), ctx2).bits.to01() == "0001100"


def test_pad_query_examples():
    ctx = ctx_for(4, 3)
    assert pad_query(BitVector.from01("0110"), ctx).bits.to01() == "0110000100"
    assert pad_query(BitVector.from01("1100"), ctx).bits.to01() == "1100000100"
    # maximal weight: weight unchanged, zeros everywhere after n
    assert pad_query(BitVector.from01("0111"), ctx).bits.to01() == "0111000000"


def test_padding_weight_and_length():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(2, 40))
        alpha = int(rng.integers(1, n + 1))
        w = int(rng.integers(0, alpha + 1))
        ctx = ctx_for(n, alpha)
        v = random_vector(rng, n, w)
        p, q = pad_preprocess(v, ctx), pad_query(v, ctx)
        assert p.bits.popcount() == alpha
        assert q.bits.popcount() == alpha
        assert p.bits.length == q.bits.length == n + 2 * alpha


def test_padding_rejects_overweight():
    ctx = ctx_for(4, 2)
    with pytest.raises(ValueError, match="exceeds alpha_count"):
        pad_preprocess(BitVector.from01("1110"), ctx)
    with pytest.raises(ValueError, match="exceeds alpha_count"):
        pad_query(BitVector.from01("1110"), ctx)
    with pytest.raises(ValueError, match="length"):
        pad_preprocess(BitVector.from01("11"), ctx)


def test_padded_hamming_examples():
    ctx = ctx_for(4, 3)
    p = pad_preprocess(BitVector.from01("1100"), ctx)
    q = pad_query(BitVector.from01("0110"), ctx)
    assert padded_hamming(p, q) == 4  # 2*(3 - 1)

    v = BitVector.from01("1110")  # weight == alpha
    assert padded_hamming(pad_preprocess(v, ctx), pad_query(v, ctx)) == 0

    v2 = BitVector.from01("1100")
    assert padded_hamming(pad_preprocess(v2, ctx), pad_query(v2, ctx)) == 2  # 2*(3 - 2)


def test_padded_jaccard_examples():
    ctx = ctx_for(4, 3)
    p = pad_preprocess(BitVector.from01("1100"), ctx)
    q = pad_query(BitVector.from01("0110"), ctx)
    assert padded_jaccard(p, q) == Fraction(1, 5)

    v = BitVector.from01("1110")
    assert padded_jaccard(pad_preprocess(v, ctx), pad_query(v, ctx)) == 1

    a = pad_preprocess(BitVector.from01("1100"), ctx)
    b = pad_query(BitVector.from01("0011"), ctx)
    assert padded_jaccard(a, b) == 0


def test_role_checks():
    ctx = ctx_for(4, 3)
    p = pad_preprocess(BitVector.from01("1100"), ctx)
    q = pad_query(BitVector.from01("0110"), ctx)
    with pytest.raises(ValueError, match="roles"):
        padded_hamming(q, p)
    with pytest.raises(ValueError, match="roles"):
        padded_jaccard(p, p)


def test_identities_random():
    # the two closed forms hold exactly, with no tolerance
    rng = np.random.default_rng(17)
    for _ in range(2000):
        n = int(rng.integers(2, 48))
        alpha = int(rng.integers(1, n + 1))
        ctx = ctx_for(n, alpha)
        x = random_vector(rng, n, int(rng.integers(0, alpha + 1)))
        y = random_vector(rng, n, int(rng.integers(0, alpha + 1)))
        s = co_support(x, y)
        p, q = pad_preprocess(x, ctx), pad_query(y, ctx)
        assert padded_hamming(p, q) == hamming_from_co_support(s, ctx)
        assert padded_jaccard(p, q) == jaccard_from_co_support(s, ctx)


def test_monotonic_in_co_support():
    # raising co-support with alpha fixed strictly shrinks the distance and
    # strictly grows the similarity: the whole point of the padding
    n, alpha = 20, 10
    ctx = ctx_for(n, alpha)
    x = BitVector.from_indices(n, range(10))
    hams, jacs = [], []
    for c in range(11):
        y = BitVector.from_indices(n, [*range(c), *range(10, 20 - c)])
        assert co_support(x, y) == c
        hams.append(padded_hamming(pad_preprocess(x, ctx), pad_query(y, ctx)))
        jacs.append(padded_jaccard(pad_preprocess(x, ctx), pad_query(y, ctx)))
    assert all(a > b for a, b in zip(hams, hams[1:]))
    assert all(a < b for a, b in zip(jacs, jacs[1:]))


def test_virtual_helpers_match_materialized():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        alpha = int(rng.integers(1, n + 1))
        ctx = ctx_for(n, alpha)
        v = random_vector(rng, n, int(rng.integers(0, alpha + 1)))
        for role in (PREPROCESS, QUERY):
            dense = padded_bits_array(v, ctx, role)
            assert list(np.flatnonzero(dense)) == list(padded_one_positions(v, ctx, role))


def test_padding_runs_match_padded_vectors():
    # each record's padded vector is its own bits plus its run of ones from
    # the role's start, and nothing else
    rng = np.random.default_rng(3)
    ctx = ctx_for(12, 7)
    vectors = [random_vector(rng, 12, w) for w in (7, 0, 3, 3, 5)]
    lengths, index, starts = padding_runs(np.array([v.popcount() for v in vectors]), ctx)
    assert lengths.tolist() == [0, 2, 4, 7]
    for v, j in zip(vectors, index):
        for role, start in zip((PREPROCESS, QUERY), starts):
            expected = np.zeros(ctx.padded_length, dtype=np.uint8)
            expected[:12] = v.to_uint8()
            expected[start:start + lengths[j]] = 1
            assert np.array_equal(padded_bits_array(v, ctx, role), expected), (role, j)
    with pytest.raises(ValueError, match="popcount 8 exceeds alpha_count 7"):
        padding_runs(np.array([3, 8]), ctx)


def test_level_context_validation():
    with pytest.raises(ValueError):
        LevelContext(n=4, m_l=3, alpha_count=2, theta_count=3)  # theta above alpha
    with pytest.raises(ValueError):
        LevelContext(n=4, m_l=3, alpha_count=5, theta_count=2)  # alpha above n
    ctx = LevelContext(n=4, m_l=3, alpha_count=3, theta_count=2)
    assert ctx.alpha == 0.75 and ctx.theta == 0.5 and ctx.padded_length == 10
