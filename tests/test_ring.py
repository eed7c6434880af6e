import numpy as np
import pytest
from scipy import stats

from privtri import (
    DealerRng,
    MGReuseError,
    OpeningChannel,
    SharePair,
    deal_mg,
    mul3,
    reconstruct,
    share,
)
from privtri.ring import (
    MASK,
    MATMUL_MAX_INNER,
    RING_MOD,
    decode_signed,
    mul3_batch,
    ring_matmul,
    share_with_mask,
)


def test_share_zero_with_known_mask():
    pair = share_with_mask(0, 5)
    assert pair == SharePair(5, RING_MOD - 5)
    assert reconstruct(pair) == 0


def test_share_one_reconstructs():
    assert reconstruct(share(1, DealerRng(3))) == 1


def test_share_roundtrip_random():
    rng = DealerRng(11)
    values = rng.elements(1000)
    for v in values.tolist():
        assert reconstruct(share(v, rng)) == v


def test_reconstruct_known_pairs():
    assert reconstruct(SharePair(3, 4)) == 7
    assert reconstruct(SharePair(RING_MOD - 1, 2)) == 1  # wraps


def test_signed_encoding_roundtrip():
    for v in [0, 1, -1, 12345, -12345, (1 << 62), -(1 << 62)]:
        assert decode_signed(v & MASK) == v


def test_mul3_bits():
    rng = DealerRng(31)
    assert reconstruct(mul3(share(1, rng), share(1, rng), share(1, rng), deal_mg(rng))) == 1
    assert reconstruct(mul3(share(1, rng), share(1, rng), share(0, rng), deal_mg(rng))) == 0


def test_mul3_all_bit_combinations():
    rng = DealerRng(37)
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                for _ in range(20):
                    got = mul3(share(a, rng), share(b, rng), share(c, rng), deal_mg(rng))
                    assert reconstruct(got) == a * b * c


def test_mul3_full_range_random():
    rng = DealerRng(41)
    triples = rng.elements((1000, 3)).tolist()
    for a, b, c in triples:
        got = mul3(share(a, rng), share(b, rng), share(c, rng), deal_mg(rng))
        assert reconstruct(got) == (a * b * c) & MASK


def test_mg_single_use():
    rng = DealerRng(43)
    mg = deal_mg(rng)
    args = (share(1, rng), share(1, rng), share(1, rng))
    mul3(*args, mg)
    with pytest.raises(MGReuseError):
        mul3(*args, mg)


def test_dealer_streams_reproducible_and_independent():
    assert np.array_equal(DealerRng(7, 1).elements(16), DealerRng(7, 1).elements(16))
    assert not np.array_equal(DealerRng(7, 1).elements(16), DealerRng(7, 2).elements(16))
    assert not np.array_equal(DealerRng(7).elements(16), DealerRng(8).elements(16))


def test_opened_values_uniform_low_bits():
    # fixed secret a, fresh groups: opened e = a - x must look uniform;
    # chi-square on the low 16 bits of 2^20 openings
    m = 1 << 20
    a = 1  # an actual adjacency bit
    zeros = np.zeros(m, dtype=np.uint64)
    ones = np.full(m, a, dtype=np.uint64)
    channel = OpeningChannel(record=True)
    draws = DealerRng(2718).elements((m, 10))
    mul3_batch(ones, zeros, ones, zeros, ones, zeros, draws, channel)
    opened_e = np.array(channel.values[:m], dtype=np.uint64)
    low = (opened_e & np.uint64(0xFFFF)).astype(np.int64)
    counts = np.bincount(low, minlength=65536)
    chi2 = stats.chisquare(counts)
    assert chi2.pvalue > 0.001


def test_ring_matmul_matches_native_uint64_matmul():
    # native uint64 @ wraps modulo 2**64 too, but without BLAS
    rng = np.random.default_rng(47)
    shapes = [(1, 1, 1), (2, 2, 2), (1, 2, 1), (2, 1, 2)]
    shapes += [tuple(rng.integers(1, 65, size=3)) for _ in range(30)]
    for m, k, n in shapes:
        a = rng.integers(0, RING_MOD, size=(m, k), dtype=np.uint64)
        b = rng.integers(0, RING_MOD, size=(k, n), dtype=np.uint64)
        assert np.array_equal(ring_matmul(a, b), a @ b)
        assert np.array_equal(ring_matmul(a.T, a), a.T @ a)  # a as both operands
    for n in (1, 2, 64):
        full = np.full((n, n), MASK, dtype=np.uint64)
        assert np.array_equal(ring_matmul(full, full), full @ full)
    # more rows than one block of a, with and without limbs shared with b
    big = rng.integers(0, RING_MOD, size=(300, 300), dtype=np.uint64)
    assert np.array_equal(ring_matmul(big, big), big @ big)
    assert np.array_equal(ring_matmul(big, big[:, :7]), big @ big[:, :7])


def test_ring_matmul_refuses_inexact_inner_dimension():
    # all-ones limbs at the largest admitted inner dimension are still exact
    ok = np.full((1, MATMUL_MAX_INNER - 1), MASK, dtype=np.uint64)
    assert np.array_equal(ring_matmul(ok, ok.T), ok @ ok.T)
    a = np.ones((1, MATMUL_MAX_INNER), dtype=np.uint64)
    with pytest.raises(ValueError, match="inner dimension"):
        ring_matmul(a, a.T)
