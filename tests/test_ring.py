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
    _limb_product,
    _limbs,
    decode_signed,
    mul3_batch,
    pair_index,
    pair_mask,
    ring_matmul,
)


def test_share_zero_with_known_mask():
    pair = share(0, DealerRng(3))
    mask = DealerRng(3).element()
    assert pair == SharePair(mask, RING_MOD - mask)
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


def strict_upper(rng, n):
    return np.triu(rng.integers(0, RING_MOD, size=(n, n), dtype=np.uint64), 1)


def test_ring_matmul_matches_native_uint64_matmul():
    # native uint64 @ wraps modulo 2**64 too, but without BLAS; the sizes
    # cover no pairs, one partial block, block edges and several blocks
    rng = np.random.default_rng(47)
    sizes = [0, 1, 2, 3, 63, 64, 65, 129, 300]
    sizes += [int(n) for n in rng.integers(4, 200, size=5)]
    for n in sizes:
        m = pair_mask(n)
        a = strict_upper(rng, n)
        b = strict_upper(rng, n)
        assert np.array_equal(ring_matmul(a[m], b[m], n), (a @ b)[m])
        u = a[m]
        assert np.array_equal(ring_matmul(u, u, n), (a @ a)[m])  # u as both operands
    for n in (1, 2, 64, 65, 129):
        m = pair_mask(n)
        full = np.triu(np.full((n, n), MASK, dtype=np.uint64), 1)
        all_ones = full[m]
        assert np.array_equal(ring_matmul(all_ones, all_ones, n), (full @ full)[m])
        assert np.array_equal(ring_matmul(all_ones, all_ones.copy(), n), (full @ full)[m])


def test_ring_matmul_rejects_operands_outside_its_contract():
    # an operand must be a pair vector of length C(n, 2); a length-1 vector
    # would otherwise broadcast through the scatter to matrix form
    rng = np.random.default_rng(53)
    for n in (3, 5, 65):
        u = strict_upper(rng, n)[pair_mask(n)]
        bad = [u[:-1], np.append(u, 1), u[:1], u.reshape(1, -1)]
        for w in bad:
            for x, y in [(w, u), (u, w), (w, w)]:
                with pytest.raises(ValueError, match="shape"):
                    ring_matmul(x, y, n)
        with pytest.raises(ValueError, match="shape"):
            ring_matmul(u, u, n + 1)


def test_ring_matmul_refuses_inexact_inner_dimension():
    # all-ones limbs at the largest admitted inner dimension are still
    # exact in _limb_product, the code every row block of ring_matmul runs
    ok = np.full((1, MATMUL_MAX_INNER - 1), MASK, dtype=np.uint64)
    assert np.array_equal(_limb_product(_limbs(ok), _limbs(ok.T)), ok @ ok.T)
    # the size check comes before the length check and before any scatter
    empty = np.zeros(0, dtype=np.uint64)
    with pytest.raises(ValueError, match="inner dimension"):
        ring_matmul(empty, empty, MATMUL_MAX_INNER)


def test_pair_index_is_pair_mask_order():
    for n in (0, 1, 2, 3, 7, 64, 65):
        i, j = np.nonzero(pair_mask(n))
        assert np.array_equal(pair_index(i, j, n), np.arange(i.size))
