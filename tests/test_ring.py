import numpy as np
import pytest
from scipy import stats

from privtri import (
    DealerRng,
    OpeningChannel,
    ProjectedGraph,
    SharePair,
    count,
    reconstruct,
    share,
    share_adjacency,
)
from privtri.ring import (
    MASK,
    MATMUL_MAX_INNER,
    RING_MOD,
    _limb_product,
    _limbs,
    decode_signed,
    pair_index,
    pair_mask,
    ring_matmul,
)

from conftest import complete_graph

WIDTHS = (16, 32, 48, 64)


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


def test_dealer_streams_reproducible_and_independent():
    assert np.array_equal(DealerRng(7, 1).elements(16), DealerRng(7, 1).elements(16))
    assert not np.array_equal(DealerRng(7, 1).elements(16), DealerRng(7, 2).elements(16))
    assert not np.array_equal(DealerRng(7).elements(16), DealerRng(8).elements(16))


def test_opened_values_uniform_low_bits():
    # every shared bit of the complete graph is 1, so each opening of count
    # (e = u - x, f = u - a, g = p - b) is a fixed secret minus a fresh
    # mask and must look uniform; chi-square on the low 16 bits of the
    # first 2^20 of its 3 * C(837, 2) openings
    m = 1 << 20
    g = complete_graph(837)
    sa = share_adjacency(ProjectedGraph(g.adj, theta=g.n - 1), DealerRng(2718, 0))
    channel = OpeningChannel(record=True)
    count(sa, g.n, DealerRng(2718, 1), channel)
    assert channel.openings >= m
    opened = np.array(channel.values[:m], dtype=np.uint64)
    low = (opened & np.uint64(0xFFFF)).astype(np.int64)
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


def test_reconstruct_and_decode_at_every_width():
    for bits in WIDTHS:
        mod = 1 << bits
        assert reconstruct(SharePair(mod - 1, 2, bits)) == 1  # wraps mod 2**bits
        assert reconstruct(SharePair(mod + 3, 4, bits)) == 7  # bits above are dropped
        for v in [0, 1, -1, 12345, -12345, (1 << (bits - 2)), -(1 << (bits - 1))]:
            assert decode_signed(v & (mod - 1), bits) == v
            assert decode_signed(v & MASK, bits) == v  # the 64-bit element, reduced


@pytest.mark.parametrize("bits", WIDTHS)
def test_ring_matmul_at_every_width(bits):
    # bits // 16 limbs give U @ V mod 2**bits: the native uint64 product
    # reduced, and the 64-bit kernel's result reduced; operand bits at or
    # above the width (junk a server's local uint64 arithmetic leaves) are
    # never read
    rng = np.random.default_rng(61 + bits)
    low = np.uint64((1 << bits) - 1)
    sizes = [0, 1, 2, 63, 64, 65, 129, 300]
    sizes += [int(n) for n in rng.integers(4, 200, size=3)]
    for n in sizes:
        m = pair_mask(n)
        a = strict_upper(rng, n)
        b = strict_upper(rng, n)
        want = (a @ b)[m] & low
        got = ring_matmul(a[m] & low, b[m] & low, n, bits)
        assert np.array_equal(got, want)
        assert np.array_equal(got, ring_matmul(a[m], b[m], n) & low)
        assert np.array_equal(ring_matmul(a[m], b[m], n, bits), want)
        u = a[m]
        assert np.array_equal(ring_matmul(u, u, n, bits), (a @ a)[m] & low)
    for n in (1, 2, 64, 65, 129):
        m = pair_mask(n)
        full = np.triu(np.full((n, n), low, dtype=np.uint64), 1)
        assert np.array_equal(ring_matmul(full[m], full[m], n, bits), (full @ full)[m] & low)


@pytest.mark.parametrize("bits", WIDTHS)
def test_limb_product_exact_at_largest_inner_dimension_at_every_width(bits):
    # with L <= 4 limbs each shift still sums at most 4 limb products, so
    # MATMUL_MAX_INNER holds at every width
    limbs, low = bits // 16, np.uint64((1 << bits) - 1)
    ok = np.full((1, MATMUL_MAX_INNER - 1), MASK, dtype=np.uint64)
    got = _limb_product(_limbs(ok, limbs), _limbs(ok.T, limbs))
    assert np.array_equal(got & low, (ok @ ok.T) & low)


def test_open_array_reduces_to_the_width():
    rng = np.random.default_rng(67)
    s1, s2 = rng.integers(0, RING_MOD, size=(2, 500), dtype=np.uint64)
    for bits in WIDTHS:
        channel = OpeningChannel(record=True)
        got = channel.open_array(s1, s2, bits)
        assert np.array_equal(got, (s1 + s2) & np.uint64((1 << bits) - 1))
        assert channel.values == got.tolist()
        assert max(channel.values) < 1 << bits
