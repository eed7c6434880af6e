import tracemalloc
from math import comb

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
from privtri import ring
from privtri.ring import (
    _DEALER_CHUNK,
    MASK,
    MATMUL_MAX_INNER,
    RING_MOD,
    _block_product,
    decode_signed,
    pair_index,
    pair_mask,
    ring_dtype,
    ring_matmul,
)

from conftest import complete_graph

WIDTHS = (16, 32, 48, 64)
# sizes at the edges of ring_matmul's 2-D tiles of 128
TILE_EDGES = [127, 128, 129, 255, 256, 257]


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
    # cover no pairs, one partial tile, tile edges and several tiles
    rng = np.random.default_rng(47)
    sizes = [0, 1, 2, 3, 63, 64, 65, 129, 300] + TILE_EDGES
    sizes += [int(n) for n in rng.integers(4, 200, size=5)]
    for n in sizes:
        m = pair_mask(n)
        a = strict_upper(rng, n)
        b = strict_upper(rng, n)
        assert np.array_equal(ring_matmul([(a[m], b[m])], n), (a @ b)[m])
        u = a[m]
        assert np.array_equal(ring_matmul([(u, u)], n), (a @ a)[m])  # u as both operands
    for n in (1, 2, 64, 65, 129):
        m = pair_mask(n)
        full = np.triu(np.full((n, n), MASK, dtype=np.uint64), 1)
        all_ones = full[m]
        assert np.array_equal(ring_matmul([(all_ones, all_ones)], n), (full @ full)[m])
        assert np.array_equal(ring_matmul([(all_ones, all_ones.copy())], n), (full @ full)[m])


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
                    ring_matmul([(x, y)], n)
                with pytest.raises(ValueError, match="shape"):
                    ring_matmul([(u, u), (x, y)], n)  # in a later pair too
        with pytest.raises(ValueError, match="shape"):
            ring_matmul([(u, u)], n + 1)


def test_ring_matmul_refuses_inexact_inner_dimension():
    # all-ones limbs at the largest admitted inner dimension are still
    # exact in _block_product, the code every tile of ring_matmul runs
    ok = np.full((1, MATMUL_MAX_INNER - 1), MASK, dtype=np.uint64)
    assert np.array_equal(block_product_of([(ok, ok.T)], 4), ok @ ok.T)
    # the size check comes before the length check and before any scatter;
    # a sum of P products needs P * n below the bound
    empty = np.zeros(0, dtype=np.uint64)
    with pytest.raises(ValueError, match="inner dimension"):
        ring_matmul([(empty, empty)], MATMUL_MAX_INNER)
    with pytest.raises(ValueError, match="inner dimension"):
        ring_matmul([(empty, empty)] * 2, MATMUL_MAX_INNER // 2)


def block_product_of(pairs, limbs):
    """_block_product over whole matrices given as uint64, split into limbs."""
    def split(a):
        return [((a >> np.uint64(16 * l)) & np.uint64(0xFFFF)).astype(float) for l in range(limbs)]

    whole = slice(None)
    return _block_product([(1, split(a), split(b)) for a, b in pairs], whole, whole, whole)


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
    sizes = [0, 1, 2, 63, 64, 65, 129, 300] + TILE_EDGES
    sizes += [int(n) for n in rng.integers(4, 200, size=3)]
    for n in sizes:
        m = pair_mask(n)
        a = strict_upper(rng, n)
        b = strict_upper(rng, n)
        want = (a @ b)[m] & low
        got = ring_matmul([(a[m] & low, b[m] & low)], n, bits)
        assert got.dtype == ring_dtype(bits)
        assert np.array_equal(got, want)
        assert np.array_equal(got, ring_matmul([(a[m], b[m])], n) & low)
        assert np.array_equal(ring_matmul([(a[m], b[m])], n, bits), want)
        u = a[m]
        assert np.array_equal(ring_matmul([(u, u)], n, bits), (a @ a)[m] & low)
    for n in (1, 2, 64, 65, 129):
        m = pair_mask(n)
        full = np.triu(np.full((n, n), low, dtype=np.uint64), 1)
        assert np.array_equal(ring_matmul([(full[m], full[m])], n, bits), (full @ full)[m] & low)


@pytest.mark.parametrize("bits", WIDTHS)
def test_ring_matmul_sums_products_at_every_width(bits):
    # one call over several pairs is the native (A @ B + C @ D)[mask]
    # reduced, with operands shared between pairs (the count's server
    # calls), an operand as both sides of a pair, and junk above the width
    rng = np.random.default_rng(79 + bits)
    low = np.uint64((1 << bits) - 1)
    for n in [0, 1, 2, 3, 65] + TILE_EDGES:
        m = pair_mask(n)
        a, b, c, d = (strict_upper(rng, n) for _ in range(4))
        ua, ub, uc, ud = a[m], b[m], c[m], d[m]
        got = ring_matmul([(ua, ub), (uc, ud)], n, bits)
        assert got.dtype == ring_dtype(bits)
        assert np.array_equal(got, (a @ b + c @ d)[m] & low)
        s = a + b
        us = ua + ub
        got = ring_matmul([(ub, ua), (ua, us)], n, bits)
        assert np.array_equal(got, (b @ a + a @ s)[m] & low)
        got = ring_matmul([(ua, ua), (ua, ub), (ub, ua)], n, bits)
        assert np.array_equal(got, (a @ a + a @ b + b @ a)[m] & low)
    for n in (1, 129, 257):
        m = pair_mask(n)
        full = np.triu(np.full((n, n), MASK, dtype=np.uint64), 1)
        ones = full[m]
        got = ring_matmul([(ones, ones), (ones, ones.copy())], n, bits)
        assert np.array_equal(got, (full @ full + full @ full)[m] & low)


@pytest.mark.parametrize("bits", WIDTHS)
def test_ring_matmul_signed_sums_at_every_width(bits):
    # a pair (u, v, -1) is subtracted: the native (A @ B - C @ D)[mask]
    # reduced, with the negative pair first or last, and the count's server
    # 2 form (s @ s - a @ a) with s = a + b, whose sum is a @ b + b @ a + b @ b
    rng = np.random.default_rng(97 + bits)
    low = np.uint64((1 << bits) - 1)
    for n in [0, 1, 2, 3, 65] + TILE_EDGES:
        m = pair_mask(n)
        a, b, c, d = (strict_upper(rng, n) for _ in range(4))
        ua, ub, uc, ud = a[m], b[m], c[m], d[m]
        got = ring_matmul([(ua, ub), (uc, ud, -1)], n, bits)
        assert got.dtype == ring_dtype(bits)
        assert np.array_equal(got, (a @ b - c @ d)[m] & low)
        got = ring_matmul([(ua, ua, -1), (ub, uc, 1)], n, bits)
        assert np.array_equal(got, (b @ c - a @ a)[m] & low)
        s = a + b
        us = s[m]
        got = ring_matmul([(us, us), (ua, ua, -1)], n, bits)
        assert np.array_equal(got, (s @ s - a @ a)[m] & low)
        assert np.array_equal(got, (a @ b + b @ a + b @ b)[m] & low)


def test_ring_matmul_rejects_a_malformed_sign():
    u = np.zeros(comb(5, 2), dtype=np.uint64)
    for sign in (0, 2, -2, 0.5, "-", None):
        with pytest.raises(ValueError, match="sign"):
            ring_matmul([(u, u, sign)], 5)
        with pytest.raises(ValueError, match="sign"):
            ring_matmul([(u, u), (u, u, sign)], 5)


def test_ring_matmul_reuses_one_workspace():
    # interleaved sizes, widths and operand counts through the one cached
    # workspace: the second and third calls find another n and width, the
    # fourth grows the limbs, and the last reuses them with fewer operands
    # and junk above the width; each result is the native signed sum
    # reduced, is a fresh array, and the cached limbs stay zero off the
    # pair_mask entries. a, b, c cycle through the call's distinct operands.
    rng = np.random.default_rng(101)
    calls = [
        (129, 32, 3, False),
        (257, 48, 2, False),
        (129, 32, 1, False),
        (129, 32, 3, False),
        (129, 32, 2, True),
    ]
    for n, bits, operands, junk in calls:
        m = pair_mask(n)
        low = np.uint64((1 << bits) - 1)
        mats = [strict_upper(rng, n) for _ in range(operands)]
        if not junk:
            mats = [a & low for a in mats]
        vecs = [a[m] for a in mats]
        a, b, c = (mats * 3)[:3]
        ua, ub, uc = (vecs * 3)[:3]
        got = ring_matmul([(ua, ub), (uc, ua, -1), (ub, uc)], n, bits)
        assert np.array_equal(got, (a @ b - c @ a + b @ c)[m] & low)
        limbs, out = ring._workspace[n, bits]
        assert len(ring._workspace) == 1 and limbs.shape[0] >= operands
        assert not np.shares_memory(got, limbs) and not np.shares_memory(got, out)
        assert not limbs[:, :, ~m].any()


@pytest.mark.parametrize("bits", WIDTHS)
def test_limb_product_exact_at_largest_inner_dimension_at_every_width(bits):
    # with L <= 4 limbs each shift still sums at most 4 limb products per
    # pair, so MATMUL_MAX_INNER holds at every width, for one pair at inner
    # dimension MATMUL_MAX_INNER - 1 and for a sum of two pairs whose inner
    # dimensions add up to it
    limbs, low = bits // 16, np.uint64((1 << bits) - 1)
    ok = np.full((1, MATMUL_MAX_INNER - 1), MASK, dtype=np.uint64)
    got = block_product_of([(ok, ok.T)], limbs)
    assert np.array_equal(got & low, (ok @ ok.T) & low)
    half = ok[:, : (MATMUL_MAX_INNER - 1) // 2]
    got = block_product_of([(half, half.T), (half, half.T)], limbs)
    assert np.array_equal(got & low, (half @ half.T + half @ half.T) & low)


@pytest.mark.parametrize("bits", WIDTHS)
def test_limb_product_exact_at_largest_inner_dimension_with_mixed_signs(bits):
    # a subtracted term alone at inner dimension MATMUL_MAX_INNER - 1 sums
    # to the most negative tile, and terms of both signs whose inner
    # dimensions add up to it leave a negative sum; both go through int64
    limbs, low = bits // 16, np.uint64((1 << bits) - 1)

    def split(a):
        return [((a >> np.uint64(16 * l)) & np.uint64(0xFFFF)).astype(float) for l in range(limbs)]

    whole = slice(None)
    ok = np.full((1, MATMUL_MAX_INNER - 1), MASK, dtype=np.uint64)
    got = _block_product([(-1, split(ok), split(ok.T))], whole, whole, whole)
    assert np.array_equal(got & low, (-(ok @ ok.T)) & low)
    third = (MATMUL_MAX_INNER - 1) // 3
    a, b = ok[:, :third], ok[:, third:]
    got = _block_product([(1, split(a), split(a.T)), (-1, split(b), split(b.T))], whole, whole, whole)
    assert np.array_equal(got & low, (a @ a.T - b @ b.T) & low)


def test_open_array_reduces_to_the_width():
    rng = np.random.default_rng(67)
    s1, s2 = rng.integers(0, RING_MOD, size=(2, 500), dtype=np.uint64)
    for bits in WIDTHS:
        channel = OpeningChannel(record=True)
        got = channel.open_array(s1, s2, bits)
        assert np.array_equal(got, (s1 + s2) & np.uint64((1 << bits) - 1))
        assert channel.values == got.tolist()
        assert max(channel.values) < 1 << bits


def test_open_array_keeps_its_operands_dtype():
    # uint32 & np.uint64(mask) would promote the opening to uint64
    rng = np.random.default_rng(83)
    s1, s2 = rng.integers(0, RING_MOD, size=(2, 500), dtype=np.uint64)
    for dtype in (np.uint32, np.uint64):
        t1, t2 = s1.astype(dtype), s2.astype(dtype)
        for bits in (16, 32):
            got = OpeningChannel().open_array(t1, t2, bits)
            assert got.dtype == dtype
            assert np.array_equal(got, (s1 + s2) & np.uint64((1 << bits) - 1))


def test_dealer_draws_at_a_width_are_the_64_bit_stream_reduced():
    for bits in WIDTHS:
        got = DealerRng(89, bits).elements((3, 100), bits)
        raw = DealerRng(89, bits).elements((3, 100))
        assert got.dtype == ring_dtype(bits) and got.shape == (3, 100)
        assert np.array_equal(got, raw & np.uint64((1 << bits) - 1))
    assert ring_dtype(32) == np.uint32 and ring_dtype(48) == ring_dtype(64) == np.uint64


def test_dealer_draws_are_one_stream_across_chunks():
    # draws cut at other points than the narrowing chunks read the same
    # 64-bit stream as one draw, at every width
    size = 2 * _DEALER_CHUNK + 5
    for bits in WIDTHS:
        whole = DealerRng(103, bits).elements(size, bits)
        rng = DealerRng(103, bits)
        parts = [rng.elements(k, bits) for k in (1, _DEALER_CHUNK - 1, _DEALER_CHUNK + 5)]
        assert np.array_equal(whole, np.concatenate(parts))
        assert np.array_equal(whole, DealerRng(103, bits).elements(size) & np.uint64((1 << bits) - 1))


@pytest.mark.parametrize("bits", (32, 48))
def test_dealer_draw_holds_its_result_and_one_chunk(bits):
    # the count's 8 * C(500, 2) draw never holds a 64-bit copy of the whole
    # draw: the peak is the result, one raw chunk and a few array headers
    dealer = DealerRng(107)
    tracemalloc.start()
    try:
        out = dealer.elements((8, comb(500, 2)), bits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes < peak < out.nbytes + 8 * _DEALER_CHUNK + 4096


def test_pair_mask_is_cached_and_read_only():
    mask = pair_mask(5)
    assert pair_mask(5) is mask
    with pytest.raises(ValueError, match="read-only"):
        mask[0, 1] = False
    with pytest.raises(ValueError, match="read-only"):
        mask[:] = True
    assert np.array_equal(mask, np.triu(np.ones((5, 5), dtype=bool), 1))
