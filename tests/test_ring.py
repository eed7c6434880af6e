import tracemalloc
from math import comb

import numpy as np
import pytest
from scipy import stats

from privtri import (
    DealerRng,
    OpeningChannel,
    SharePair,
    count,
    exact_triangle_count,
    reconstruct,
    share,
    share_adjacency,
)
from privtri import ring
from privtri.ring import (
    _DEALER_CHUNK,
    _PAIR_BLOCK,
    MASK,
    MATMUL_MAX_INNER,
    RING_MOD,
    _square_pairs,
    decode_signed,
    pair_index,
    pair_mask,
    ring_dtype,
    ring_square,
)

from conftest import as_projected, complete_graph, erdos_renyi

WIDTHS = (16, 32, 48, 64)
# no pairs, one, the smallest with a triangle, and sizes around 128 and 256
SIZES = [0, 1, 2, 3, 127, 128, 129, 257]


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
    # (e = u - x) is a fixed secret minus a fresh mask and must look
    # uniform; chi-square on the low 16 bits of the first 2^20 openings of
    # three counts, 3 * C(837, 2) in all
    m = 1 << 20
    g = complete_graph(837)
    sa = share_adjacency(as_projected(g), DealerRng(2718, 0))
    channel = OpeningChannel(record=True)
    for seed in (1, 2, 3):
        count(sa, g.n, DealerRng(2718, seed), channel)
    assert channel.openings >= m
    opened = np.array(channel.values[:m], dtype=np.uint64)
    low = (opened & np.uint64(0xFFFF)).astype(np.int64)
    counts = np.bincount(low, minlength=65536)
    chi2 = stats.chisquare(counts)
    assert chi2.pvalue > 0.001


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


def strict_upper(rng, n):
    return np.triu(rng.integers(0, RING_MOD, size=(n, n), dtype=np.uint64), 1)


# ring_square is the ring's one matrix product; its tests keep the
# test_ring_matmul_ names of the general kernel it replaced.


def native_square(a, bits):
    """(V_s @ V_s)[pair_mask] mod 2**bits by native uint64 matmul, V_s = a + a.T.

    Native uint64 @ wraps modulo 2**64 too, but without BLAS.
    """
    s = a + a.T
    return (s @ s)[pair_mask(a.shape[0])] & np.uint64((1 << bits) - 1)


@pytest.mark.parametrize("bits", WIDTHS)
def test_ring_matmul_at_every_width(bits):
    # bits // 16 limbs give V_s @ V_s mod 2**bits: the native uint64 square
    # reduced, and the 64-bit kernel's result reduced; operand bits at or
    # above the width (junk a server's local uint64 arithmetic leaves) are
    # never read, and an operand of the width's own dtype gives the same
    rng = np.random.default_rng(61 + bits)
    low = np.uint64((1 << bits) - 1)
    for n in SIZES:
        m = pair_mask(n)
        a = strict_upper(rng, n)
        want = native_square(a, bits)
        got = ring_square(a[m], n, bits)
        assert got.dtype == ring_dtype(bits)
        assert np.array_equal(got, want)
        assert np.array_equal(got, ring_square(a[m], n) & low)
        reduced = (a[m] & low).astype(ring_dtype(bits))
        assert np.array_equal(ring_square(reduced, n, bits), want)
    for n in (1, 2, 3, 64, 65, 129):
        full = np.triu(np.full((n, n), MASK, dtype=np.uint64), 1)
        assert np.array_equal(ring_square(full[pair_mask(n)], n, bits), native_square(full, bits))


def test_ring_matmul_matches_native_uint64_matmul():
    # random sizes besides the fixed ones, at the full 64-bit width
    rng = np.random.default_rng(47)
    for n in [int(n) for n in rng.integers(4, 200, size=8)] + [300]:
        a = strict_upper(rng, n)
        assert np.array_equal(ring_square(a[pair_mask(n)], n), native_square(a, 64))


def test_ring_matmul_rejects_operands_outside_its_contract():
    # an operand must be a pair vector of length C(n, 2); a length-1 vector
    # would otherwise broadcast through the scatter to matrix form
    rng = np.random.default_rng(53)
    for n in (3, 5, 65):
        u = strict_upper(rng, n)[pair_mask(n)]
        for w in [u[:-1], np.append(u, 1), u[:1], u.reshape(1, -1)]:
            with pytest.raises(ValueError, match="shape"):
                ring_square(w, n)
        with pytest.raises(ValueError, match="shape"):
            ring_square(u, n + 1)


def test_ring_matmul_refuses_inexact_inner_dimension():
    # the size check comes before the length check and before any scatter
    empty = np.zeros(0, dtype=np.uint64)
    for n in (MATMUL_MAX_INNER, MATMUL_MAX_INNER + 1):
        with pytest.raises(ValueError, match="inner dimension"):
            ring_square(empty, n)
        assert (n, 64) not in ring._workspace


def split_limbs(a, bits):
    """The bits // 16 16-bit limbs of a uint64 matrix, as float64."""
    limbs = [(a >> np.uint64(16 * l)) & np.uint64(0xFFFF) for l in range(bits // 16)]
    return np.stack(limbs).astype(float)


@pytest.mark.parametrize("bits", WIDTHS)
def test_limb_product_exact_at_largest_inner_dimension_at_every_width(bits):
    # _square_pairs is the arithmetic of every ring_square call: at most 4
    # limb products per shift, so MATMUL_MAX_INNER holds at every width.
    # All-ones limbs at inner dimension MATMUL_MAX_INNER - 1 give the
    # largest shift sums it admits; a row of other values mixes limbs
    a = np.full((3, MATMUL_MAX_INNER - 1), MASK, dtype=np.uint64)
    a[2] = np.random.default_rng(109).integers(0, RING_MOD, size=a.shape[1], dtype=np.uint64)
    got = square_pairs_of(a, bits)
    assert got.dtype == ring_dtype(bits)
    assert np.array_equal(got, (a @ a.T)[pair_mask(3)] & np.uint64((1 << bits) - 1))


def square_pairs_of(a, bits):
    return _square_pairs(split_limbs(a, bits), np.empty((a.shape[0],) * 2), bits)


@pytest.mark.parametrize("bits", WIDTHS)
def test_limb_product_exact_at_largest_inner_dimension_with_mixed_signs(bits):
    # shares are uniform, so half of them read as negative in two's
    # complement: rows of -1, of 1, of both signed extremes and of random
    # signed values at inner dimension MATMUL_MAX_INNER - 1, sign-extended
    # to 64 bits as a server's uint64 arithmetic leaves them, square to the
    # signed products mod 2**bits; int64 @ wraps mod 2**64, so it gives the
    # reference, and -1 times 1 sums to exactly -(MATMUL_MAX_INNER - 1)
    inner, low, half = MATMUL_MAX_INNER - 1, (1 << bits) - 1, 1 << (bits - 1)
    signed = np.empty((4, inner), dtype=np.int64)
    signed[0], signed[1] = -1, 1
    signed[2] = np.where(np.arange(inner) % 2, -half, half - 1)
    signed[3] = np.random.default_rng(113).integers(-half, half, size=inner, dtype=np.int64)
    got = square_pairs_of(signed.view(np.uint64), bits)
    want = (signed @ signed.T).view(np.uint64)[pair_mask(4)] & np.uint64(low)
    assert np.array_equal(got, want)
    assert decode_signed(int(got[0]), bits) == decode_signed(-inner & low, bits)


@pytest.mark.parametrize("bits", WIDTHS)
def test_square_pairs_is_the_gram_matrix_at_every_width(bits):
    # the transpose of S_l @ S_r.T is S_r @ S_l.T for any A, symmetric or
    # not, so the pair entries of A @ A.T of rectangular A, with no rows,
    # no columns, fewer columns than rows and more, are the native ones
    rng = np.random.default_rng(127 + bits)
    for rows, cols in [(0, 5), (1, 3), (2, 0), (3, 7), (5, 2), (40, 17), (129, 64)]:
        a = rng.integers(0, RING_MOD, size=(rows, cols), dtype=np.uint64)
        want = (a @ a.T)[pair_mask(rows)] & np.uint64((1 << bits) - 1)
        assert np.array_equal(square_pairs_of(a, bits), want)


@pytest.mark.parametrize("density", [0.05, 0.3, 1.0])
def test_ring_square_of_pair_bits_counts_common_neighbours(density):
    # on 0/1 pair bits, entry (i, k) of V_s @ V_s is the number of common
    # neighbours of i and k, and a third of its inner product with the
    # bits is the triangle count, what the secure count opens
    g = erdos_renyi(60, density, np.random.default_rng(131))
    m = pair_mask(g.n)
    u = g.adj[m].astype(np.uint32)
    got = ring_square(u, g.n, 32)
    adj = g.adj.astype(np.int64)
    assert np.array_equal(got, (adj @ adj)[m])
    assert int(np.dot(u, got)) == 3 * exact_triangle_count(g)


def test_ring_matmul_reuses_one_workspace():
    # interleaved sizes and widths through the one cached workspace: each
    # call after the first finds another n or width but the fourth, which
    # reuses the third's; each result is the native square reduced and a
    # fresh array, and the cached limbs stay symmetric with a zero diagonal
    rng = np.random.default_rng(101)
    for n, bits in [(129, 32), (257, 48), (0, 32), (129, 64), (129, 64), (3, 16), (129, 32)]:
        m = pair_mask(n)
        a = strict_upper(rng, n)
        v = a[m]
        got = ring_square(v, n, bits)
        assert np.array_equal(got, native_square(a, bits))
        limbs, acc = ring._workspace[n, bits]
        assert len(ring._workspace) == 1 and limbs.shape == (bits // 16, n, n)
        assert acc.shape == (n, n)
        for held in (limbs, acc, v):
            assert not np.shares_memory(got, held)
        assert np.array_equal(limbs, limbs.transpose(0, 2, 1))
        assert not limbs[:, np.arange(n), np.arange(n)].any()


@pytest.mark.parametrize("bits", (32, 48))
def test_ring_square_reads_an_operand_in_either_byte_order(bits):
    # V_s is staged little-endian so that limb l is its 16-bit word l; an
    # operand of the opposite byte order is read by value, not by bytes
    rng = np.random.default_rng(137 + bits)
    low = np.uint64((1 << bits) - 1)
    for n in (2, 3, 129):
        a = strict_upper(rng, n) & low
        v = a[pair_mask(n)].astype(ring_dtype(bits))
        swapped = v.astype(v.dtype.newbyteorder())
        assert swapped.dtype != v.dtype and np.array_equal(swapped, v)
        assert np.array_equal(ring_square(swapped, n, bits), native_square(a, bits))


@pytest.mark.parametrize("bits", (32, 48))
def test_warm_ring_square_allocates_no_square_temporary(bits):
    # with its workspace warm, a call stages V_s in the scratch matrix and
    # adds each limb product into the result one band of pairs at a time:
    # its traced peak at n = 300 stays under the result and one band, that
    # is a float64 gather and its int64 conversion of at most _PAIR_BLOCK
    # pairs plus one row, and the add's cast buffer of np.getbufsize()
    # 8-byte elements. That is 5 KB above the peak, and a pair vector of 4
    # bytes is 175 KB, so any pair-sized or n x n temporary exceeds it
    n = 300
    v = strict_upper(np.random.default_rng(139), n)[pair_mask(n)].astype(ring_dtype(bits))
    ring_square(v, n, bits)
    tracemalloc.start()
    try:
        got = ring_square(v, n, bits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    band = 2 * 8 * (_PAIR_BLOCK + n) + 8 * np.getbufsize()
    assert got.nbytes < peak < got.nbytes + band + 4096


def test_open_array_reduces_to_the_width():
    rng = np.random.default_rng(67)
    s1, s2 = rng.integers(0, RING_MOD, size=(2, 500), dtype=np.uint64)
    for bits in WIDTHS:
        channel = OpeningChannel(record=True)
        got = channel.open_array(s1, s2, bits)
        assert np.array_equal(got, (s1 + s2) & np.uint64((1 << bits) - 1))
        assert channel.values == got.tolist()
        assert {type(v) for v in channel.values} == {int}  # not numpy scalars
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
    # a draw of 8 * C(500, 2) never holds a 64-bit copy of the whole draw:
    # the peak is the result, one raw chunk and a few array headers
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
