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
    _PAIR_BLOCK,
    MASK,
    RING_BITS,
    _square_pairs,
    decode_signed,
    pair_index,
    pair_mask,
    ring_square,
)

from conftest import as_projected, complete_graph, erdos_renyi

# the ring's one width: the width-parametrised tests run in Z_2^32
WIDTHS = (RING_BITS,)
# no pairs, one, the smallest with a triangle, and sizes around 128 and 256
SIZES = [0, 1, 2, 3, 127, 128, 129, 257]
# an inner dimension below 2**19, where every partial sum of a limb product
# is below 2**51 and so exact in float64; a count has at most MAX_USERS rows
LIMB_EXACT_INNER = (1 << 19) - 1


def test_share_zero_with_known_mask():
    pair = share(0, DealerRng(3))
    mask = int(DealerRng(3).elements(()))
    assert pair == SharePair(mask, MASK + 1 - mask)
    assert reconstruct(pair) == 0


def test_share_one_reconstructs():
    assert reconstruct(share(1, DealerRng(3))) == 1


def test_share_roundtrip_random():
    rng = DealerRng(11)
    values = rng.elements(1000)
    for v in values.tolist():
        assert reconstruct(share(v, rng)) == v


def test_share_of_an_array_writes_its_second_share_into_the_array():
    # the masks are the stream's next draw of the array's shape, and the
    # second share takes the given buffer, so the pair opens to the values
    values = DealerRng(5).elements((4, 25))
    given = values.copy()
    rng = DealerRng(7)
    first = rng.elements(3)
    masks, second = share(given, rng)
    after = DealerRng(7)
    assert np.array_equal(after.elements(3), first)
    assert masks.dtype == np.uint32 and np.array_equal(masks, after.elements((4, 25)))
    assert second is given
    assert np.array_equal(OpeningChannel().open_array(masks, second), values)
    assert np.array_equal(rng.elements(2), after.elements(2))


def test_reconstruct_known_pairs():
    assert reconstruct(SharePair(3, 4)) == 7
    assert reconstruct(SharePair(MASK, 2)) == 1  # wraps mod 2**32


def test_signed_encoding_roundtrip():
    for v in [0, 1, -1, 12345, -12345, (1 << 30), -(1 << 31)]:
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
    # shares reconstruct in the ring; values decode in it, the count and
    # its noise alike, and bits above the ring are dropped
    assert reconstruct(SharePair(MASK + 4, 4)) == 7
    for v in [0, 1, -1, 12345, -12345, (1 << 30), (1 << 31) - 1, -(1 << 31)]:
        assert decode_signed(v & MASK) == v
        assert decode_signed(v & ((1 << 64) - 1)) == v


def strict_upper(rng, n, dtype=np.uint32):
    return np.triu(rng.integers(0, np.iinfo(dtype).max, size=(n, n), dtype=dtype, endpoint=True), 1)


# ring_square is the ring's one matrix product; its tests keep the
# test_ring_matmul_ names of the general kernel it replaced.


def native_square(a):
    """(V_s @ V_s)[pair_mask] mod 2**32 by native integer matmul, V_s = a + a.T.

    Native integer @ wraps modulo 2**32 in uint32 and 2**64 in uint64,
    without BLAS.
    """
    s = a + a.T
    return (s @ s)[pair_mask(a.shape[0])].astype(np.uint32)


@pytest.mark.parametrize("bits", WIDTHS)
def test_ring_matmul_at_every_width(bits):
    # bits // 16 limbs give V_s @ V_s mod 2**bits, the native uint32
    # square, as uint32; the all-ones operands give the largest limb sums
    rng = np.random.default_rng(61 + bits)
    for n in SIZES:
        a = strict_upper(rng, n)
        got = ring_square(a[pair_mask(n)], n)
        assert got.dtype == np.uint32 and got.itemsize * 8 == bits
        assert np.array_equal(got, native_square(a))
    for n in (1, 2, 3, 64, 65, 129):
        full = np.triu(np.full((n, n), MASK, dtype=np.uint32), 1)
        assert np.array_equal(ring_square(full[pair_mask(n)], n), native_square(full))


def test_ring_matmul_matches_native_uint64_matmul():
    # random sizes besides the fixed ones, against the native uint64 square
    # reduced: operand bits at or above 32 are never read
    rng = np.random.default_rng(47)
    for n in [int(n) for n in rng.integers(4, 200, size=8)] + [300]:
        a = strict_upper(rng, n, np.uint64)
        assert np.array_equal(ring_square(a[pair_mask(n)], n), native_square(a))


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


def square_pairs_of(a):
    """_square_pairs of the 16-bit limbs of a, read as uint32, as float64."""
    words = a.astype(np.uint32)
    limbs = np.stack((words & np.uint32(0xFFFF), words >> np.uint32(16))).astype(float)
    return _square_pairs(limbs, np.empty((a.shape[0],) * 2))


@pytest.mark.parametrize("bits", WIDTHS)
def test_limb_product_exact_at_largest_inner_dimension_at_every_width(bits):
    # _square_pairs is the arithmetic of every ring_square call. All-ones
    # limbs at inner dimension LIMB_EXACT_INNER give the largest sums at
    # that dimension; a row of other values mixes limbs
    a = np.full((3, LIMB_EXACT_INNER), MASK, dtype=np.uint64)
    a[2] = np.random.default_rng(109).integers(0, MASK, size=a.shape[1], dtype=np.uint64)
    got = square_pairs_of(a)
    assert got.dtype == np.uint32
    assert np.array_equal(got, (a @ a.T)[pair_mask(3)] & np.uint64((1 << bits) - 1))


@pytest.mark.parametrize("bits", WIDTHS)
def test_limb_product_exact_at_largest_inner_dimension_with_mixed_signs(bits):
    # shares are uniform, so half of them read as negative in two's
    # complement: rows of -1, of 1, of both signed extremes and of random
    # signed values at inner dimension LIMB_EXACT_INNER square to the
    # signed products mod 2**32; int64 @ wraps mod 2**64, so it gives the
    # reference, and -1 times 1 sums to exactly -LIMB_EXACT_INNER
    inner, half = LIMB_EXACT_INNER, 1 << (bits - 1)
    signed = np.empty((4, inner), dtype=np.int64)
    signed[0], signed[1] = -1, 1
    signed[2] = np.where(np.arange(inner) % 2, -half, half - 1)
    signed[3] = np.random.default_rng(113).integers(-half, half, size=inner, dtype=np.int64)
    got = square_pairs_of(signed)
    want = (signed @ signed.T).view(np.uint64)[pair_mask(4)] & np.uint64((1 << bits) - 1)
    assert np.array_equal(got, want)
    assert decode_signed(int(got[0])) == -inner


@pytest.mark.parametrize("bits", WIDTHS)
def test_square_pairs_is_the_gram_matrix_at_every_width(bits):
    # the transpose of S0 @ S1.T is S1 @ S0.T for any A, symmetric or
    # not, so the pair entries of A @ A.T of rectangular A, with no rows,
    # no columns, fewer columns than rows and more, are the native ones
    rng = np.random.default_rng(127 + bits)
    for rows, cols in [(0, 5), (1, 3), (2, 0), (3, 7), (5, 2), (40, 17), (129, 64)]:
        a = rng.integers(0, MASK, size=(rows, cols), dtype=np.uint32, endpoint=True)
        assert np.array_equal(square_pairs_of(a), (a @ a.T)[pair_mask(rows)])


@pytest.mark.parametrize("density", [0.05, 0.3, 1.0])
def test_ring_square_of_pair_bits_counts_common_neighbours(density):
    # on 0/1 pair bits, entry (i, k) of V_s @ V_s is the number of common
    # neighbours of i and k, and a third of its inner product with the
    # bits is the triangle count, what the secure count opens
    g = erdos_renyi(60, density, np.random.default_rng(131))
    m = pair_mask(g.n)
    u = g.adj[m].astype(np.uint32)
    got = ring_square(u, g.n)
    adj = g.adj.astype(np.int64)
    assert np.array_equal(got, (adj @ adj)[m])
    assert int(np.dot(u, got)) == 3 * exact_triangle_count(g)


def test_ring_matmul_reuses_one_workspace():
    # interleaved sizes through the one cached workspace: each call after
    # the first finds another n but the fifth, which reuses the fourth's;
    # each result is the native square and a fresh array, and the cached
    # limbs stay symmetric with a zero diagonal
    rng = np.random.default_rng(101)
    for n in [129, 257, 0, 129, 129, 3, 129]:
        m = pair_mask(n)
        a = strict_upper(rng, n)
        v = a[m]
        got = ring_square(v, n)
        assert np.array_equal(got, native_square(a))
        limbs, acc = ring._workspace[n]
        assert len(ring._workspace) == 1 and limbs.shape == (2, n, n)
        assert acc.shape == (n, n)
        for held in (limbs, acc, v):
            assert not np.shares_memory(got, held)
        assert np.array_equal(limbs, limbs.transpose(0, 2, 1))
        assert not limbs[:, np.arange(n), np.arange(n)].any()


@pytest.mark.parametrize("bits", WIDTHS)
def test_ring_square_reads_an_operand_in_either_byte_order(bits):
    # V_s is staged little-endian so that limb l is its 16-bit word l; an
    # operand of the opposite byte order is read by value, not by bytes
    rng = np.random.default_rng(137 + bits)
    for n in (2, 3, 129):
        a = strict_upper(rng, n)
        v = a[pair_mask(n)]
        assert v.itemsize * 8 == bits
        swapped = v.astype(v.dtype.newbyteorder())
        assert swapped.dtype != v.dtype and np.array_equal(swapped, v)
        assert np.array_equal(ring_square(swapped, n), native_square(a))


@pytest.mark.parametrize("bits", WIDTHS)
def test_warm_ring_square_allocates_no_square_temporary(bits):
    # with its workspace warm, a call stages V_s in the scratch matrix and
    # adds each limb product into the result one band of pairs at a time:
    # its traced peak at n = 300 stays under the result and one band, that
    # is a float64 gather and its int64 conversion of at most _PAIR_BLOCK
    # pairs plus one row, and the add's cast buffer of np.getbufsize()
    # 8-byte elements. That is 5 KB above the peak, and a pair vector of 4
    # bytes is 175 KB, so any pair-sized or n x n temporary exceeds it
    n = 300
    v = strict_upper(np.random.default_rng(139), n)[pair_mask(n)]
    assert v.itemsize * 8 == bits
    ring_square(v, n)
    tracemalloc.start()
    try:
        got = ring_square(v, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    band = 2 * 8 * (_PAIR_BLOCK + n) + 8 * np.getbufsize()
    assert got.nbytes < peak < got.nbytes + band + 4096


def test_open_array_reduces_to_the_width():
    # an opening is a uint32 element of Z_2^32 whatever the operands'
    # dtype: uint64 operands are read mod 2**32
    rng = np.random.default_rng(67)
    s1, s2 = rng.integers(0, 1 << 64, size=(2, 500), dtype=np.uint64, endpoint=False)
    want = (s1 + s2) & np.uint64(MASK)
    for dtype in (np.uint32, np.uint64):
        channel = OpeningChannel(record=True)
        got = channel.open_array(s1.astype(dtype), s2.astype(dtype))
        assert got.dtype == np.uint32
        assert np.array_equal(got, want)
        assert channel.values == got.tolist()
        assert {type(v) for v in channel.values} == {int}  # not numpy scalars


def test_open_array_keeps_its_operands_dtype():
    # the ring's uint32 shares open as uint32: uint32 & np.uint64(mask)
    # would promote the opening to uint64
    rng = np.random.default_rng(83)
    s1, s2 = rng.integers(0, MASK, size=(2, 500), dtype=np.uint32, endpoint=True)
    got = OpeningChannel().open_array(s1, s2)
    assert got.dtype == s1.dtype == np.uint32
    assert np.array_equal(got, (s1.astype(np.uint64) + s2) & np.uint64(MASK))


def test_dealer_draws_read_each_raw_word_as_two_uint32():
    # each raw 64-bit PCG64 word gives two elements, its low half first;
    # an odd size leaves the high half of its last word unread, and the
    # next draw starts at the next word
    raw = np.random.PCG64(np.random.SeedSequence([89])).random_raw(200)
    low, high = (raw & np.uint64(MASK)).astype(np.uint32), (raw >> np.uint64(32)).astype(np.uint32)
    words = np.stack((low, high), axis=1).reshape(-1)
    rng = DealerRng(89)
    got = rng.elements((3, 100))
    assert got.dtype == np.uint32 and got.shape == (3, 100)
    assert np.array_equal(got.reshape(-1), words[:300])
    assert np.array_equal(rng.elements(5), words[300:305])
    assert np.array_equal(rng.elements(4), words[306:310])
    assert rng.elements(()) == low[155]


def test_dealer_draws_are_one_stream_across_chunks():
    # draws cut into chunks of even sizes read the same raw stream as one
    # draw; an odd chunk skips the high half of its last word
    size = 2 * 4096 + 6
    whole = DealerRng(103).elements(size)
    rng = DealerRng(103)
    parts = [rng.elements(k) for k in (2, 4096 - 2, 4096 + 6)]
    assert np.array_equal(whole, np.concatenate(parts))
    rng = DealerRng(103)
    odd = [rng.elements(k) for k in (3, 4)]
    assert np.array_equal(np.concatenate(odd), np.delete(whole[:8], 3))


def test_dealer_draw_holds_only_its_result():
    # a draw of 8 * C(500, 2) elements holds the raw words it reads, the
    # result's own bytes, and a few array headers
    dealer = DealerRng(107)
    tracemalloc.start()
    try:
        out = dealer.elements((8, comb(500, 2)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes <= peak < out.nbytes + 4096


def test_pair_mask_is_cached_and_read_only():
    mask = pair_mask(5)
    assert pair_mask(5) is mask
    with pytest.raises(ValueError, match="read-only"):
        mask[0, 1] = False
    with pytest.raises(ValueError, match="read-only"):
        mask[:] = True
    assert np.array_equal(mask, np.triu(np.ones((5, 5), dtype=bool), 1))
