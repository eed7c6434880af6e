"""Additive secret sharing over the ring Z_2^w, w a multiple of 16 up to 64.

Scalar values are plain Python ints in [0, 2**w); bulk values are numpy
arrays of dtype ring_dtype(w): uint32 for w <= 32, else uint64. A secret x
is held as shares (r, x - r) mod 2**w. Arithmetic on the dtype wraps
modulo 2**32 or 2**64, which 2**w divides, so it is exact mod 2**w as
long as every value that leaves a server (an opening, a dealer share, an
output share) is reduced mod 2**w first; bits at or above w would carry
information about the shares. reduce_bits does that reduction, and is a
no-op when the dtype is w bits wide, as uint32 is at 32 bits. ring_bits
gives the width w of a count over n users: the narrowest one that holds
the count bound C(n, 3). The fixed-point noise fold of perturbation lifts
the count shares by its scale 2**20 into the wider ring Z_2^fold_bits(w),
which has to hold the scaled count plus a noise tail. Shares made by share
are 64-bit; the dealer draws one raw 64-bit stream and narrows it to w
bits, so a w-bit draw is the 64-bit one mod 2**w.

Correlated randomness (share masks and the count's dealer correlation)
comes from a seeded trusted dealer, standing in for an oblivious-transfer
offline phase. The share products rest on one kernel, ring_square: the
pair vector of V_s @ V_s, with V_s = V + V.T the symmetric zero-diagonal
matrix of a pair vector v (pair_mask fixes the row-major pair layout).
V_s is staged once, in the kernel's own n x n scratch matrix viewed as
little-endian ring_dtype(w) entries: v is scattered into both triangles
and the diagonal reset to zero. Its L = w / 16 16-bit limbs are then
copied whole from that staging into float64 matrices, and the shift sums
of their products take one BLAS product of n x n matrices per limb pair
l <= r with l + r < L: 2 at 32 bits and 4 at 48, written into the same
scratch matrix. The L limb matrices and the scratch matrix stay resident
between calls of one n and w: 6 MB after a square at n = 500 in the
32-bit ring, 128 MB after one at n = 2000 in the 48-bit ring.
"""

from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

RING_BITS = 64
RING_MOD = 1 << RING_BITS
MASK = RING_MOD - 1

# The noise fold of perturbation opens count * FIXED_POINT_SCALE + noise
# in the fold ring Z_2^fold_bits(w) of a count run in Z_2^w, with Laplace
# noise of scale at most MAX_NOISE_SCALE.
# Laplace(lambda) exceeds 64 * lambda in magnitude with probability
# exp(-64) < 2**-92, so NOISE_TAIL bounds the noise but for that chance.
FIXED_POINT_SCALE = 1 << 20
MAX_NOISE_SCALE = 10**4
NOISE_TAIL = 64 * MAX_NOISE_SCALE

# ring_square splits each element into L <= 4 16-bit limbs, so a limb
# product is at most (2**16 - 1)**2 < 2**32. The shift-k term adds the
# at most four limb products with l + r = k < L, so with inner dimension n
# every partial sum of one of its entries is a non-negative integer below
# 4 * n * (2**16 - 1)**2 < n * 2**34, whatever L is. float64 holds every
# integer up to 2**53 exactly, so n < 2**19 keeps the sum exact in
# whatever order BLAS adds.
_LIMB_BITS = 16
MATMUL_MAX_INNER = 1 << 19
# raw 64-bit dealer draws narrowed at a time: 256 KB, cache-sized
_DEALER_CHUNK = 1 << 15

RingElement = int


def _fold_bound(n: int) -> int:
    """Largest magnitude the noise fold opens for a count over n users."""
    return (comb(n, 3) + NOISE_TAIL) * FIXED_POINT_SCALE


def fold_bits(bits: int) -> int:
    """Width of the ring perturbation folds the noise of a bits-wide count in.

    Scaling both shares of t by 2**20 in Z_2^(bits + 20) gives shares of
    t * 2**20 there exactly, so the lift needs no opening; 64-bit shares
    stay in Z_2^64.
    """
    return min(bits + 20, RING_BITS)


def ring_bits(n: int) -> int:
    """Width of the ring a count over n users runs in.

    The smallest multiple of 16 with _fold_bound(n) below 2**(f - 2),
    f = fold_bits(w): the count, the folded noise and perturbation's
    overflow guard at 2**(f - 2) all fit the signed range of the fold
    ring, and the count, below 2**(f - 22) <= 2**(w - 2), fits Z_2^w.
    That is 32 bits up to n = 1861 and 48 up to MAX_USERS; since
    fold_bits(48) is already 64, 64 is never chosen. Raises ValueError
    when no width does, that is for n > MAX_USERS.
    """
    bound = _fold_bound(n)
    for bits in range(_LIMB_BITS, RING_BITS + 1, _LIMB_BITS):
        if bound < 1 << (fold_bits(bits) - 2):
            return bits
    raise ValueError(f"a count over {n} users does not fit the {RING_BITS}-bit ring")


def _max_users() -> int:
    """The largest n that ring_bits admits, by bisection."""
    lo, hi = 0, 1 << 20  # the bound fits at lo and not at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _fold_bound(mid) < 1 << (RING_BITS - 2):
            lo = mid
        else:
            hi = mid
    return lo


MAX_USERS = _max_users()


def ring_dtype(bits: int) -> type:
    """The dtype of a bulk value of Z_2^bits: uint32 up to 32 bits, else uint64."""
    return np.uint32 if bits <= 32 else np.uint64


def reduce_bits(a: np.ndarray, bits: int) -> np.ndarray:
    """a reduced mod 2**bits in place; a no-op when its dtype is bits wide."""
    if bits < 8 * a.dtype.itemsize:
        a &= a.dtype.type((1 << bits) - 1)
    return a


def decode_signed(element: RingElement, bits: int = RING_BITS) -> int:
    """Read an element of Z_2^bits as a two's-complement signed integer."""
    element &= (1 << bits) - 1
    return element - (1 << bits) if element >> (bits - 1) else element


class SharePair(NamedTuple):
    """Additive shares of one element of Z_2^bits: server 1 holds s1, server 2 s2."""

    s1: RingElement
    s2: RingElement
    bits: int = RING_BITS


class DealerRng:
    """Seeded stream of uniform ring elements.

    Same (seed, path) always yields the same stream, so share masks and
    the count's dealer correlation are reproducible run to run; a
    distinct path gives an independent stream. Every element is one raw
    64-bit output of the PCG64 bit generator, the stream
    Generator.integers(0, 2**64, dtype=np.uint64) draws too.
    """

    def __init__(self, seed: int, *path: int):
        seq = np.random.SeedSequence([int(seed), *map(int, path)])
        self._raw = np.random.PCG64(seq).random_raw

    def element(self) -> RingElement:
        return self._raw()

    def elements(self, shape, bits: int = RING_BITS) -> np.ndarray:
        """Uniform array of Z_2^bits, of dtype ring_dtype(bits).

        Consumes one raw 64-bit draw per element at every width and
        returns it reduced mod 2**bits, so the draws of any width are the
        64-bit ones reduced. The draws are narrowed into the result
        _DEALER_CHUNK at a time: the stream is the same in chunks, and no
        64-bit copy of a narrower result is ever held whole.
        """
        out = np.empty(shape, dtype=ring_dtype(bits))
        flat = out.reshape(-1)
        for start in range(0, flat.size, _DEALER_CHUNK):
            part = flat[start : start + _DEALER_CHUNK]
            draw = self._raw(part.size)
            np.copyto(part, draw, casting="unsafe")
            del draw  # freed before the next chunk is drawn
        return reduce_bits(out, bits)


def share(secret: int, rng: DealerRng) -> SharePair:
    """Split a secret into two uniform additive shares: (mask, secret - mask)."""
    mask = rng.element()
    return SharePair(mask, (secret - mask) & MASK)


def reconstruct(pair: SharePair) -> RingElement:
    return (pair.s1 + pair.s2) & ((1 << pair.bits) - 1)


class OpeningChannel:
    """Exchange point for values the two servers jointly open.

    Every cross-server opening of the count goes through here, so a
    transcript of what each server learns (its own shares plus the opened
    e = u - x) can be audited. Recording is off by default; the opened
    arrays for a full count would dwarf the inputs.
    """

    def __init__(self, record: bool = False):
        self.openings = 0
        self.record = record
        self.values: list[int] = []

    def open_array(self, s1: np.ndarray, s2: np.ndarray, bits: int = RING_BITS) -> np.ndarray:
        """The opened s1 + s2, reduced mod 2**bits, of the operands' dtype."""
        value = reduce_bits(s1 + s2, bits)
        self.openings += int(value.size)
        if self.record:
            self.values.extend(value.tolist())
        return value


def check_matmul_inner(n: int) -> None:
    """Raise ValueError unless ring_square is exact at inner dimension n."""
    if n >= MATMUL_MAX_INNER:
        raise ValueError(
            f"inner dimension {n} >= {MATMUL_MAX_INNER}: float64 limb sums "
            "would no longer be exact"
        )


@lru_cache(maxsize=8)
def pair_mask(n: int) -> np.ndarray:
    """Strictly upper n x n mask: indexing with it lists the pairs i < j.

    They come in row-major order, the order of every pair vector. The mask
    is cached and read-only.
    """
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def pair_index(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Position of each pair (i, j), i < j, in the pair_mask order.

    Row i starts after the n - 1 - r pairs of every row r < i.
    """
    return i * (2 * n - i - 1) // 2 + j - i - 1


def _square_pairs(limbs: np.ndarray, acc: np.ndarray, bits: int) -> np.ndarray:
    """Pair entries of A @ A.T, reduced mod 2**bits, of dtype ring_dtype(bits).

    limbs holds the bits // 16 16-bit limbs of A as float64 (a, N)
    matrices, least significant first, and acc is a float64 (a, a)
    scratch matrix; the pairs are those of pair_mask(a). The shift-k term
    of A @ A.T sums S_l @ S_r.T over l + r = k, and (S_l @ S_r.T).T is
    S_r @ S_l.T, so each unordered limb pair costs one BLAS product M,
    written into acc, whose pair entries are added once when l = r (numpy
    runs S_l @ S_l.T as a symmetric rank-k update, at half the work) and
    with those of M.T otherwise. Each shift's sum starts as the gather of
    its first product, and its float64 sum is exact (see
    MATMUL_MAX_INNER); it is converted through int64 once and, from shift
    1 on, shifted by 16 * k into the shift-0 term. Shifts at or above bits
    are never computed. The first product overwrites acc whole, so it may
    hold anything on entry.
    """
    a = acc.shape[0]
    mask = pair_mask(a)
    for k in range(len(limbs)):
        for l in range(k // 2 + 1):
            np.matmul(limbs[l], limbs[k - l].T, out=acc)
            if l == 0:
                shift_sum = acc[mask]
            else:
                shift_sum += acc[mask]
            if 2 * l < k:
                shift_sum += acc.T[mask]
        term = shift_sum.astype(np.int64).view(np.uint64)
        del shift_sum  # at most three pair vectors live: out, a sum, a gather
        if k == 0:
            out = term
        else:
            term <<= np.uint64(_LIMB_BITS * k)
            out += term
        del term
    return reduce_bits(out.astype(ring_dtype(bits), copy=False), bits)


# ring_square's float64 limb matrices and product scratch, kept between
# calls: {(n, bits): (limbs, acc)}, one entry at most
_workspace: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _limb_workspace(n: int, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """ring_square's float64 limbs, (bits // 16, n, n), and its (n, n) scratch.

    Both are kept for the next call of the same n and bits; another n or
    bits drops them before allocating. Every call rewrites both whole, so
    they are allocated uninitialised. The cache is not guarded against
    calls from several threads at once.
    """
    key = (n, bits)
    if key not in _workspace:
        _workspace.clear()
        _workspace[key] = np.empty((bits // _LIMB_BITS, n, n)), np.empty((n, n))
    return _workspace[key]


def ring_square(v: np.ndarray, n: int, bits: int = RING_BITS) -> np.ndarray:
    """The pair vector of V_s @ V_s in Z_2^bits, V_s = V + V.T.

    V is the strictly upper n x n matrix that holds pair vector v, so V_s
    is symmetric with a zero diagonal. bits is 16, 32, 48 or 64, and the
    result is a fresh array, reduced and of dtype ring_dtype(bits). Native
    uint64 matmul does not use BLAS. Here V_s is staged once in the
    workspace's scratch matrix, viewed as n x n of ring_dtype(bits) in
    little-endian byte order: v is scattered through pair_mask and its
    transpose and the diagonal, left over from the last product, is reset
    to zero. Limb l of V_s is then 16-bit word l of each entry, and each
    of the low bits // 16 limbs is copied whole into its float64 matrix,
    so bits of v at or above bits never reach a limb. _square_pairs sums
    the limb products (V_s is symmetric, so V_s @ V_s = V_s @ V_s.T).
    Raises ValueError if n >= MATMUL_MAX_INNER or if v is not of shape
    (C(n, 2),): a shorter vector would broadcast through the scatter.
    """
    check_matmul_inner(n)
    shape = (n * (n - 1) // 2,)
    if v.shape != shape:
        raise ValueError(f"the operand must have shape {shape}, got {v.shape}")
    limbs, acc = _limb_workspace(n, bits)
    mask = pair_mask(n)
    dtype = np.dtype(ring_dtype(bits)).newbyteorder("<")
    staged = acc.reshape(-1).view(dtype)[: n * n].reshape(n, n)
    staged[mask] = v
    staged.T[mask] = v
    np.fill_diagonal(staged, 0)
    words = staged.view("<u2").reshape(n, n, dtype.itemsize // 2)
    for l, mat in enumerate(limbs):
        np.copyto(mat, words[..., l])
    return _square_pairs(limbs, acc, bits)
