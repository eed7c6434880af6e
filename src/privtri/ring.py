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

Correlated randomness (share masks, matrix and element-wise Beaver
triples) comes from a seeded trusted dealer, standing in for an
oblivious-transfer offline phase. The share products are two kernels:
ring_matmul, the exact sum of products of the strictly upper-triangular
matrices that hold pairs of pair vectors (pair_mask fixes the row-major
pair layout), and beaver_share, one server's share of an element-wise
Beaver product. ring_matmul splits each operand into L = w / 16 16-bit
limbs held as float64, so each pair costs L (L + 1) / 2 BLAS limb products
(3 at 32 bits, 6 at 48). Each limb product runs over 2-D tiles of the
upper triangle and skips the zero triangles: with T = ceil(n / 128) tiles
a side it is about (T + 1)(T + 2) / (6 T**2) n**3 multiply-adds, 0.31 n**3
at n = 500 and 0.20 n**3 at n = 2000, towards n**3 / 6 as n grows. At
n <= 128 it is one tile, n**3.
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

# ring_matmul splits each element into L <= 4 16-bit limbs, so a limb
# product is at most (2**16 - 1)**2 < 2**32. The shift-k term of one pair
# adds the at most four limb matmuls with l + m = k < L, so with inner
# dimension n every partial sum of one of its entries is a non-negative
# integer below 4 * n * (2**16 - 1)**2 < n * 2**34, whatever L is; a sum
# over P pairs is one product with inner dimension P * n. float64 holds
# every integer up to 2**53 exactly, so P * n < 2**19 keeps the sum exact
# in whatever order BLAS adds.
_LIMB_BITS = 16
MATMUL_MAX_INNER = 1 << 19
_TILE = 128

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
    Beaver triples are reproducible run to run; a distinct path gives an
    independent stream.
    """

    def __init__(self, seed: int, *path: int):
        seq = np.random.SeedSequence([int(seed), *map(int, path)])
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def element(self) -> RingElement:
        return int(self._gen.integers(0, RING_MOD, dtype=np.uint64))

    def elements(self, shape, bits: int = RING_BITS) -> np.ndarray:
        """Uniform array of Z_2^bits, of dtype ring_dtype(bits).

        Consumes one raw 64-bit draw per element at every width and
        returns it reduced mod 2**bits, so the draws of any width are the
        64-bit ones reduced.
        """
        raw = self._gen.integers(0, RING_MOD, size=shape, dtype=np.uint64)
        return reduce_bits(raw.astype(ring_dtype(bits), copy=False), bits)


def share(secret: int, rng: DealerRng) -> SharePair:
    """Split a secret into two uniform additive shares: (mask, secret - mask)."""
    mask = rng.element()
    return SharePair(mask, (secret - mask) & MASK)


def reconstruct(pair: SharePair) -> RingElement:
    return (pair.s1 + pair.s2) & ((1 << pair.bits) - 1)


class OpeningChannel:
    """Exchange point for values the two servers jointly open.

    Every cross-server opening during a multiplication goes through here, so
    a transcript of what each server learns (its own shares plus the opened
    e, f, g) can be audited. Recording is off by default; the opened arrays
    for a full count would dwarf the inputs.
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
            self.values.extend(int(v) for v in value)
        return value


def check_matmul_inner(n: int) -> None:
    """Raise ValueError unless ring_matmul is exact at inner dimension n.

    A sum of P products of n x n matrices is one product with inner
    dimension P * n, so a call of ring_matmul on P pairs needs P * n here.
    """
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


def _block_product(
    pairs: list[tuple[list[np.ndarray], list[np.ndarray]]], rows: slice, inner: slice, cols: slice
) -> np.ndarray:
    """The sum of U[rows, inner] @ V[inner, cols] over pairs, exact mod 2**(16 L).

    Each pair holds the L float64 limb matrices of U and of V, least
    significant first. For each shift k < L the limb products with
    l + m = k of every pair are summed by float64 BLAS, exact below
    MATMUL_MAX_INNER / P for P pairs (see its derivation), and the sum is
    converted to uint64 once and shifted left by 16 * k. Bits at or above
    16 L are left as they fall.
    """
    out = 0
    for k in range(len(pairs[0][0])):
        acc = sum(
            lu[l][rows, inner] @ lv[k - l][inner, cols] for lu, lv in pairs for l in range(k + 1)
        )
        out = out + (acc.astype(np.uint64) << np.uint64(_LIMB_BITS * k))
    return out


def ring_matmul(
    pairs: list[tuple[np.ndarray, np.ndarray]], n: int, bits: int = RING_BITS
) -> np.ndarray:
    """The pair vector of sum(U @ V for (u, v) in pairs) in Z_2^bits.

    bits is 16, 32, 48 or 64, and the result is reduced and of dtype
    ring_dtype(bits). U and V are the strictly upper n x n matrices that
    hold pair vectors u and v; they exist only inside this call. Native
    uint64 matmul does not use BLAS; here each distinct operand (by
    identity) is scattered once, through pair_mask, into its low bits // 16
    limbs held as float64 n x n matrices, so bits of an operand at or above
    bits are never read, and a call holds bits // 16 such matrices per
    distinct operand. The products run over 2-D tiles of _TILE rows by _TILE
    columns of the upper triangle. U[i, j] V[j, k] is nonzero only for
    i < j < k, so the tile at rows [i0, i0 + _TILE) and columns
    [k0, k0 + _TILE), k0 >= i0, needs only the inner range
    [i0 + 1, k0 + _TILE), and tiles below the diagonal are skipped. Each
    tile sums the products of every pair in _block_product.
    Raises ValueError if len(pairs) * n >= MATMUL_MAX_INNER or if an
    operand is not of shape (C(n, 2),): a shorter vector would broadcast
    through the scatter.
    """
    check_matmul_inner(len(pairs) * n)
    shape = (n * (n - 1) // 2,)
    for u, v in pairs:
        if u.shape != shape or v.shape != shape:
            raise ValueError(f"operands must have shape {shape}, got {u.shape} and {v.shape}")
    mask = pair_mask(n)
    dtype = ring_dtype(bits)
    limbs = bits // _LIMB_BITS
    words = np.dtype(dtype).itemsize // 2
    scattered = {}

    def limb_matrices(w: np.ndarray) -> list[np.ndarray]:
        if id(w) not in scattered:
            w16 = np.ascontiguousarray(w, dtype=np.dtype(dtype).newbyteorder("<"))
            w16 = w16.view("<u2").reshape(shape[0], words)
            mats = []
            for l in range(limbs):
                mat = np.zeros((n, n))
                mat[mask] = w16[:, l]
                mats.append(mat)
            scattered[id(w)] = mats
        return scattered[id(w)]

    limb_pairs = [(limb_matrices(u), limb_matrices(v)) for u, v in pairs]
    out = np.zeros((n, n), dtype=np.uint64)
    for i0 in range(0, n, _TILE):
        rows = slice(i0, i0 + _TILE)
        for k0 in range(i0, n, _TILE):
            cols = slice(k0, k0 + _TILE)
            out[rows, cols] = _block_product(limb_pairs, rows, slice(i0 + 1, k0 + _TILE), cols)
    return reduce_bits(out[mask].astype(dtype, copy=False), bits)


def beaver_share(
    f: np.ndarray,
    g: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    public: bool,
) -> np.ndarray:
    """One server's share of the element-wise product u * v.

    The dealer gave each server shares a, b, c of a triple with c = a * b
    element-wise, and the servers opened f = u - a and g = v - b. Since

        u * v = f * g + f * b + a * g + c,

    each server adds its f * b + a * g + c, and exactly one of them (public)
    also adds the opened f * g.
    """
    w = f * b
    w += a * g
    w += c
    if public:
        w += f * g
    return w
