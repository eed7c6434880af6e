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
Beaver product. ring_matmul sums pairs that are each added or
subtracted, and splits each operand into L = w / 16 16-bit limbs held as
float64, so each pair costs L (L + 1) / 2 BLAS limb products (3 at 32
bits, 6 at 48). Each limb product runs over 2-D tiles of the upper
triangle and skips the zero triangles: with T = ceil(n / 128) tiles a
side it is about (T + 1)(T + 2) / (6 T**2) n**3 multiply-adds, 0.31 n**3
at n = 500 and 0.20 n**3 at n = 2000, towards n**3 / 6 as n grows. At
n <= 128 it is one tile, n**3. The limb matrices and the n x n product
stay resident between calls of one n and w, in one workspace that holds
L matrices per distinct operand of a call; the count's calls have at most
two, so 10 MB stay resident after a count at n = 500 and 224 MB after
one at n = 2000, in the 48-bit ring.
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
# over P pairs, each added or subtracted, is one product with inner
# dimension P * n, whose partial sums stay below P * n * 2**34 in
# magnitude. float64 holds every integer up to 2**53 exactly, so
# P * n < 2**19 keeps the sum exact in whatever order BLAS adds.
_LIMB_BITS = 16
MATMUL_MAX_INNER = 1 << 19
_TILE = 128
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
        64-bit ones reduced. The draws are narrowed into the result
        _DEALER_CHUNK at a time: the stream is the same in chunks, and no
        64-bit copy of a narrower result is ever held whole.
        """
        out = np.empty(shape, dtype=ring_dtype(bits))
        flat = out.reshape(-1)
        for start in range(0, flat.size, _DEALER_CHUNK):
            part = flat[start : start + _DEALER_CHUNK]
            draw = self._gen.integers(0, RING_MOD, size=part.size, dtype=np.uint64)
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
    terms: list[tuple[int, np.ndarray, np.ndarray]], rows: slice, inner: slice, cols: slice
) -> np.ndarray:
    """The sum of sign * U[rows, inner] @ V[inner, cols] over terms, exact mod 2**(16 L).

    Each term is a sign, 1 or -1, and the L float64 limb matrices of U and
    of V, least significant first. For each shift k < L the limb products
    with l + m = k of every term are added to or subtracted from one
    float64 tile in place, exact below MATMUL_MAX_INNER / P for P terms
    (see its derivation); the signed sum is converted through int64 to
    uint64 once and shifted left by 16 * k. Bits at or above 16 L are left
    as they fall.
    """
    _, lu0, lv0 = terms[0]
    tile = (lu0[0][rows, inner].shape[0], lv0[0][inner, cols].shape[1])
    acc, product = np.empty(tile), np.empty(tile)
    out = np.zeros(tile, dtype=np.uint64)
    for k in range(len(lu0)):
        acc.fill(0)
        for sign, lu, lv in terms:
            for l in range(k + 1):
                np.matmul(lu[l][rows, inner], lv[k - l][inner, cols], out=product)
                if sign > 0:
                    acc += product
                else:
                    acc -= product
        shifted = acc.astype(np.int64).view(np.uint64)
        shifted <<= np.uint64(_LIMB_BITS * k)
        out += shifted
    return out


# ring_matmul's float64 limb matrices and uint64 product, kept between
# calls: {(n, bits): (limbs, out)}, one entry at most
_workspace: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _limb_workspace(n: int, bits: int, operands: int) -> tuple[np.ndarray, np.ndarray]:
    """ring_matmul's float64 limbs, (P, bits // 16, n, n) with P >= operands,
    and its (n, n) uint64 product.

    Both are allocated zeroed and kept for the next call of the same n and
    bits. Only pair_mask entries of the limbs are ever written, so their
    lower triangles stay zero, and only pair_mask entries of the product
    are read. A call with more operands replaces the limbs and keeps the
    product; another n or bits drops both before allocating. The cache is
    not guarded against calls from several threads at once.
    """
    key = (n, bits)
    entry = _workspace.get(key)
    if entry is None or entry[0].shape[0] < operands:
        out = np.zeros((n, n), dtype=np.uint64) if entry is None else entry[1]
        entry = None  # the old limbs are freed before their replacement is allocated
        _workspace.clear()
        _workspace[key] = np.zeros((operands, bits // _LIMB_BITS, n, n)), out
    return _workspace[key]


def ring_matmul(pairs: list[tuple], n: int, bits: int = RING_BITS) -> np.ndarray:
    """The pair vector of sum(sign * U @ V for (u, v[, sign]) in pairs) in Z_2^bits.

    Each pair is (u, v) or (u, v, sign), sign 1 (the default) or -1. bits
    is 16, 32, 48 or 64, and the result is a fresh array, reduced and of
    dtype ring_dtype(bits). U and V are the strictly upper n x n matrices
    that hold pair vectors u and v. Native uint64 matmul does not use BLAS;
    here each distinct operand (by identity) is scattered once, through
    pair_mask, into its low bits // 16 limbs held as float64 n x n
    matrices, so bits of an operand at or above bits are never read. The
    limb matrices and the uint64 n x n product live in one workspace that
    is kept for the next call of the same n and bits (_limb_workspace).
    The products run over 2-D tiles of _TILE rows by _TILE columns of the
    upper triangle. U[i, j] V[j, k] is nonzero only for i < j < k, so the
    tile at rows [i0, i0 + _TILE) and columns [k0, k0 + _TILE), k0 >= i0,
    needs only the inner range [i0 + 1, k0 + _TILE), and tiles below the
    diagonal are skipped. Each tile sums the signed products of every pair
    in _block_product. Raises ValueError if len(pairs) * n >=
    MATMUL_MAX_INNER, if a sign is neither 1 nor -1, or if an operand is
    not of shape (C(n, 2),): a shorter vector would broadcast through the
    scatter.
    """
    check_matmul_inner(len(pairs) * n)
    shape = (n * (n - 1) // 2,)
    signed = []
    slots: dict[int, int] = {}  # id of each distinct operand -> its workspace slot
    distinct = []
    for pair in pairs:
        u, v, sign = pair if len(pair) == 3 else (*pair, 1)
        if sign not in (1, -1):
            raise ValueError(f"a sign must be 1 or -1, got {sign!r}")
        if u.shape != shape or v.shape != shape:
            raise ValueError(f"operands must have shape {shape}, got {u.shape} and {v.shape}")
        signed.append((sign, u, v))
        for w in (u, v):
            if id(w) not in slots:
                slots[id(w)] = len(distinct)
                distinct.append(w)
    limbs, out = _limb_workspace(n, bits, len(distinct))
    mask = pair_mask(n)
    dtype = ring_dtype(bits)
    words = np.dtype(dtype).itemsize // 2
    for w, mats in zip(distinct, limbs):
        w16 = np.ascontiguousarray(w, dtype=np.dtype(dtype).newbyteorder("<"))
        w16 = w16.view("<u2").reshape(shape[0], words)
        for l, mat in enumerate(mats):
            mat[mask] = w16[:, l]
    terms = [(sign, limbs[slots[id(u)]], limbs[slots[id(v)]]) for sign, u, v in signed]
    for i0 in range(0, n, _TILE):
        rows = slice(i0, i0 + _TILE)
        for k0 in range(i0, n, _TILE):
            cols = slice(k0, k0 + _TILE)
            out[rows, cols] = _block_product(terms, rows, slice(i0 + 1, k0 + _TILE), cols)
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
