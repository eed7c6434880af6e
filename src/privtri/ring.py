"""Additive secret sharing over the ring Z_2^32.

Scalar values are plain Python ints in [0, 2**32); bulk values are uint32
numpy arrays, whose arithmetic wraps mod 2**32 by itself, so no server
value ever carries a bit above the ring. A secret x is held as shares
(r, x - r) mod 2**32. One width serves every count and its noise: a count
over at most MAX_USERS = 2345 users stays below 2**31, the signed range
of Z_2^32, and perturbation adds integer noise to the count shares in the
same ring. The dealer draws the raw 64-bit PCG64 stream and reads each
word as two little-endian 32-bit elements.

Correlated randomness (share masks and the count's dealer correlation)
comes from a seeded trusted dealer, standing in for an oblivious-transfer
offline phase. One kernel, share, splits the users' pair bits, the
dealer's P_x and T(x), and a scalar count alike. The share products rest
on one kernel, ring_square: the pair vector of V_s @ V_s, with V_s =
V + V.T the symmetric zero-diagonal matrix of a pair vector v (pair_mask
fixes the row-major pair layout).
V_s is staged once, in the kernel's own n x n scratch matrix viewed as
little-endian uint32 entries: v is scattered into both triangles and the
diagonal reset to zero. Its two 16-bit limbs S0 and S1 are then copied
whole from that staging into float64 matrices, and V_s @ V_s mod 2**32 is
S0 @ S0.T plus (S0 @ S1.T + S1 @ S0.T) shifted by 16: two BLAS products
of n x n matrices, written into the same scratch matrix. Each product is
added straight into the uint32 result, a band of about 8K pairs at a time
(gather, convert through int64, shift, add), so beyond the result a
square holds no temporary of pair size. The two limb matrices and the
scratch matrix stay resident between calls of one n: 6 MB after a square
at n = 500, 96 MB after one at n = 2000.
"""

import itertools
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

RING_BITS = 32
MASK = (1 << RING_BITS) - 1

# ring_square splits each element into two 16-bit limbs, so a limb product
# is at most (2**16 - 1)**2 < 2**32, and with inner dimension n every
# partial sum of an entry of one BLAS product of limb matrices is a
# non-negative integer below n * 2**32. float64 holds every integer up to
# 2**53 exactly, so any n below 2**19, and so every n up to MAX_USERS,
# keeps each product exact in whatever order BLAS adds; _square_pairs sums
# the products in integers.
_LIMB_BITS = 16
# pairs _square_pairs gathers and adds at a time: 64 KB of float64 and
# 64 KB of int64, plus one row, small enough to come from the heap
_PAIR_BLOCK = 1 << 13

# the largest n whose count, at most C(n, 3), fits the signed range of Z_2^32
MAX_USERS = next(n for n in itertools.count(3) if comb(n + 1, 3) >= 1 << (RING_BITS - 1))


def decode_signed(element: int) -> int:
    """Read an element of Z_2^32 as a two's-complement signed integer."""
    element &= MASK
    return element - (1 << RING_BITS) if element >> (RING_BITS - 1) else element


class SharePair(NamedTuple):
    """Additive shares of one element of Z_2^32: server 1 holds s1, server 2 s2."""

    s1: int
    s2: int


class DealerRng:
    """Seeded stream of uniform ring elements.

    Same (seed, path) always yields the same stream, so share masks and
    the count's dealer correlation are reproducible run to run; a
    distinct path gives an independent stream. The stream is the raw
    64-bit output of the PCG64 bit generator.
    """

    def __init__(self, seed: int, *path: int):
        seq = np.random.SeedSequence([int(seed), *map(int, path)])
        self._raw = np.random.PCG64(seq).random_raw

    def elements(self, shape) -> np.ndarray:
        """Uniform uint32 array of Z_2^32.

        Draws ceil(size / 2) raw 64-bit words and reads each as two
        little-endian uint32 elements, low half first; an odd size, a 0-d
        draw's too, drops the high half of the last word.
        """
        size = int(np.prod(shape))
        return self._raw((size + 1) // 2).view("<u4")[:size].reshape(shape)


def share(values, rng: DealerRng):
    """Split values into two uniform additive shares: (masks, values - masks).

    The masks are rng's next draw of values' shape. A uint32 array is
    handed over, its buffer overwritten by the second share; a scalar
    gives a SharePair of two Python ints.
    """
    masks = rng.elements(np.shape(values))
    if isinstance(values, np.ndarray):
        values -= masks
        return masks, values
    return SharePair(int(masks), (int(values) - int(masks)) & MASK)


def reconstruct(pair: SharePair) -> int:
    return (pair.s1 + pair.s2) & MASK


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

    def open_array(self, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
        """The opened s1 + s2 in Z_2^32, as uint32."""
        value = np.add(s1, s2, dtype=np.uint32, casting="unsafe")
        self.openings += int(value.size)
        if self.record:
            self.values.extend(value.tolist())
        return value


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


@lru_cache(maxsize=8)
def _row_bands(a: int) -> tuple[tuple[int, int, int, int], ...]:
    """Bands of rows of an a x a pair_mask, about _PAIR_BLOCK pairs each.

    Each band is (r0, r1, p0, p1): rows r0..r1-1 hold pairs p0..p1-1.
    """
    rows = np.arange(a + 1)
    first = pair_index(rows, rows + 1, a)  # first[a] is the pair count
    cuts = np.unique(np.searchsorted(first, np.arange(0, first[-1], _PAIR_BLOCK)))
    cuts = np.append(cuts, a).tolist()
    return tuple((r0, r1, int(first[r0]), int(first[r1])) for r0, r1 in zip(cuts, cuts[1:]))


def _square_pairs(limbs: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """Pair entries of A @ A.T mod 2**32, as uint32.

    limbs holds the two 16-bit limbs S0 (low) and S1 of A as float64
    (a, N) matrices, and acc is a float64 (a, a) scratch matrix; the pairs
    are those of pair_mask(a). Mod 2**32, A @ A.T is S0 @ S0.T plus
    (S0 @ S1.T + S1 @ S0.T) * 2**16, and (S0 @ S1.T).T is S1 @ S0.T, so
    two BLAS products M, each written into acc, suffice: the pair entries
    of S0 @ S0.T (numpy runs it as a symmetric rank-k update, at half the
    work), then those of M = S0 @ S1.T and of M.T, shifted by 16. Every
    entry of M is an exact integer below 2**53 while N is below 2**19, as
    in every ring_square of at most MAX_USERS users (see _LIMB_BITS).
    Each product goes straight into the output, one band of about
    _PAIR_BLOCK pairs at a time: the band's pair entries are gathered,
    converted through int64, shifted and added in uint32, which wraps mod
    2**32, so no temporary of pair size is made. Each product overwrites
    acc whole, so it may hold anything on entry.
    """
    a = acc.shape[0]
    mask = pair_mask(a)
    out = np.empty(a * (a - 1) // 2, dtype=np.uint32)
    bands = _row_bands(a)
    low, high = limbs
    for shift, right in ((0, low), (_LIMB_BITS, high)):
        np.matmul(low, right.T, out=acc)
        for product in (acc, acc.T) if shift else (acc,):
            for r0, r1, p0, p1 in bands:
                term = product[r0:r1][mask[r0:r1]].astype(np.int64).view(np.uint64)
                if not shift:  # S0 @ S0.T, the shift-0 product, comes first
                    np.copyto(out[p0:p1], term, casting="unsafe")
                else:
                    term <<= np.uint64(shift)
                    np.add(out[p0:p1], term, out=out[p0:p1], dtype=np.uint32, casting="unsafe")
    return out


# ring_square's float64 limb matrices and product scratch, kept between
# calls: {n: (limbs, acc)}, one entry at most
_workspace: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _limb_workspace(n: int) -> tuple[np.ndarray, np.ndarray]:
    """ring_square's float64 limbs, (2, n, n), and its (n, n) scratch.

    Both are kept for the next call of the same n; another n drops them
    before allocating. Every call rewrites both whole, so they are
    allocated uninitialised. The cache is not guarded against calls from
    several threads at once.
    """
    if n not in _workspace:
        _workspace.clear()
        _workspace[n] = np.empty((RING_BITS // _LIMB_BITS, n, n)), np.empty((n, n))
    return _workspace[n]


def ring_square(v: np.ndarray, n: int) -> np.ndarray:
    """The pair vector of V_s @ V_s in Z_2^32, V_s = V + V.T, as uint32.

    V is the strictly upper n x n matrix that holds pair vector v, so V_s
    is symmetric with a zero diagonal. The result is a fresh array. Native
    integer matmul does not use BLAS. Here V_s is staged once in the
    workspace's scratch matrix, viewed as n x n little-endian uint32: v is
    scattered through pair_mask and its transpose (wider operands are
    read mod 2**32) and the diagonal, left over from the last product, is
    reset to zero. Limb l of V_s is then 16-bit word l of each entry, and
    each is copied whole into its float64 matrix. _square_pairs sums the
    limb products (V_s is symmetric, so V_s @ V_s = V_s @ V_s.T); they
    are exact for every n up to MAX_USERS, which count does not exceed.
    Raises ValueError if v is not of shape (C(n, 2),): a shorter vector
    would broadcast through the scatter.
    """
    shape = (n * (n - 1) // 2,)
    if v.shape != shape:
        raise ValueError(f"the operand must have shape {shape}, got {v.shape}")
    limbs, acc = _limb_workspace(n)
    mask = pair_mask(n)
    staged = acc.reshape(-1).view("<u4")[: n * n].reshape(n, n)
    staged[mask] = v
    staged.T[mask] = v
    np.fill_diagonal(staged, 0)
    words = staged.view("<u2").reshape(n, n, 2)
    for l, mat in enumerate(limbs):
        np.copyto(mat, words[..., l])
    return _square_pairs(limbs, acc)
