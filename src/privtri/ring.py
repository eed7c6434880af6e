"""Additive secret sharing over the ring Z_2^w, w a multiple of 16 up to 64.

Scalar values are plain Python ints in [0, 2**w); bulk values are numpy
uint64 arrays. A secret x is held as shares (r, x - r) mod 2**w. Arithmetic
on uint64 wraps modulo 2**64, which 2**w divides, so it is exact mod 2**w
as long as every value that leaves a server (an opening, a dealer share,
an output share) is reduced mod 2**w first; bits at or above w would carry
information about the shares. ring_bits gives the width w of a count over
n users: the narrowest one that holds the count bound C(n, 3). The
fixed-point noise fold of perturbation lifts the count shares by its
scale 2**20 into the wider ring Z_2^fold_bits(w), which has to hold the
scaled count plus a noise tail. Shares made by share and by the dealer's
raw stream are 64-bit.

Correlated randomness (share masks, matrix and element-wise Beaver
triples) comes from a seeded trusted dealer, standing in for an
oblivious-transfer offline phase. The share products are two kernels:
ring_matmul, the exact product of the strictly upper-triangular matrices
that hold two pair vectors (pair_mask fixes the row-major pair layout),
and beaver_share, one server's share of an element-wise Beaver product.
"""

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
# product is at most (2**16 - 1)**2 < 2**32. The shift-k term adds the at
# most four limb matmuls with l + m = k < L, so with inner dimension n
# every partial sum of one of its entries is a non-negative integer below
# 4 * n * (2**16 - 1)**2 < n * 2**34, whatever L is. float64 holds every
# integer up to 2**53 exactly, so n < 2**19 keeps the sum exact in
# whatever order BLAS adds.
_LIMB_BITS = 16
_LIMBS = RING_BITS // _LIMB_BITS
MATMUL_MAX_INNER = 1 << 19
_ROW_BLOCK = 64

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

    def elements(self, shape) -> np.ndarray:
        """Uniform uint64 array; consumes one raw draw per element."""
        return self._gen.integers(0, RING_MOD, size=shape, dtype=np.uint64)


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
        """The opened s1 + s2, reduced mod 2**bits."""
        value = (s1 + s2) & np.uint64((1 << bits) - 1)
        self.openings += int(value.size)
        if self.record:
            self.values.extend(int(v) for v in value)
        return value


def check_matmul_inner(n: int) -> None:
    """Raise ValueError unless ring_matmul is exact at inner dimension n."""
    if n >= MATMUL_MAX_INNER:
        raise ValueError(
            f"inner dimension {n} >= {MATMUL_MAX_INNER}: float64 limb sums "
            "would no longer be exact"
        )


def _limbs(a: np.ndarray, limbs: int = _LIMBS) -> list[np.ndarray]:
    """The low 16-bit limbs of a 2-D uint64 array, least significant first."""
    words = np.ascontiguousarray(a, dtype="<u8").view("<u2")
    return [words[:, l::_LIMBS].astype(np.float64) for l in range(limbs)]


def _limb_product(la: list[np.ndarray], lb: list[np.ndarray]) -> np.ndarray:
    """The product of two matrices given as L limbs each, exact mod 2**(16 L).

    For each shift k < L the limb products with l + m = k are summed by
    float64 BLAS, exact below MATMUL_MAX_INNER (see its derivation), and
    the sum is shifted left by 16 * k in uint64. Bits at or above 16 L are
    left as they fall.
    """
    out = np.zeros((la[0].shape[0], lb[0].shape[1]), dtype=np.uint64)
    for k in range(len(la)):
        acc = la[0] @ lb[k]
        for l in range(1, k + 1):
            acc += la[l] @ lb[k - l]
        out += acc.astype(np.uint64) << (_LIMB_BITS * k)
    return out


def pair_mask(n: int) -> np.ndarray:
    """Strictly upper n x n mask: indexing with it lists the pairs i < j.

    They come in row-major order, the order of every pair vector.
    """
    return np.triu(np.ones((n, n), dtype=bool), 1)


def pair_index(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Position of each pair (i, j), i < j, in the pair_mask order.

    Row i starts after the n - 1 - r pairs of every row r < i.
    """
    return i * (2 * n - i - 1) // 2 + j - i - 1


def ring_matmul(u: np.ndarray, v: np.ndarray, n: int, bits: int = RING_BITS) -> np.ndarray:
    """The pair vector of U @ V mod 2**bits, reduced; bits is 16, 32, 48 or 64.

    U and V are the strictly upper n x n matrices that hold pair vectors u
    and v; they exist only inside this call. Native uint64 matmul does not
    use BLAS; here each operand is split into its low bits // 16 limbs held
    as float64 and multiplied by _limb_product, so bits of u and v at or
    above bits are never read. Rows of U go through in blocks of
    _ROW_BLOCK, so only V's limbs are held whole. Rows [r, r + _ROW_BLOCK)
    of U are zero in columns <= r, and rows > r of V are zero in columns
    <= r + 1, so each block multiplies only U[rows, r+1:] by V[r+1:, r+1:].
    Raises ValueError if n >= MATMUL_MAX_INNER or if u or v is not of shape
    (C(n, 2),): a shorter vector would broadcast through the scatter.
    """
    check_matmul_inner(n)
    pairs = (n * (n - 1) // 2,)
    if u.shape != pairs or v.shape != pairs:
        raise ValueError(f"operands must have shape {pairs}, got {u.shape} and {v.shape}")
    mask = pair_mask(n)

    def matrix(w: np.ndarray) -> np.ndarray:
        mat = np.zeros((n, n), dtype=np.uint64)
        mat[mask] = w
        return mat

    limbs = bits // _LIMB_BITS
    a = matrix(u)
    lb = _limbs(a if v is u else matrix(v), limbs)
    out = np.zeros((n, n), dtype=np.uint64)
    for r in range(0, n, _ROW_BLOCK):
        rows = slice(r, r + _ROW_BLOCK)
        la = [limb[rows, r + 1 :] for limb in lb] if v is u else _limbs(a[rows, r + 1 :], limbs)
        out[rows, r + 1 :] = _limb_product(la, [limb[r + 1 :, r + 1 :] for limb in lb])
    return out[mask] & np.uint64((1 << bits) - 1)


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
