"""Additive secret sharing over the 64-bit ring Z_2^64.

Scalar values are plain Python ints in [0, 2**64); bulk values are numpy
uint64 arrays. All arithmetic wraps modulo 2**64, matching two-server
additive sharing where a secret x is held as shares (r, x - r).

Correlated randomness (share masks, multiplication groups, matrix and
element-wise Beaver triples) comes from a seeded trusted dealer, standing
in for an oblivious-transfer offline phase. A multiplication group is one
dealer row (x, y, z and seven share masks) from which one three-way product
derives shares of (x, y, z, xyz, xy, xz, yz); the scalar product is one row
of the batched kernel. The secure count instead multiplies pair vectors
of shares with ring_matmul, the exact product of the strictly
upper-triangular matrices that hold them (pair_mask fixes the row-major
pair layout), and combines element-wise Beaver triples with beaver_share.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

RING_BITS = 64
RING_MOD = 1 << RING_BITS
MASK = RING_MOD - 1
_SIGN = 1 << (RING_BITS - 1)

# ring_matmul splits each element into four 16-bit limbs, so a limb
# product is at most (2**16 - 1)**2 < 2**32. The shift-k term adds the at
# most four limb matmuls with l + m = k, so with inner dimension n every
# partial sum of one of its entries is a non-negative integer below
# 4 * n * (2**16 - 1)**2 < n * 2**34. float64 holds every integer up to
# 2**53 exactly, so n < 2**19 keeps the sum exact in whatever order BLAS
# adds.
_LIMB_BITS = 16
_LIMBS = RING_BITS // _LIMB_BITS
MATMUL_MAX_INNER = 1 << 19
_ROW_BLOCK = 64

RingElement = int


class MGReuseError(RuntimeError):
    """A multiplication group was offered to a second multiplication."""


def decode_signed(element: RingElement) -> int:
    """Read a ring element as a two's-complement signed integer."""
    element &= MASK
    return element - RING_MOD if element >= _SIGN else element


class SharePair(NamedTuple):
    """Additive shares of one ring element: server 1 holds s1, server 2 s2."""

    s1: RingElement
    s2: RingElement


class DealerRng:
    """Seeded stream of uniform ring elements.

    Same (seed, path) always yields the same stream, so share masks and
    multiplication groups are reproducible run to run; a distinct path gives
    an independent stream.
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
    return (pair.s1 + pair.s2) & MASK


@dataclass
class MultiplicationGroup:
    """One (1, 10) dealer row, in the layout mul3_batch consumes per triple.

    Single use: reusing a group would open two values masked by the same
    x/y/z, leaking their difference.
    """

    draws: np.ndarray
    consumed: bool = False


def deal_mg(rng: DealerRng) -> MultiplicationGroup:
    """Draw one multiplication group: one row of the batched dealer draw."""
    return MultiplicationGroup(rng.elements((1, 10)))


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

    def open_array(self, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
        value = s1 + s2
        self.openings += int(value.size)
        if self.record:
            self.values.extend(int(v) for v in value)
        return value


def mul3(
    a: SharePair,
    b: SharePair,
    c: SharePair,
    mg: MultiplicationGroup,
    channel: OpeningChannel | None = None,
) -> SharePair:
    """Product of three shared values, as one row of mul3_batch."""
    if mg.consumed:
        raise MGReuseError("multiplication group already used")
    mg.consumed = True

    def row(v: int) -> np.ndarray:
        return np.array([v], dtype=np.uint64)

    u1, u2 = mul3_batch(
        row(a.s1), row(a.s2), row(b.s1), row(b.s2), row(c.s1), row(c.s2),
        mg.draws,
        channel,
    )
    return SharePair(int(u1[0]), int(u2[0]))


def mul3_batch(
    a1: np.ndarray,
    a2: np.ndarray,
    b1: np.ndarray,
    b2: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
    draws: np.ndarray,
    channel: OpeningChannel | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-round products a*b*c of m independent shared triples.

    ``draws`` is the (m, 10) dealer matrix, one multiplication group per
    row: columns 0..2 are x, y, z, columns 3..9 server 1's shares of
    x, y, z, w=xyz, o=xy, p=xz, q=yz; server 2's shares are the rest.

    Round 1: each server blinds its shares with its x, y, z shares and the
    servers open e = a - x, f = b - y, g = c - z. Round 2: each server
    evaluates its share of

        d = w + o*g + p*f + q*e + x*f*g + y*e*g + z*e*f + e*f*g

    with the public e*f*g term assigned to server 2 alone. Expanding with
    e = a - x, f = b - y, g = c - z gives d = a*b*c exactly, in the ring.
    Returns per-server output share arrays (u1, u2); uint64 arithmetic
    wraps, which is the ring reduction.
    """
    x = draws[:, 0]
    y = draws[:, 1]
    z = draws[:, 2]
    w = x * y * z
    o = x * y
    p = x * z
    q = y * z
    x1 = draws[:, 3]
    y1 = draws[:, 4]
    z1 = draws[:, 5]
    w1 = draws[:, 6]
    o1 = draws[:, 7]
    p1 = draws[:, 8]
    q1 = draws[:, 9]
    x2 = x - x1
    y2 = y - y1
    z2 = z - z1
    w2 = w - w1
    o2 = o - o1
    p2 = p - p1
    q2 = q - q1

    e1 = a1 - x1
    e2 = a2 - x2
    f1 = b1 - y1
    f2 = b2 - y2
    g1 = c1 - z1
    g2 = c2 - z2
    if channel is None:
        channel = OpeningChannel()
    e = channel.open_array(e1, e2)
    f = channel.open_array(f1, f2)
    g = channel.open_array(g1, g2)

    fg = f * g
    eg = e * g
    ef = e * f
    u1 = w1 + o1 * g + p1 * f + q1 * e + x1 * fg + y1 * eg + z1 * ef
    u2 = w2 + o2 * g + p2 * f + q2 * e + x2 * fg + y2 * eg + z2 * ef + e * fg
    return u1, u2


def check_matmul_inner(n: int) -> None:
    """Raise ValueError unless ring_matmul is exact at inner dimension n."""
    if n >= MATMUL_MAX_INNER:
        raise ValueError(
            f"inner dimension {n} >= {MATMUL_MAX_INNER}: float64 limb sums "
            "would no longer be exact"
        )


def _limbs(a: np.ndarray) -> list[np.ndarray]:
    """The four 16-bit limbs of a 2-D uint64 array, least significant first."""
    words = np.ascontiguousarray(a, dtype="<u8").view("<u2")
    return [words[:, l::_LIMBS].astype(np.float64) for l in range(_LIMBS)]


def _limb_product(la: list[np.ndarray], lb: list[np.ndarray]) -> np.ndarray:
    """The uint64 product of two matrices given as limbs, exact mod 2**64.

    For each shift k the limb products with l + m = k are summed by float64
    BLAS, exact below MATMUL_MAX_INNER (see its derivation), and the sum is
    shifted left by 16 * k in uint64, which drops exactly the bits above
    2**64.
    """
    out = np.zeros((la[0].shape[0], lb[0].shape[1]), dtype=np.uint64)
    for k in range(_LIMBS):
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


def ring_matmul(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The pair vector of U @ V, exact modulo 2**64.

    U and V are the strictly upper n x n matrices that hold pair vectors u
    and v; they exist only inside this call. Native uint64 matmul does not
    use BLAS; here each operand is split into four 16-bit limbs held as
    float64 and multiplied by _limb_product. Rows of U go through in blocks
    of _ROW_BLOCK, so only V's limbs are held whole. Rows [r, r + _ROW_BLOCK)
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

    a = matrix(u)
    lb = _limbs(a if v is u else matrix(v))
    out = np.zeros((n, n), dtype=np.uint64)
    for r in range(0, n, _ROW_BLOCK):
        rows = slice(r, r + _ROW_BLOCK)
        la = [limb[rows, r + 1 :] for limb in lb] if v is u else _limbs(a[rows, r + 1 :])
        out[rows, r + 1 :] = _limb_product(la, [limb[r + 1 :, r + 1 :] for limb in lb])
    return out[mask]


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
