"""Distributed Laplace perturbation of the shared triangle count.

Laplace(lambda) is infinitely divisible: it equals in distribution the sum
over n users of Gamma(1/n, lambda) - Gamma(1/n, lambda) differences. Each
user draws such a partial noise, too small to protect anything on its own,
secret-shares it, and the servers fold the aggregated noise shares into
their count shares. Only the final opened sum carries full Laplace noise,
scaled by sensitivity/epsilon2 where the sensitivity is the projection
bound theta.

The privacy claim is edge local differential privacy under the one-bit
neighbouring relation (Imola, Murakami & Chaudhuri, USENIX Security 2021):
two graphs are neighbours when one user's adjacency row differs in one
bit. One bit added to user u's row adds or removes at most one neighbour
among those u keeps after projection (u ranks against its own published
noisy degree), so the projected count moves by at most theta - 1 and
theta bounds its sensitivity. A whole-edge relation, which flips both
endpoints' bits at once, would need the scale 2 * theta and is out of
scope.

Real-valued noise lives in the integer ring via fixed-point encoding with
scale S = 2**20: values are rounded to multiples of 1/S and interpreted as
two's complement. The count runs in Z_2^32 and the noise is folded in
Z_2^52, ring.FOLD_BITS. Each server lifts its count share there by
multiplying it by S: shares of t in Z_2^32 scaled by 2**20 are shares of
t * S in Z_2^52, with no opening. For n users the opened value lies in
[-NOISE_TAIL * S, ring.fold_bound(n)], NOISE_TAIL = 64 * MAX_NOISE_SCALE a
noise tail that Laplace noise of any admitted scale exceeds with
probability below 2**-92, and ring.MAX_USERS = 2345 is the largest n for
which that range fits the signed range of Z_2^52. perturb raises
OverflowError for an opened value outside it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ring import (
    FIXED_POINT_SCALE,
    FOLD_BITS,
    MAX_NOISE_SCALE,
    MAX_USERS,
    NOISE_TAIL,
    SharePair,
    decode_signed,
    fold_bound,
)


@dataclass(frozen=True)
class NoiseParams:
    """Perturbation configuration: budget, sensitivity, contributors, scale.

    The Laplace scale is sensitivity / epsilon2. Supported ranges keep
    count * S plus all noise inside the signed range of the fold ring:
    n_users above MAX_USERS does not fit, and is refused here, before any
    count.
    """

    epsilon2: float
    sensitivity: float
    n_users: int

    def __post_init__(self):
        if not 0 < self.epsilon2 < math.inf:
            raise ValueError(f"epsilon2 must be positive and finite, got {self.epsilon2}")
        if not 0 < self.sensitivity < math.inf:
            raise ValueError(
                f"sensitivity must be positive and finite, got {self.sensitivity}"
            )
        if not 1 <= self.n_users <= MAX_USERS:
            raise ValueError(f"n_users out of range: {self.n_users}")
        if self.scale > MAX_NOISE_SCALE:
            raise ValueError(f"noise scale {self.scale} exceeds supported range")

    @property
    def scale(self) -> float:
        """Laplace scale lambda = sensitivity / epsilon2."""
        return self.sensitivity / self.epsilon2


def perturb(t_shares: SharePair, params: NoiseParams, rng) -> float:
    """Noisy count: servers fold aggregated noise shares into count shares.

    Every one of the n_users users draws a Gamma(1/n, scale) difference,
    rounds it to the 1/S grid and secret-shares it; all draws come in one
    bulk call per quantity. Each server sums its n noise shares, lifts its
    32-bit count share by S and adds, all in Z_2^52; the opened total
    decodes to count + noise, with the noise converging to Laplace(scale)
    up to 1/S quantization. The masks are raw 64-bit draws reduced mod
    2**52. Raises OverflowError unless the opened value lies in
    [-NOISE_TAIL * S, fold_bound(n_users)], the range MAX_USERS is sized
    for.
    """
    n = params.n_users
    s = FIXED_POINT_SCALE
    shape = 1.0 / n
    gam1 = rng.gamma(shape, params.scale, size=n)
    gam2 = rng.gamma(shape, params.scale, size=n)
    enc = np.rint((gam1 - gam2) * s).astype(np.int64).astype(np.uint64)
    masks = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
    # sums mod 2**64 reduce to the sums of the reduced shares mod 2**52
    low = (1 << FOLD_BITS) - 1
    noise1 = int(masks.sum(dtype=np.uint64)) & low
    noise2 = int((enc - masks).sum(dtype=np.uint64)) & low

    tp1 = (t_shares.s1 * s + noise1) & low
    tp2 = (t_shares.s2 * s + noise2) & low
    total = decode_signed(tp1 + tp2, FOLD_BITS)
    if not -NOISE_TAIL * s <= total <= fold_bound(n):
        raise OverflowError("fixed-point value outside supported range")
    return total / s
