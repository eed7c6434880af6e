"""Distributed Laplace perturbation of the shared triangle count.

Laplace(lambda) is infinitely divisible: it equals in distribution the sum
over n users of Gamma(1/n, lambda) - Gamma(1/n, lambda) differences. Each
user draws such a partial noise, too small to protect anything on its own,
secret-shares it, and the servers fold the aggregated noise shares into
their count shares. Only the final opened sum carries full Laplace noise,
scaled by sensitivity/epsilon2 where the sensitivity is the projection
bound theta.

Real-valued noise lives in the integer ring via fixed-point encoding with
scale S = 2**20: values are rounded to multiples of 1/S and interpreted as
two's complement. A count over n users runs in Z_2^w, w = ring.ring_bits(n),
and the noise is folded in the wider ring Z_2^f, f = ring.fold_bits(w) =
min(w + 20, 64). Each server lifts its count share there by multiplying
it by S: shares of t in Z_2^w scaled by 2**20 are shares of t * S in
Z_2^(w + 20), with no opening. ring_bits picks the narrowest w whose fold
ring holds (C(n, 3) + 64 * MAX_NOISE_SCALE) * S below the overflow guard
at 2**(f - 2); 64 * MAX_NOISE_SCALE is a noise tail that Laplace noise of
any admitted scale exceeds with probability below 2**-92. That is a
32-bit count (52-bit fold) up to n = 1861 and a 48-bit count (64-bit
fold) up to MAX_USERS = 29,772.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ring import (
    FIXED_POINT_SCALE,
    MAX_NOISE_SCALE,
    MAX_USERS,
    SharePair,
    decode_signed,
    fold_bits,
)


@dataclass(frozen=True)
class NoiseParams:
    """Perturbation configuration: budget, sensitivity, contributors, scale.

    The Laplace scale is sensitivity / epsilon2. Supported ranges keep
    count * S plus all noise below the overflow guard of the fold ring of
    the ring_bits width: n_users above MAX_USERS has no such width, and is
    refused here, before any count.
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


def decode_fixed(element: int, bits: int) -> float:
    """The fixed-point value of an element of Z_2^bits.

    Decoded magnitudes of 2**(bits - 2) or more mean the fold wrapped or
    left the bound ring_bits sizes the fold ring for, and raise
    OverflowError.
    """
    signed = decode_signed(element, bits)
    if abs(signed) >= 1 << (bits - 2):
        raise OverflowError("fixed-point value outside supported range")
    return signed / FIXED_POINT_SCALE


def perturb(t_shares: SharePair, params: NoiseParams, rng) -> float:
    """Noisy count: servers fold aggregated noise shares into count shares.

    Every one of the n_users users draws a Gamma(1/n, scale) difference,
    rounds it to the 1/S grid and secret-shares it; all draws come in one
    bulk call per quantity. Each server sums its n noise shares, scales its
    count share by S and adds, all in the fold ring Z_2^f,
    f = fold_bits(t_shares.bits); the opened total decodes to count +
    noise, with the noise converging to Laplace(scale) up to 1/S
    quantization. The masks are the same raw 64-bit draws at every width,
    reduced mod 2**f, so the result does not depend on the width.
    """
    n = params.n_users
    s = FIXED_POINT_SCALE
    shape = 1.0 / n
    gam1 = rng.gamma(shape, params.scale, size=n)
    gam2 = rng.gamma(shape, params.scale, size=n)
    enc = np.rint((gam1 - gam2) * s).astype(np.int64).astype(np.uint64)
    masks = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
    # sums mod 2**64 reduce to the sums of the reduced shares mod 2**fold
    fold = fold_bits(t_shares.bits)
    low = (1 << fold) - 1
    noise1 = int(masks.sum(dtype=np.uint64)) & low
    noise2 = int((enc - masks).sum(dtype=np.uint64)) & low

    tp1 = (t_shares.s1 * s + noise1) & low
    tp2 = (t_shares.s2 * s + noise2) & low
    return decode_fixed((tp1 + tp2) & low, fold)
