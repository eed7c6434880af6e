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
two's complement, leaving 43 integer bits of headroom.
"""

from dataclasses import dataclass

import numpy as np

from .ring import MASK, SharePair, decode_signed

FIXED_POINT_SCALE = 1 << 20

# decoded magnitudes beyond this mean the fixed-point value wrapped
_OVERFLOW_GUARD = 1 << 62

_MAX_USERS = 10**5
_MAX_SCALE = 10**4


@dataclass(frozen=True)
class NoiseParams:
    """Perturbation configuration: budget, sensitivity, contributors, scale.

    The Laplace scale is sensitivity / epsilon2. Supported ranges keep
    count * S plus all noise far from the ring's sign boundary.
    """

    epsilon2: float
    sensitivity: float
    n_users: int

    def __post_init__(self):
        if self.epsilon2 <= 0:
            raise ValueError(f"epsilon2 must be positive, got {self.epsilon2}")
        if self.sensitivity <= 0:
            raise ValueError(f"sensitivity must be positive, got {self.sensitivity}")
        if not 1 <= self.n_users <= _MAX_USERS:
            raise ValueError(f"n_users out of range: {self.n_users}")
        if self.scale > _MAX_SCALE:
            raise ValueError(f"noise scale {self.scale} exceeds supported range")

    @property
    def scale(self) -> float:
        """Laplace scale lambda = sensitivity / epsilon2."""
        return self.sensitivity / self.epsilon2


def decode_fixed(element: int) -> float:
    signed = decode_signed(element)
    if abs(signed) >= _OVERFLOW_GUARD:
        raise OverflowError("fixed-point value outside supported range")
    return signed / FIXED_POINT_SCALE


def perturb(t_shares: SharePair, params: NoiseParams, rng) -> float:
    """Noisy count: servers fold aggregated noise shares into count shares.

    Every one of the n_users users draws a Gamma(1/n, scale) difference,
    rounds it to the 1/S grid and secret-shares it; all draws come in one
    bulk call per quantity. Each server sums its n noise shares, scales its
    count share by S and adds; the opened total decodes to count + noise,
    with the noise converging to Laplace(scale) up to 1/S quantization.
    """
    n = params.n_users
    s = FIXED_POINT_SCALE
    shape = 1.0 / n
    gam1 = rng.gamma(shape, params.scale, size=n)
    gam2 = rng.gamma(shape, params.scale, size=n)
    enc = np.rint((gam1 - gam2) * s).astype(np.int64).astype(np.uint64)
    masks = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
    noise1 = int(masks.sum(dtype=np.uint64))
    noise2 = int((enc - masks).sum(dtype=np.uint64))

    tp1 = (t_shares.s1 * s + noise1) & MASK
    tp2 = (t_shares.s2 * s + noise2) & MASK
    return decode_fixed((tp1 + tp2) & MASK)
