"""Distributed discrete-Laplace perturbation of the shared triangle count.

The noise is the geometric, or discrete-Laplace, mechanism (Ghosh,
Roughgarden & Sundararajan, STOC 2009): integer noise Z with P(Z = k)
proportional to alpha**|k|, alpha = exp(-1/lambda), lambda =
sensitivity / epsilon2. It is epsilon2-DP for an integer count of that
sensitivity, and its variance 2 alpha / (1 - alpha)**2 is within 0.4% of
the continuous Laplace's 2 lambda**2 for lambda >= 5. Z is infinitely
divisible: it is the sum over n users of NB(1/n, 1 - alpha) - NB(1/n,
1 - alpha) negative-binomial differences (Goryczka & Xiong, IEEE TDSC
2017). Each user draws such a partial noise, too small to protect
anything on its own, and secret-shares it in Z_2^32; each server adds the
sum of its noise shares onto its count share, and only the one opened
sum carries the full noise. The sensitivity is the projection bound
theta. discrete_laplace, the one noise kernel, draws the partials, and
with one part per entry also the noisy degrees and the central noise.

The privacy claim is edge local differential privacy under the one-bit
neighbouring relation (Imola, Murakami & Chaudhuri, USENIX Security 2021):
two graphs are neighbours when one user's adjacency row differs in one
bit. One bit added to user u's row adds or removes at most one neighbour
among those u keeps after projection (u ranks against its own published
noisy degree), so the projected count moves by at most theta - 1 and
theta bounds its sensitivity. A whole-edge relation, which flips both
endpoints' bits at once, would need the scale 2 * theta and is out of
scope.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ring import MAX_USERS, RING_BITS, SharePair, decode_signed

# the noise exceeds NoiseParams.tail in magnitude with probability at most 2**-TAIL_BITS
TAIL_BITS = 92
# the scale above which that tail, about scale * TAIL_BITS * ln 2, passes int64
MAX_SCALE = 2**63 / (TAIL_BITS * math.log(2))


@dataclass(frozen=True)
class NoiseParams:
    """Perturbation configuration: budget, sensitivity, contributors, scale.

    The discrete-Laplace scale is sensitivity / epsilon2. The count over
    n_users users plus all but a 2**-92 chance of the noise must fit the
    signed range of Z_2^32; an (n_users, scale) that does not is refused
    here, before any count.
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
            raise ValueError(
                f"n_users must be in [1, {MAX_USERS}], got {self.n_users}: a count "
                "over more users does not fit the signed range of Z_2^32"
            )
        # the tail is about 64 scales, so a scale of 2**31 or more never
        # fits, and an infinite one is refused before the tail is taken
        half = 1 << (RING_BITS - 1)
        if not self.scale < half or math.comb(self.n_users, 3) + self.tail >= half:
            raise ValueError(
                f"noise scale {self.scale} leaves no room in Z_2^32 for a count "
                f"over {self.n_users} users"
            )

    @property
    def scale(self) -> float:
        """Discrete-Laplace scale lambda = sensitivity / epsilon2."""
        return self.sensitivity / self.epsilon2

    @property
    def tail(self) -> int:
        """The least t with P(|Z| > t) = 2 alpha**(t + 1) / (1 + alpha) <= 2**-92.

        ln alpha is taken as exactly -1 / scale, so a large scale divides
        by nothing small.
        """
        alpha = math.exp(-1 / self.scale)
        rate = TAIL_BITS * math.log(2) + math.log(2 / (1 + alpha))
        return math.ceil(self.scale * rate) - 1


def check_scale(scale: float) -> None:
    """Raise ValueError, naming the scale, unless it is below MAX_SCALE."""
    if not scale < MAX_SCALE:
        raise ValueError(f"noise scale {scale} is too large: its tail does not fit int64")


def discrete_laplace(scale: float, rng, size: tuple[int, ...] = (), parts: int = 1):
    """int64 noise of shape size; a sum of parts entries is discrete Laplace(scale).

    Each entry is NB(1/parts, 1 - alpha) - NB(1/parts, 1 - alpha), all
    from one bulk rng.negative_binomial call, with 1 - alpha computed as
    -expm1(-1/scale), exact where alpha is near 1. numpy's NB is a float
    Gamma-Poisson mixture, so the law is exact only up to rounding (Canonne,
    Kamath & Steinke, NeurIPS 2020, sample it exactly), but the output is
    an integer, with no support gap of the kind Mironov's attack reads.
    Raises ValueError, naming the scale, before any draw unless it is
    positive and below MAX_SCALE.
    """
    check_scale(scale)
    if not scale > 0:
        raise ValueError(f"noise scale {scale} must be positive")
    draws = rng.negative_binomial(1 / parts, -math.expm1(-1 / scale), size=(2, *size))
    return draws[0] - draws[1]


def perturb(t_shares: SharePair, params: NoiseParams, rng) -> float:
    """Noisy count: servers add the users' shared noises to their count shares.

    The n_users partial noises are one discrete_laplace draw of n_users
    parts, and each user masks its own with a uint32 draw of one bulk
    call: server 1 holds the masks and server 2 the partials minus the
    masks. Each server adds the sum of its noise shares straight onto its
    32-bit count share, all in uint32, which wraps mod 2**32, and the one
    opening decodes to count + noise, an integer returned as a float.
    Raises OverflowError unless the opened value lies in [-tail,
    C(n_users, 3) + tail], the range NoiseParams admits.
    """
    n = params.n_users
    partials = discrete_laplace(params.scale, rng, size=(n,), parts=n)
    masks = rng.integers(0, 1 << RING_BITS, size=n, dtype=np.uint32)
    noise1 = int(masks.sum(dtype=np.uint32))
    noise2 = int((partials.astype(np.uint32) - masks).sum(dtype=np.uint32))

    total = decode_signed(t_shares.s1 + noise1 + t_shares.s2 + noise2)
    tail = params.tail
    if not -tail <= total <= math.comb(n, 3) + tail:
        raise OverflowError("noisy count outside the range NoiseParams admits")
    return float(total)
