import math

import numpy as np
import pytest
from scipy import stats

from privtri import NoiseParams, SharePair, perturb
from privtri.perturbation import FIXED_POINT_SCALE
from privtri.ring import MASK, MAX_USERS, ring_bits

LOW32 = (1 << 32) - 1
LOW48 = (1 << 48) - 1


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def shares_of(value: int, seed: int = 0) -> SharePair:
    mask = int(rng_for(seed).integers(0, 1 << 64, dtype=np.uint64))
    return SharePair(mask & MASK, (value - mask) & MASK)


def test_fixed_point_roundtrip_and_quantization():
    # the opened sum decodes to count + noise on the 1/S grid, and each of
    # the n users' draws is rounded by at most half a grid step
    n_users, lam, t = 50, 50.0, 1000
    params = NoiseParams(epsilon2=1.0, sensitivity=lam, n_users=n_users)
    for seed in range(200):
        got = perturb(shares_of(t, seed), params, rng_for(seed))
        assert float(got * FIXED_POINT_SCALE).is_integer()
        rng = rng_for(seed)
        gam1 = rng.gamma(1.0 / n_users, lam, size=n_users)
        gam2 = rng.gamma(1.0 / n_users, lam, size=n_users)
        real = t + float(np.sum(gam1 - gam2))
        # 1e-9 covers float rounding in the reference sum, far below 0.5/S
        assert abs(got - real) <= n_users * 0.5 / FIXED_POINT_SCALE + 1e-9


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(epsilon2=0.0, sensitivity=1.0, n_users=10)
    with pytest.raises(ValueError):
        NoiseParams(epsilon2=1.0, sensitivity=0.0, n_users=10)
    with pytest.raises(ValueError):
        NoiseParams(epsilon2=1.0, sensitivity=1.0, n_users=0)
    with pytest.raises(ValueError):
        NoiseParams(epsilon2=1.0, sensitivity=1.0, n_users=2 * 10**5)
    with pytest.raises(ValueError):
        # scale sensitivity/epsilon2 above the supported range
        NoiseParams(epsilon2=0.001, sensitivity=100.0, n_users=10)
    params = NoiseParams(epsilon2=2.0, sensitivity=10.0, n_users=10)
    assert params.scale == 5.0


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_noise_params_rejects_non_finite(value):
    # at epsilon inf the cargo budget split leaves epsilon2 = inf - inf = nan
    with pytest.raises(ValueError, match="epsilon2"):
        NoiseParams(epsilon2=value, sensitivity=1.0, n_users=10)
    with pytest.raises(ValueError, match="sensitivity"):
        NoiseParams(epsilon2=1.0, sensitivity=value, n_users=10)


def test_perturb_no_noise_limit():
    params = NoiseParams(epsilon2=1e9, sensitivity=1.0, n_users=50)
    got = perturb(shares_of(123), params, rng_for(6))
    assert got == 123.0


def test_perturb_mean_and_variance():
    t = 100
    lam = 7.5
    params = NoiseParams(epsilon2=2.0, sensitivity=15.0, n_users=30)
    assert params.scale == lam
    rng = rng_for(7)
    t_shares = shares_of(t)
    draws = np.array([perturb(t_shares, params, rng) for _ in range(10**5)])
    var_expect = 2 * lam**2
    assert abs(draws.mean() - t) < 3 * np.sqrt(var_expect / draws.size)
    assert abs(draws.var() - var_expect) < 0.05 * var_expect


def test_perturb_aggregate_matches_direct_laplace():
    # one (n_users, lambda) spot check; the acceptance suite runs the grid
    n_users, lam = 100, 5.0
    params = NoiseParams(epsilon2=1.0, sensitivity=lam, n_users=n_users)
    rng = rng_for(8)
    t_shares = shares_of(0)
    agg = np.array([perturb(t_shares, params, rng) for _ in range(4000)])
    direct = rng_for(9).laplace(0, lam, size=4000)
    crit = 1.62762 * np.sqrt(2 / 4000)  # two-sample 1% critical value
    assert stats.ks_2samp(agg, direct).statistic < crit


def test_perturb_overflow_guard():
    params = NoiseParams(epsilon2=1.0, sensitivity=1.0, n_users=5)
    huge = shares_of((1 << 42) + (1 << 41))  # count * 2^20 lands past the guard
    with pytest.raises(OverflowError):
        perturb(huge, params, rng_for(10))


def reduced48(t: SharePair) -> SharePair:
    return SharePair(t.s1 & LOW48, t.s2 & LOW48, 48)


def test_perturb_at_48_bits_matches_64_bits():
    # the same count shares reduced mod 2**48 fold the same noise from the
    # same seed, including negative totals and the largest n=500 count
    params = NoiseParams(epsilon2=0.5, sensitivity=50.0, n_users=500)
    counts = [0, 1000, math.comb(500, 3)]
    for seed in range(200):
        t = shares_of(counts[seed % 3], seed)
        got = perturb(reduced48(t), params, rng_for(seed))
        assert got == perturb(t, params, rng_for(seed))


def reduced32(t: SharePair) -> SharePair:
    return SharePair(t.s1 & LOW32, t.s2 & LOW32, 32)


def test_perturb_lifts_32_bit_shares_to_the_64_bit_result():
    # 32-bit count shares fold in the 52-bit ring: each server scales its
    # share by 2**20 there, which is exact mod 2**52, so the same seed gives
    # the 64-bit result; the counts include negative totals and
    # C(1861, 3), the largest count ring_bits runs in 32 bits
    params = NoiseParams(epsilon2=0.5, sensitivity=50.0, n_users=1861)
    counts = [0, -1000, -math.comb(500, 3), 1000, math.comb(1861, 3)]
    for seed in range(200):
        t = shares_of(counts[seed % len(counts)], seed)
        got = perturb(reduced32(t), params, rng_for(seed))
        assert got == perturb(t, params, rng_for(seed))


def test_perturb_overflow_guard_at_32_bits():
    # 32-bit shares fold in 52 bits, whose guard sits at 2**50: a count just
    # below 2**30 decodes, one past it raises
    params = NoiseParams(epsilon2=1.0, sensitivity=1.0, n_users=5)
    below = reduced32(shares_of((1 << 30) - 1000))
    assert abs(perturb(below, params, rng_for(10)) - ((1 << 30) - 1000)) < 100
    huge = reduced32(shares_of((1 << 30) + (1 << 29)))  # count * 2^20 lands past 2^50
    with pytest.raises(OverflowError):
        perturb(huge, params, rng_for(10))


def test_max_users_is_the_largest_n_with_a_64_bit_fold():
    # the bound (C(n, 3) + 64 * 10**4) * 2**20 below the 2**62 guard, in plain ints
    def fits(n):
        return (math.comb(n, 3) + 64 * 10**4) * 2**20 < 2**62

    assert fits(MAX_USERS) and not fits(MAX_USERS + 1)
    assert MAX_USERS == 29772
    assert ring_bits(MAX_USERS) == 48
    with pytest.raises(ValueError):
        ring_bits(MAX_USERS + 1)
    NoiseParams(epsilon2=1.0, sensitivity=1.0, n_users=MAX_USERS)
    with pytest.raises(ValueError, match="n_users"):
        NoiseParams(epsilon2=1.0, sensitivity=1.0, n_users=MAX_USERS + 1)
