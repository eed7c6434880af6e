import numpy as np
import pytest
from scipy import stats

from privtri import NoiseParams, SharePair, perturb
from privtri.perturbation import FIXED_POINT_SCALE
from privtri.ring import share_with_mask


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def shares_of(value: int, seed: int = 0) -> SharePair:
    mask = int(rng_for(seed).integers(0, 1 << 64, dtype=np.uint64))
    return share_with_mask(value, mask)


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
