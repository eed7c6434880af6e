import math

import numpy as np
import pytest
from scipy import stats

from privtri import DealerRng, NoiseParams, SharePair, perturb, share
from privtri.perturbation import FIXED_POINT_SCALE
from privtri.ring import MASK, MAX_NOISE_SCALE, MAX_USERS, NOISE_TAIL, fold_bound


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
    # the opened value must lie in [-NOISE_TAIL * S, (C(n, 3) + NOISE_TAIL)
    # * S], the range MAX_USERS is sized for; with noise far below 1/S the
    # opened value is the count, so counts just inside decode exactly and
    # counts just outside raise, on either side
    params = NoiseParams(epsilon2=1e9, sensitivity=1.0, n_users=5)
    top = math.comb(5, 3) + NOISE_TAIL
    for t in (top, -NOISE_TAIL):
        assert perturb(shares_of(t), params, rng_for(10)) == t
    for t in (top + 1, -NOISE_TAIL - 1, 1 << 30):
        with pytest.raises(OverflowError):
            perturb(shares_of(t), params, rng_for(10))


def test_perturb_overflow_guard_at_32_bits():
    # at n_users = MAX_USERS the guard's top, fold_bound(n), sits below
    # 2**51: 32-bit shares of the largest count it admits decode, one more
    # raises, and a count of 2**31 or more, whose lift wraps into the
    # negative half of Z_2^52, raises too
    params = NoiseParams(epsilon2=1e9, sensitivity=1.0, n_users=MAX_USERS)
    top = fold_bound(MAX_USERS) // FIXED_POINT_SCALE
    assert top < 1 << 31
    assert perturb(shares_of(top), params, rng_for(10)) == top
    for t in (top + 1, 1 << 31, (1 << 32) - NOISE_TAIL - 1):
        with pytest.raises(OverflowError):
            perturb(shares_of(t), params, rng_for(10))


def test_perturb_lifts_32_bit_shares_to_the_64_bit_result():
    # 32-bit count shares lifted by 2**20 into the 52-bit fold ring open to
    # exactly the fixed-point total computed in int64 without any ring, the
    # count times S plus the users' rounded noise draws; the counts include
    # a negative total and C(MAX_USERS, 3)
    n_users = MAX_USERS
    params = NoiseParams(epsilon2=0.5, sensitivity=50.0, n_users=n_users)
    counts = [0, -1000, 1000, math.comb(500, 3), math.comb(n_users, 3)]
    for seed in range(100):
        t = counts[seed % len(counts)]
        got = perturb(shares_of(t, seed), params, rng_for(seed))
        rng = rng_for(seed)
        gam1 = rng.gamma(1.0 / n_users, params.scale, size=n_users)
        gam2 = rng.gamma(1.0 / n_users, params.scale, size=n_users)
        enc = np.rint((gam1 - gam2) * FIXED_POINT_SCALE).astype(np.int64)
        total = np.int64(t) * FIXED_POINT_SCALE + enc.sum(dtype=np.int64)
        assert got == int(total) / FIXED_POINT_SCALE


def test_perturb_lifts_32_bit_shares_of_the_largest_count():
    # 32-bit shares of counts up to C(MAX_USERS, 3), the largest a count
    # can reach, fold noise of the largest scale in the 52-bit ring: each
    # server scales its share by 2**20 there, and the opened sum decodes to
    # count + noise; negative totals decode too
    n_users = MAX_USERS
    params = NoiseParams(epsilon2=1.0, sensitivity=float(MAX_NOISE_SCALE), n_users=n_users)
    counts = [0, -1000, 1000, math.comb(n_users, 3)]
    for seed in range(40):
        t = counts[seed % len(counts)]
        shares = share(t, DealerRng(seed))
        assert max(shares) < 1 << 32
        got = perturb(shares, params, rng_for(seed))
        rng = rng_for(seed)
        gam1 = rng.gamma(1.0 / n_users, params.scale, size=n_users)
        gam2 = rng.gamma(1.0 / n_users, params.scale, size=n_users)
        real = t + float(np.sum(gam1 - gam2))
        assert abs(got - real) <= n_users * 0.5 / FIXED_POINT_SCALE + 1e-6


def test_max_users_is_the_largest_n_with_a_52_bit_fold():
    # the bound (C(n, 3) + 64 * 10**4) * 2**20 below 2**51, the signed
    # range of the 52-bit fold ring, in plain ints; the count itself then
    # stays below 2**31
    def fits(n):
        return (math.comb(n, 3) + 64 * 10**4) * 2**20 < 2**51

    assert fits(MAX_USERS) and not fits(MAX_USERS + 1)
    assert MAX_USERS == 2345
    assert math.comb(MAX_USERS, 3) < 2**31
    NoiseParams(epsilon2=1.0, sensitivity=1.0, n_users=MAX_USERS)
    with pytest.raises(ValueError, match="n_users"):
        NoiseParams(epsilon2=1.0, sensitivity=1.0, n_users=MAX_USERS + 1)


def audit_epsilon(t_low, t_high, params, runs, seed, alpha=0.05):
    """Lower confidence bound on the privacy loss perturb shows between two counts.

    perturb runs `runs` times on each count and a test guesses the higher
    one when the noisy value lies above their midpoint. With one-sided
    Clopper-Pearson upper bounds (confidence 1 - alpha each) on its false
    positive rate and its false negative rate, ln((1 - FNR_hi) / FPR_hi)
    is a lower bound on any epsilon the pair satisfies.
    """

    def upper(errors):
        if errors == runs:
            return 1.0
        return float(stats.beta.ppf(1 - alpha, errors + 1, runs - errors))

    cut = (t_low + t_high) / 2
    rng = rng_for(seed)
    low, high = (np.array([perturb(shares, params, rng) for _ in range(runs)])
                 for shares in (shares_of(t_low), shares_of(t_high)))
    fpr_hi, fnr_hi = upper(int(np.sum(low > cut))), upper(int(np.sum(high <= cut)))
    return math.log((1 - fnr_hi) / fpr_hi)


def test_privacy_audit_of_a_neighbouring_pair_stays_within_epsilon2():
    # one bit of one user's row moves the projected count by at most
    # theta - 1, so counts theta - 1 apart are a neighbouring pair at the
    # bound, and perturb at scale theta / epsilon2 must not tell them apart
    # by more than epsilon2. The control pair, 45 apart at the same scale,
    # is far beyond the bound, and the same audit must flag it, so a pass
    # is not for want of power
    theta, epsilon2 = 10, 1.8
    params = NoiseParams(epsilon2=epsilon2, sensitivity=float(theta), n_users=22)
    assert audit_epsilon(100, 100 + theta - 1, params, runs=20000, seed=83) <= epsilon2
    assert audit_epsilon(120, 165, params, runs=5000, seed=89) > epsilon2
