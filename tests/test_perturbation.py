import math
import re

import numpy as np
import pytest
from scipy import stats

from privtri import DealerRng, NoiseParams, SharePair, perturb, share
from privtri.perturbation import MAX_SCALE, discrete_laplace
from privtri.ring import MAX_USERS

from conftest import audit_epsilon, discrete_variance, noise_sums, rng_for


def shares_of(value: int, seed: int = 0) -> SharePair:
    return share(value, DealerRng(seed))


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(epsilon2=0.0, sensitivity=1.0, n_users=10)
    with pytest.raises(ValueError):
        NoiseParams(epsilon2=1.0, sensitivity=0.0, n_users=10)
    with pytest.raises(ValueError):
        NoiseParams(epsilon2=1.0, sensitivity=1.0, n_users=0)
    with pytest.raises(ValueError):
        NoiseParams(epsilon2=1.0, sensitivity=1.0, n_users=2 * 10**5)
    with pytest.raises(ValueError, match="noise scale"):
        # scale 10**8, whose 2**-92 tail alone exceeds 2**31
        NoiseParams(epsilon2=1e-6, sensitivity=100.0, n_users=10)
    params = NoiseParams(epsilon2=2.0, sensitivity=10.0, n_users=10)
    assert params.scale == 5.0


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_noise_params_rejects_non_finite(value):
    # at epsilon inf the cargo budget split leaves epsilon2 = inf - inf = nan
    with pytest.raises(ValueError, match="epsilon2"):
        NoiseParams(epsilon2=value, sensitivity=1.0, n_users=10)
    with pytest.raises(ValueError, match="sensitivity"):
        NoiseParams(epsilon2=1.0, sensitivity=value, n_users=10)


def test_discrete_laplace_names_a_scale_whose_tail_passes_int64():
    # MAX_SCALE is where the 2**-92 tail, about scale * 92 * ln 2, reaches
    # 2**63; a scale below it draws, one at it or beyond is refused before
    # any draw, by a message that names the scale
    assert 1.44e17 < MAX_SCALE < 1.45e17
    for parts in (1, 2000):
        draws = discrete_laplace(MAX_SCALE * 0.999, rng_for(1), size=(3,), parts=parts)
        assert draws.dtype == np.int64
        for scale in (MAX_SCALE, 1e19, math.inf, math.nan):
            rng = rng_for(1)
            with pytest.raises(ValueError, match=re.escape(f"noise scale {scale} is too large")):
                discrete_laplace(scale, rng, parts=parts)
            assert rng.bit_generator.state == rng_for(1).bit_generator.state


@pytest.mark.parametrize("parts", [1, 2000])
@pytest.mark.parametrize("scale", [0.0, -0.0, -1.0, -math.inf])
def test_discrete_laplace_names_a_non_positive_scale(scale, parts):
    # refused before any draw, not by a division by zero or by numpy's
    # check of the negative binomial's probability
    rng = rng_for(1)
    with pytest.raises(ValueError, match=re.escape(f"noise scale {scale} must be positive")):
        discrete_laplace(scale, rng, parts=parts)
    assert rng.bit_generator.state == rng_for(1).bit_generator.state


def test_perturb_masks_are_the_dealer_draw_of_the_same_stream():
    # perturb's users mask with rng.integers(0, 2**32, dtype=uint32) of a
    # numpy Generator, which on PCG64 reads the raw words DealerRng.elements
    # reads, low half first, so both stream types give one uniform draw.
    # The generator then stands at the same raw word; at an odd size it
    # also buffers the unread high half, which DealerRng drops
    for size in (1, 2, 5, 2000):
        gen, dealer = rng_for([9, 3]), DealerRng(9, 3)
        masks = gen.integers(0, 1 << 32, size=size, dtype=np.uint32)
        assert np.array_equal(masks, dealer.elements(size))
        assert gen.bit_generator.state["has_uint32"] == size % 2
        assert np.array_equal(gen.bit_generator.random_raw(1).view("<u4"), dealer.elements(2))


def test_perturb_no_noise_limit():
    params = NoiseParams(epsilon2=1e9, sensitivity=1.0, n_users=50)
    got = perturb(shares_of(123), params, rng_for(6))
    assert got == 123.0


def test_perturb_mean_and_variance():
    t = 100
    lam = 7.5
    params = NoiseParams(epsilon2=2.0, sensitivity=15.0, n_users=30)
    assert params.scale == lam
    draws = t + noise_sums(params, rng_for(7), 10**5)
    var_expect = discrete_variance(lam)
    assert abs(draws.mean() - t) < 3 * np.sqrt(var_expect / draws.size)
    assert abs(draws.var() - var_expect) < 0.05 * var_expect


def test_perturb_aggregate_matches_direct_laplace():
    # one (n_users, lambda) spot check through the share-and-open path; the
    # acceptance suite runs the grid
    n_users, lam = 100, 5.0
    params = NoiseParams(epsilon2=1.0, sensitivity=lam, n_users=n_users)
    rng = rng_for(8)
    t_shares = shares_of(0)
    agg = np.array([perturb(t_shares, params, rng) for _ in range(4000)])
    assert np.all(agg == np.rint(agg))
    direct = stats.dlaplace(1 / lam).rvs(4000, random_state=rng_for(9))
    crit = 1.62762 * np.sqrt(2 / 4000)  # two-sample 1% critical value
    assert stats.ks_2samp(agg, direct).statistic < crit


def noise_of(params, seed):
    """The noise perturb adds with rng_for(seed): the sum of its partial noises."""
    return int(noise_sums(params, rng_for(seed), 1)[0])


def test_perturb_opens_the_count_plus_the_partial_noises():
    # the servers' noise shares open, with the count shares, to exactly the
    # count plus the users' partial noises, drawn from the same seed; the
    # counts include negative totals and C(MAX_USERS, 3)
    n_users = MAX_USERS
    params = NoiseParams(epsilon2=0.5, sensitivity=50.0, n_users=n_users)
    counts = [0, -1000, 1000, math.comb(500, 3), math.comb(n_users, 3)]
    for seed in range(100):
        t = counts[seed % len(counts)]
        got = perturb(shares_of(t, seed), params, rng_for(seed))
        assert got == t + noise_of(params, seed)


def test_perturb_decodes_the_largest_counts_at_the_largest_scales():
    # dealt 32-bit shares of counts up to C(n, 3) open to count + noise at
    # large scales: 1900 / 0.09 = 21,111 at n = 2000, and 16,150 at
    # MAX_USERS, just below the largest it admits
    for n_users, epsilon2, theta in ((2000, 0.09, 1900.0), (MAX_USERS, 0.1, 1615.0)):
        params = NoiseParams(epsilon2=epsilon2, sensitivity=theta, n_users=n_users)
        counts = [0, -1000, 1000, math.comb(n_users, 3)]
        for seed in range(40):
            t = counts[seed % len(counts)]
            shares = share(t, DealerRng(seed))
            assert max(shares) < 1 << 32
            assert perturb(shares, params, rng_for(seed)) == t + noise_of(params, seed)


def test_perturb_overflow_guard():
    # the opened value must lie in [-tail, C(n, 3) + tail]: with the noise
    # of a seed known, shares of count - noise open to exactly the count, so
    # counts at either end decode and counts one outside raise
    params = NoiseParams(epsilon2=1.0, sensitivity=100.0, n_users=5)
    top = math.comb(5, 3) + params.tail
    for seed in range(10):
        noise = noise_of(params, seed)
        for t in (top, -params.tail):
            assert perturb(shares_of(t - noise), params, rng_for(seed)) == t
        for t in (top + 1, -params.tail - 1, 1 << 30):
            with pytest.raises(OverflowError):
                perturb(shares_of(t - noise), params, rng_for(seed))


def test_perturb_overflow_guard_at_32_bits():
    # at n_users = MAX_USERS and a scale near the largest it admits, the
    # guard's top C(n, 3) + tail sits just below 2**31: shares that open to
    # it decode, one more raises, and an opened 2**31 or more, which wraps
    # into the negative half of Z_2^32, raises too
    params = NoiseParams(epsilon2=0.1, sensitivity=1615.0, n_users=MAX_USERS)
    top = math.comb(MAX_USERS, 3) + params.tail
    assert (1 << 31) - 1000 < top < 1 << 31
    noise = noise_of(params, 10)
    assert perturb(shares_of(top - noise), params, rng_for(10)) == top
    for t in (top + 1, 1 << 31, (1 << 32) - params.tail - 1):
        with pytest.raises(OverflowError):
            perturb(shares_of(t - noise), params, rng_for(10))


def test_noise_params_bound_the_scale_by_the_room_the_count_leaves():
    # the tail is the least t with P(|Z| > t) = 2 alpha**(t + 1) / (1 + alpha)
    # at most 2**-92; C(n, 3) + tail below 2**31 admits theta = 1900 at
    # eps2 = 0.18 and 0.09 on 2000 users, and at MAX_USERS, where C(n, 3)
    # leaves about 10**6, a scale up to about 16,150
    def log_tail(lam, t):
        alpha = math.exp(-1 / lam)
        return -(t + 1) / lam + math.log(2 / (1 + alpha))

    for lam in (0.5, 5.0, 1055.5, 21111.1):
        tail = NoiseParams(epsilon2=1.0, sensitivity=lam, n_users=10).tail
        assert log_tail(lam, tail) <= -92 * math.log(2) < log_tail(lam, tail - 1)
    for epsilon2 in (0.18, 0.09):
        NoiseParams(epsilon2=epsilon2, sensitivity=1900.0, n_users=2000)
    NoiseParams(epsilon2=1.0, sensitivity=16_100.0, n_users=MAX_USERS)
    with pytest.raises(ValueError, match="noise scale"):
        NoiseParams(epsilon2=1.0, sensitivity=16_200.0, n_users=MAX_USERS)


def test_max_users_is_the_largest_n_whose_count_fits_31_bits():
    # the count, at most C(n, 3), below 2**31, the signed range of Z_2^32
    def fits(n):
        return math.comb(n, 3) < 2**31

    assert fits(MAX_USERS) and not fits(MAX_USERS + 1)
    assert MAX_USERS == 2345
    NoiseParams(epsilon2=1.0, sensitivity=1.0, n_users=MAX_USERS)
    with pytest.raises(ValueError, match="n_users"):
        NoiseParams(epsilon2=1.0, sensitivity=1.0, n_users=MAX_USERS + 1)


def perturb_audit(t_low, t_high, params, runs, seed):
    """audit_epsilon of perturb run `runs` times on each of two counts."""
    rng = rng_for(seed)
    low, high = ([perturb(shares, params, rng) for _ in range(runs)]
                 for shares in (shares_of(t_low), shares_of(t_high)))
    return audit_epsilon(low, high, (t_low + t_high) / 2)


def test_privacy_audit_of_a_neighbouring_pair_stays_within_epsilon2():
    # one bit of one user's row moves the projected count by at most
    # theta - 1, so counts theta - 1 apart are a neighbouring pair at the
    # bound, and perturb at scale theta / epsilon2 must not tell them apart
    # by more than epsilon2. The control pair, 45 apart at the same scale,
    # is far beyond the bound, and the same audit must flag it, so a pass
    # is not for want of power
    theta, epsilon2 = 10, 1.8
    params = NoiseParams(epsilon2=epsilon2, sensitivity=float(theta), n_users=22)
    assert perturb_audit(100, 100 + theta - 1, params, runs=20000, seed=83) <= epsilon2
    assert perturb_audit(120, 165, params, runs=5000, seed=89) > epsilon2
