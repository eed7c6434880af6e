import math
import re

import numpy as np
import pytest

from privtri import central_lap, exact_triangle_count
from privtri.perturbation import discrete_laplace

from conftest import complete_graph, discrete_variance, erdos_renyi, rng_for, star_graph


def central_lap_of(g, epsilon, rng):
    return central_lap(exact_triangle_count(g), g.d_max, epsilon, rng)


def test_central_lap_high_budget_is_exact():
    g = erdos_renyi(30, 0.3, rng_for(0))
    assert abs(central_lap_of(g, 1e12, rng_for(1)) - exact_triangle_count(g)) < 1e-6


def test_central_lap_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        central_lap_of(complete_graph(3), 0.0, rng_for(0))


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_central_lap_rejects_non_finite_epsilon(epsilon):
    # a NaN scale would fail `scale > 0` and release the exact count
    with pytest.raises(ValueError, match="finite"):
        central_lap(1, 2, epsilon, rng_for(0))


def test_central_lap_names_a_scale_out_of_range():
    # d_max 59 at epsilon 1e-18 asks for a scale of 5.9e19, whose noise
    # tail does not fit int64
    with pytest.raises(ValueError, match=re.escape(f"noise scale {59 / 1e-18} is too large")):
        central_lap(0, 59, 1e-18, rng_for(0))


def test_central_lap_edgeless_graph_draws_nothing():
    # d_max 0 needs no noise: the exact count comes back and the stream is
    # not read, where discrete_laplace would refuse the zero scale
    rng = rng_for(0)
    assert central_lap(0, 0, 1.0, rng) == 0.0
    assert rng.bit_generator.state == rng_for(0).bit_generator.state


def test_central_lap_scale_uses_true_max_degree():
    # d_max 7 at epsilon 2: the noise is the kernel's discrete Laplace(3.5)
    # draw from the same stream
    g = star_graph(7)
    want = exact_triangle_count(g) + int(discrete_laplace(3.5, rng_for(2)))
    assert central_lap_of(g, 2.0, rng_for(2)) == want


def test_central_lap_variance_k3():
    # K3 at epsilon 1: scale d_max/eps = 2, discrete Laplace variance
    # 2 alpha / (1 - alpha)**2 at alpha = e**-1/2, about 7.84
    t_true, d_max = 1, 2
    rng = rng_for(3)
    draws = np.array([central_lap(t_true, d_max, 1.0, rng) for _ in range(10**5)])
    assert np.all(draws == np.rint(draws))
    var = discrete_variance(2.0)
    assert abs(var - 7.84) < 0.01
    assert abs(draws.mean() - 1.0) < 3 * np.sqrt(var / draws.size)
    assert abs(draws.var() - var) < 0.05 * var


def test_central_lap_closed_form_reference_loss():
    # expected squared error is 2 * scale^2; at d_max 1045 and budget 2
    # that is 546012.5
    scale = 1045 / 2.0
    assert 2 * scale**2 == 546012.5
