"""Trusted-server comparator: plain Laplace mechanism on the exact count."""

import math


def central_lap(t_true: int, d_max: int, epsilon: float, rng) -> float:
    """Exact count t_true plus Laplace(d_max / epsilon) noise.

    The trusted server sees the whole graph, so it uses the true maximum
    degree as the sensitivity; no projection, no sharing. That makes it
    epsilon-DP only if d_max is public: the true d_max depends on the
    graph, and no budget is spent on it. The acceptance suite's
    utility-gap ratio (criterion 7) is measured against this baseline.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    scale = d_max / epsilon
    noise = float(rng.laplace(0.0, scale)) if scale > 0 else 0.0
    return t_true + noise
