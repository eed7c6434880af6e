"""Trusted-server comparator: discrete Laplace mechanism on the exact count."""

import math

from .perturbation import discrete_laplace


def central_lap(t_true: int, d_max: int, epsilon: float, rng) -> float:
    """Exact count t_true plus one discrete_laplace(d_max / epsilon) draw.

    The trusted server sees the whole graph, so it uses the true maximum
    degree as the sensitivity; no projection, no sharing. That makes it
    epsilon-DP only if d_max is public: the true d_max depends on the
    graph, and no budget is spent on it. The acceptance suite's
    utility-gap ratio (criterion 7) is measured against this baseline.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    scale = d_max / epsilon
    noise = int(discrete_laplace(scale, rng)) if scale > 0 else 0
    return float(t_true + noise)
